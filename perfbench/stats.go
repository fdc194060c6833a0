package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles the tail metric may report, highest
// first. A named percentile keeps runs with equal sample counts
// comparable: the same run length always reports the same percentile.
var tailLadder = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond the reported tail
// percentile, so the tail is never a single outlier.
const minBeyond = 10

// tail is a latency tail: the value at the highest ladder percentile that
// leaves at least minBeyond samples beyond it.
type tail struct {
	Pct     float64
	Value   float64
	Samples int
	Beyond  int
}

// tailOf picks the tail percentile of xs by the minBeyond rule. It reports
// ok=false when even the median leaves fewer than minBeyond samples
// beyond it.
func tailOf(xs []float64) (tail, bool) {
	n := len(xs)
	s := sorted(xs)
	for _, p := range tailLadder {
		r := rank(p, n)
		if beyond := n - r; beyond >= minBeyond {
			return tail{Pct: p, Value: s[r-1], Samples: n, Beyond: beyond}, true
		}
	}
	return tail{Samples: n}, false
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples, computed in integer tenths of a percent so that, say,
// p99.9 of 10000 samples is exactly rank 9990.
func rank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	return max(1, (tenths*n+999)/1000)
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// pctName renders a ladder percentile as it is printed, e.g. "p99.5".
func pctName(p float64) string { return fmt.Sprintf("p%g", p) }
