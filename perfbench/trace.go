package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans are recorded by the
// benchmark around the calls it makes. Where the program itself reports
// the duration of a phase inside such a call (QueryStats.CoreTime and
// EnumTime), the phase is recorded as a child span with Reported set: its
// duration is the program's own clock, and its start is inferred by laying
// the reported phases out back to back from the parent's start.
type span struct {
	Name     string `json:"name"`
	Op       int    `json:"op"`
	Parent   int    `json:"parent"` // index of the parent span, -1 for a root
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Reported bool   `json:"reported,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced run executes the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records a finished span and returns its index (-1 when t is nil).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// reported records program-reported phases as consecutive children of
// parent, in call order.
func (t *tracer) reported(op, parent int, phases ...phase) {
	if t == nil || parent < 0 {
		return
	}
	at := t.spans[parent].Start
	for _, p := range phases {
		t.spans = append(t.spans, span{Name: p.name, Op: op, Parent: parent, Start: at, End: at + p.d.Nanoseconds(), Reported: true})
		at += p.d.Nanoseconds()
	}
}

// phase is a named duration the program reported for a call.
type phase struct {
	name string
	d    time.Duration
}

// selfTimes returns every span's duration minus the durations of its
// direct children.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// agg sums the durations and self times of the spans named name.
type agg struct {
	n          int
	total, own time.Duration
}

func (a agg) meanMS() float64 {
	if a.n == 0 {
		return 0
	}
	return ms(a.total) / float64(a.n)
}

func (a agg) meanSelfMS() float64 {
	if a.n == 0 {
		return 0
	}
	return ms(a.own) / float64(a.n)
}

func (t *tracer) byName() map[string]agg {
	self := t.selfTimes()
	out := map[string]agg{}
	for i, s := range t.spans {
		a := out[s.Name]
		a.n++
		a.total += s.dur()
		a.own += self[i]
		out[s.Name] = a
	}
	return out
}

// childSelfShare is the share of the root spans' time that their
// descendants' self times account for: 1 means every nanosecond of an
// operation is attributed to a named layer call.
func (t *tracer) childSelfShare() float64 {
	self := t.selfTimes()
	var roots, children time.Duration
	for i, s := range t.spans {
		if s.Parent < 0 {
			roots += s.dur()
		} else {
			children += self[i]
		}
	}
	if roots == 0 {
		return 0
	}
	return float64(children) / float64(roots)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
