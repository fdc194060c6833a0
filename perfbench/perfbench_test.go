package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestPlansFollowSeed: the same seed gives an identical operation
// sequence and a different seed a different one, on every workload.
func TestPlansFollowSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.gen(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.gen(1, 1)
			if err != nil {
				t.Fatal(err)
			}
			c, err := w.gen(2, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.plan, b.plan) {
				t.Error("seed 1 generated two different plans")
			}
			if reflect.DeepEqual(a.plan.Windows, c.plan.Windows) && reflect.DeepEqual(a.plan.Ops, c.plan.Ops) {
				t.Error("seeds 1 and 2 generated the same operations")
			}
			if len(a.plan.Ops) == 0 || len(a.plan.Check) == 0 {
				t.Errorf("plan has %d operations and %d checks", len(a.plan.Ops), len(a.plan.Check))
			}
			for _, o := range a.plan.Ops {
				if o.Kind == "query" && (o.W < 0 || o.W >= len(a.plan.Windows)) {
					t.Fatalf("query names window %d of %d", o.W, len(a.plan.Windows))
				}
			}
			if w.name == "sharded-count" {
				n := 0
				for _, s := range a.plan.Straddle {
					if s {
						n++
					}
				}
				if len(a.plan.Windows) != shardWindows || n != shardWindows/2 {
					t.Errorf("%d windows, %d straddling a cut; want %d and %d", len(a.plan.Windows), n, shardWindows, shardWindows/2)
				}
			}
		})
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	for _, c := range []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{10000, 99.9, 9990, 10},
		{1000, 99, 990, 10},
		{999, 98, 980, 19},
		{500, 98, 490, 10},
		{499, 95, 475, 24},
		{100, 90, 90, 10},
		{40, 75, 30, 10},
		{20, 50, 10, 10},
	} {
		got, ok := tailOf(seq(c.n))
		if !ok || got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.Samples != c.n {
			t.Errorf("n=%d: got %+v ok=%v, want p%g value %g with %d beyond", c.n, got, ok, c.pct, c.value, c.beyond)
		}
	}
	if _, ok := tailOf(seq(19)); ok {
		t.Error("19 samples leave fewer than 10 beyond the median but a tail was reported")
	}
}

func TestMetricNameGrammar(t *testing.T) {
	for _, d := range endToEndMetrics {
		if err := checkName(d, false); err != nil {
			t.Error(err)
		}
	}
	for _, d := range layerMetrics {
		if err := checkName(d, true); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []struct {
		d        metricDecl
		perLayer bool
	}{
		{metricDecl{"Query_ms", "ms", "lower"}, false},
		{metricDecl{"query_ms", "s", "lower"}, false},
		{metricDecl{"vct.build_ms", "ms", "lower"}, false},
		{metricDecl{"build_ms", "ms", "lower"}, true},
		{metricDecl{"phc.build_ms", "ms", "lower"}, true},
		{metricDecl{"vct.rate_per_s", "count", "higher"}, true},
		{metricDecl{"vct.builds", "count", "fewer"}, true},
	} {
		if checkName(bad.d, bad.perLayer) == nil {
			t.Errorf("%+v passed the grammar", bad.d)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the declarations must match.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestDeclarationsMatchBenchmarkJSON: every metric the benchmark prints
// is declared in BENCHMARK.json, and every declared metric is printed.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, perfbench runs %v", names, ours)
	}
	same := func(kind string, declared []struct{ Name, Unit, Better string }, decls []metricDecl, perLayer bool) {
		var want []metricDecl
		for _, d := range declared {
			want = append(want, metricDecl{d.Name, d.Unit, d.Better})
		}
		if !reflect.DeepEqual(want, decls) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nperfbench      %v", kind, want, decls)
		}
		// The printed set is exactly the declared set.
		values := map[string]float64{}
		for _, d := range decls {
			values[d.Name] = 1
		}
		m, err := collect(decls, values, perLayer)
		if err != nil {
			t.Fatal(err)
		}
		var printed, declaredNames []string
		for name := range m {
			printed = append(printed, name)
		}
		for _, d := range declared {
			declaredNames = append(declaredNames, d.Name)
		}
		sort.Strings(printed)
		sort.Strings(declaredNames)
		if !reflect.DeepEqual(printed, declaredNames) {
			t.Errorf("%s: printed %v, declared %v", kind, printed, declaredNames)
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics, false)
	same("per_layer", bj.PerLayer, layerMetrics, true)
}

func TestCollectRejects(t *testing.T) {
	all := map[string]float64{}
	for _, d := range endToEndMetrics {
		all[d.Name] = 1
	}
	if _, err := collect(endToEndMetrics, map[string]float64{"setup_s": 1}, false); err == nil {
		t.Error("missing end-to-end metrics were accepted")
	}
	all["query_p50_ms"] = 0
	if _, err := collect(endToEndMetrics, all, false); err == nil {
		t.Error("a zero end-to-end metric was accepted")
	}
	if _, err := collect(layerMetrics, map[string]float64{"vct.unknown_ms": 1}, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	m, err := collect(layerMetrics, map[string]float64{}, true)
	if err != nil || len(m) != len(layerMetrics) {
		t.Errorf("bypassed layers: %d metrics, err %v", len(m), err)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer(4)
	t0 := tr.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("root", 0, -1, at(0), at(10))
	tr.reported(0, root, phase{"a", 6 * time.Millisecond}, phase{"b", 3 * time.Millisecond})
	self := tr.selfTimes()
	want := []time.Duration{time.Millisecond, 6 * time.Millisecond, 3 * time.Millisecond}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times %v, want %v", self, want)
	}
	if s := tr.spans[2]; s.Start != int64(6*time.Millisecond) || !s.Reported {
		t.Errorf("second reported phase %+v does not follow the first", s)
	}
	if got := tr.childSelfShare(); got != 0.9 {
		t.Errorf("child self share %v, want 0.9", got)
	}
	var nilTracer *tracer
	if nilTracer.add("x", 0, -1, t0, t0) != -1 {
		t.Error("a nil tracer recorded a span")
	}
}
