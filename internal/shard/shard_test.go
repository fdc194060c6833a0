package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/shard"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

func randomGraph(r *rand.Rand, n, m, tmax int) *tgraph.Graph {
	var b tgraph.Builder
	b.KeepDuplicates = false
	for i := 0; i < m; i++ {
		u := r.Intn(n)
		v := r.Intn(n)
		for v == u {
			v = r.Intn(n)
		}
		b.Add(int64(u), int64(v), int64(1+r.Intn(tmax)))
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// directoryFor slices g's rank axis into parts sealed shards plus a
// frontier, cutting at evenly spaced ranks.
func directoryFor(t *testing.T, g *tgraph.Graph, parts int) *shard.Directory {
	t.Helper()
	var cuts []shard.Cut
	tmax := int(g.TMax())
	for i := 1; i < parts; i++ {
		r := tgraph.TS(i * tmax / parts)
		if r < 1 || r >= g.TMax() {
			continue
		}
		if len(cuts) > 0 && r <= cuts[len(cuts)-1].End {
			continue
		}
		cuts = append(cuts, shard.Cut{RawEnd: g.RawTime(r), End: r, Seq: g.MutSeq()})
	}
	d, err := shard.NewDirectory(cuts)
	if err != nil {
		t.Fatalf("NewDirectory: %v", err)
	}
	return d
}

type emitted struct {
	win  tgraph.Window
	eids []tgraph.EID
}

func collectOracle(t *testing.T, g *tgraph.Graph, k int, w tgraph.Window) []emitted {
	t.Helper()
	_, ecs, err := vct.Build(g, k, w)
	if err != nil {
		t.Fatalf("vct.Build: %v", err)
	}
	var out []emitted
	sink := sinkFunc(func(win tgraph.Window, eids []tgraph.EID) bool {
		cp := make([]tgraph.EID, len(eids))
		copy(cp, eids)
		out = append(out, emitted{win, cp})
		return true
	})
	if done, _ := enum.EnumerateStop(g, ecs, sink, enum.GetScratch(), nil); !done {
		t.Fatal("oracle enumeration stopped early")
	}
	return out
}

type sinkFunc func(tgraph.Window, []tgraph.EID) bool

func (f sinkFunc) Emit(w tgraph.Window, eids []tgraph.EID) bool { return f(w, eids) }

func TestDirectorySpans(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{
		{RawEnd: 100, End: 10, Seq: 1},
		{RawEnd: 200, End: 20, Seq: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumShards() != 3 || d.NumSealed() != 2 {
		t.Fatalf("NumShards=%d NumSealed=%d", d.NumShards(), d.NumSealed())
	}

	cases := []struct {
		w    tgraph.Window
		want []shard.Span
	}{
		{ // spanning everything
			w: tgraph.Window{Start: 1, End: 30},
			want: []shard.Span{
				{Shard: 0, Sealed: true, Task: tgraph.Window{Start: 1, End: 30}, LastStart: 10, Local: tgraph.Window{Start: 1, End: 10}, Seq: 1},
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 11, End: 30}, LastStart: 20, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
				{Shard: 2, Task: tgraph.Window{Start: 21, End: 30}, LastStart: 30},
			},
		},
		{ // interior of one sealed shard
			w: tgraph.Window{Start: 12, End: 18},
			want: []shard.Span{
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 12, End: 18}, LastStart: 18, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
			},
		},
		{ // frontier only
			w: tgraph.Window{Start: 25, End: 30},
			want: []shard.Span{
				{Shard: 2, Task: tgraph.Window{Start: 25, End: 30}, LastStart: 30},
			},
		},
		{ // crossing the first cut only
			w: tgraph.Window{Start: 5, End: 15},
			want: []shard.Span{
				{Shard: 0, Sealed: true, Task: tgraph.Window{Start: 5, End: 15}, LastStart: 10, Local: tgraph.Window{Start: 1, End: 10}, Seq: 1},
				{Shard: 1, Sealed: true, Task: tgraph.Window{Start: 11, End: 15}, LastStart: 15, Local: tgraph.Window{Start: 11, End: 20}, Seq: 2},
			},
		},
	}
	for _, tc := range cases {
		got := d.Spans(tc.w)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Spans(%v):\n got %+v\nwant %+v", tc.w, got, tc.want)
		}
	}
}

func TestDirectorySealValidation(t *testing.T) {
	d, err := shard.NewDirectory([]shard.Cut{{RawEnd: 100, End: 10, Seq: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Seal(shard.Cut{RawEnd: 50, End: 5, Seq: 2}); err == nil {
		t.Fatal("descending seal accepted")
	}
	d2, err := d.Seal(shard.Cut{RawEnd: 200, End: 20, Seq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumSealed() != 1 || d2.NumSealed() != 2 {
		t.Fatal("Seal mutated the receiver or failed to extend")
	}
}

// TestQueryMatchesOracle locks the scatter-gather contract at the package
// level: merged span output is identical to the unsharded enumeration, for
// windows inside one shard, spanning cuts, and covering everything — with
// and without a cache, warm and cold.
func TestQueryMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 6; trial++ {
		g := randomGraph(rng, 16, 260, 24)
		d := directoryFor(t, g, 2+trial%3)
		rt := shard.NewRuntime()
		// A one-byte cache admits nothing: every key turns oversize after
		// its first build, and the second pass takes the zero-retention
		// paths.
		caches := []*qcache.Cache{nil, qcache.New(1 << 20), qcache.New(1)}
		windows := []tgraph.Window{
			{Start: 1, End: g.TMax()},
			{Start: 2, End: g.TMax() - 1},
			{Start: g.TMax() / 3, End: 2 * g.TMax() / 3},
		}
		if cuts := d.Cuts(); len(cuts) > 0 { // exactly the first shard
			windows = append(windows, tgraph.Window{Start: 1, End: cuts[0].End})
		}
		for _, cache := range caches {
			for pass := 0; pass < 2; pass++ { // second pass hits the warm path
				for _, w := range windows {
					if w.Start < 1 || w.End < w.Start {
						continue
					}
					want := collectOracle(t, g, 2, w)
					var got []emitted
					st, err := rt.Query(context.Background(), shard.Params{
						G: g, K: 2, W: w, Dir: d, Cache: cache,
					}, sinkFunc(func(win tgraph.Window, eids []tgraph.EID) bool {
						cp := make([]tgraph.EID, len(eids))
						copy(cp, eids)
						got = append(got, emitted{win, cp})
						return true
					}))
					if err != nil {
						t.Fatalf("Query: %v", err)
					}
					if len(got) != len(want) {
						t.Fatalf("trial %d w=%v: %d cores, want %d (stats %+v)", trial, w, len(got), len(want), st)
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("trial %d w=%v core %d:\n got %+v\nwant %+v", trial, w, i, got[i], want[i])
						}
					}
				}
			}
		}
		rt.Close()
	}
}

// TestQueryWarmCacheHits asserts the second identical query serves every
// sealed span from its cached local index.
func TestQueryWarmCacheHits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 14, 200, 20)
	d := directoryFor(t, g, 3)
	rt := shard.NewRuntime()
	defer rt.Close()
	cache := qcache.New(1 << 20)
	w := tgraph.Window{Start: 1, End: g.TMax()}
	run := func() shard.Stats {
		st, err := rt.Query(context.Background(), shard.Params{G: g, K: 2, W: w, Dir: d, Cache: cache},
			sinkFunc(func(tgraph.Window, []tgraph.EID) bool { return true }))
		if err != nil {
			t.Fatalf("Query: %v", err)
		}
		return st
	}
	run()
	st := run()
	if st.CacheHits != st.Spans {
		t.Fatalf("warm query: %d/%d spans hit the cache (stats %+v)", st.CacheHits, st.Spans, st)
	}
	for i := 0; i < d.NumShards(); i++ {
		ps := rt.Stats(i)
		if ps.Tasks == 0 {
			t.Fatalf("shard %d served no spans", i)
		}
	}
}

// TestQueryEarlyStop verifies the consumer can stop mid-stream without an
// error.
func TestQueryEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 14, 220, 20)
	d := directoryFor(t, g, 3)
	rt := shard.NewRuntime()
	defer rt.Close()
	w := tgraph.Window{Start: 1, End: g.TMax()}
	want := collectOracle(t, g, 2, w)
	if len(want) < 3 {
		t.Skip("graph too sparse for an early-stop test")
	}
	seen := 0
	_, err := rt.Query(context.Background(), shard.Params{G: g, K: 2, W: w, Dir: d},
		sinkFunc(func(win tgraph.Window, eids []tgraph.EID) bool {
			seen++
			return seen < 2
		}))
	if err != nil {
		t.Fatalf("early-stopped query returned error: %v", err)
	}
	if seen != 2 {
		t.Fatalf("sink saw %d cores, want 2", seen)
	}
}

// TestQueryAfterClose locks the shutdown contract.
func TestQueryAfterClose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 10, 80, 10)
	d := directoryFor(t, g, 2)
	rt := shard.NewRuntime()
	rt.Close()
	rt.Close() // idempotent
	_, err := rt.Query(context.Background(), shard.Params{G: g, K: 2, W: tgraph.Window{Start: 1, End: g.TMax()}, Dir: d},
		sinkFunc(func(tgraph.Window, []tgraph.EID) bool { return true }))
	if err != shard.ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestQueryCancelledContext verifies a cancelled context surfaces as its
// own error, with and without a cache to build into.
func TestQueryCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomGraph(rng, 12, 160, 16)
	d := directoryFor(t, g, 3)
	rt := shard.NewRuntime()
	defer rt.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cache := range []*qcache.Cache{nil, qcache.New(1 << 20)} {
		_, err := rt.Query(ctx, shard.Params{G: g, K: 2, W: tgraph.Window{Start: 1, End: g.TMax()}, Dir: d, Cache: cache},
			sinkFunc(func(tgraph.Window, []tgraph.EID) bool { return true }))
		if err != context.Canceled {
			t.Fatalf("cache=%v: err = %v, want context.Canceled", cache != nil, err)
		}
	}
}

// TestQueryCancelMidEnumeration cancels the context from inside the sink,
// on the first core of a query spanning every shard: the query surfaces
// context.Canceled rather than a truncated success, emits less than the
// full result, and leaves no goroutine behind.
func TestQueryCancelMidEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 14, 220, 20)
	d := directoryFor(t, g, 3)
	rt := shard.NewRuntime()
	defer rt.Close()
	w := tgraph.Window{Start: 1, End: g.TMax()}
	want := collectOracle(t, g, 2, w)
	if len(want) < 3 || len(d.Spans(w)) < 2 {
		t.Skip("graph too sparse for a mid-enumeration cancel")
	}
	for _, cache := range []*qcache.Cache{nil, qcache.New(1 << 20)} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, err := rt.Query(ctx, shard.Params{G: g, K: 2, W: w, Dir: d, Cache: cache},
			sinkFunc(func(tgraph.Window, []tgraph.EID) bool {
				seen++
				if seen == 1 {
					cancel()
				}
				return true
			}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cache=%v: err = %v, want context.Canceled", cache != nil, err)
		}
		if seen == 0 || seen >= len(want) {
			t.Fatalf("cache=%v: sink saw %d of %d cores, want a strict prefix", cache != nil, seen, len(want))
		}
		// Fewer is fine: a finished earlier test's goroutine may exit
		// while this query runs.
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("cache=%v: %d goroutines before the query, %d after", cache != nil, before, after)
		}
	}
}
