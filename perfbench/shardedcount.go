package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/kcore"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// sharded-count: scatter-gather over CM cut into four time-range shards.
// Set-up warms each of 64 windows once, so the loop measures warm
// queries: cached shard-local tables, the boundary re-settle of every
// span that crosses a cut (vct.PatchScratchStop) and the per-span
// enumeration. Half of the windows straddle a cut.
const (
	shardDataset  = "CM"
	shardCount    = 4
	shardRate     = 9 // planned queries per second of --seconds
	shardKPct     = 30
	shardWidthPct = 3 // window length as a percentage of tmax
	shardWindows  = 64
	// Each set-up warms all windows, which takes seconds.
	shardSetupReps = 3
	shardRefReps   = 3 // prebuilt-enumeration repetitions per window, for the overhead baseline
)

// shardCuts are the sealed shards' last ranks when edges are cut into
// shardCount shards, read from the sharded graph itself.
func shardCuts(edges []tkc.Edge, g *tgraph.Graph) ([]tgraph.TS, error) {
	sg, err := tkc.NewSharded(edges, tkc.ShardOptions{Shards: shardCount})
	if err != nil {
		return nil, err
	}
	defer sg.Close()
	var cuts []tgraph.TS
	for _, s := range sg.ShardStats() {
		if s.Sealed {
			cuts = append(cuts, g.RankFloor(s.EndTime))
		}
	}
	return cuts, nil
}

func genShardedCount(seed int64, seconds int) (*genOutput, error) {
	g, kmax, err := replica(shardDataset)
	if err != nil {
		return nil, err
	}
	edges := make([]tkc.Edge, g.NumEdges())
	for i, e := range g.Edges() {
		edges[i] = tkc.Edge{U: g.Label(e.U), V: g.Label(e.V), Time: g.RawTime(e.T)}
	}
	cuts, err := shardCuts(edges, g)
	if err != nil {
		return nil, err
	}
	k := kOf(kmax, shardKPct)
	p := &plan{Workload: "sharded-count", Seed: seed, Seconds: seconds, Dataset: shardDataset,
		KMax: kmax, K: k, Shards: shardCount}
	tmax := int(g.TMax())
	width := max(2, tmax*shardWidthPct/100)
	r := rand.New(rand.NewSource(seed))
	peel := kcore.NewPeeler(g)
	seen := map[tgraph.Window]bool{}
	straddles := func(w tgraph.Window) bool {
		for _, c := range cuts {
			if w.Start <= c && c < w.End {
				return true
			}
		}
		return false
	}
	// pick draws a window starting in [lo, hi) of the wanted kind that
	// holds a k-core, falling back to any start when the range has none.
	pick := func(lo, hi int, straddle bool) error {
		for try := 0; try < 2000; try++ {
			if try == 1000 {
				lo, hi = 1, tmax-width+2
			}
			start := lo + r.Intn(max(1, hi-lo))
			w := tgraph.Window{Start: tgraph.TS(start), End: tgraph.TS(start + width - 1)}
			if start < 1 || int(w.End) > tmax || seen[w] || straddles(w) != straddle || !peel.HasCoreInWindow(k, w) {
				continue
			}
			seen[w] = true
			a, b := g.RawWindow(w)
			p.Windows = append(p.Windows, [2]int64{a, b})
			p.Straddle = append(p.Straddle, straddle)
			return nil
		}
		return fmt.Errorf("no window of %d ranks holding a %d-core (straddling a cut: %v)", width, k, straddle)
	}
	// Stratified positions keep the window mix, and so the cost of a
	// run, alike across seeds: half the windows straddle a cut, spread
	// evenly over the cuts and over the starts that straddle each, the
	// other half are spread evenly over the timeline.
	half := shardWindows / 2
	for i := 0; i < half; i++ {
		c := int(cuts[i%len(cuts)])
		j, n := i/len(cuts), (half-i%len(cuts)+len(cuts)-1)/len(cuts)
		lo := c - width + 2 // the first start whose window holds ranks c and c+1
		if err := pick(lo+j*(width-1)/n, lo+(j+1)*(width-1)/n, true); err != nil {
			return nil, err
		}
	}
	for i := 0; i < half; i++ {
		span := tmax - width + 1
		if err := pick(1+i*span/half, 1+(i+1)*span/half, false); err != nil {
			return nil, err
		}
	}
	// Whole passes over the windows, in a fresh seeded order each pass,
	// so every window runs equally often.
	for pass := 0; pass < max(1, (seconds*shardRate+shardWindows/2)/shardWindows); pass++ {
		for _, w := range r.Perm(shardWindows) {
			p.Ops = append(p.Ops, op{Kind: "query", W: w})
		}
	}
	for i := range p.Ops {
		p.Check = append(p.Check, i)
	}
	return &genOutput{graph: g, plan: p}, nil
}

// reference is the unsharded engine's answer for one window, from tables
// built on the same view, with the time its enumeration takes.
type reference struct {
	cores, edges int64
	enumMS       float64
}

func runShardedCount(rc *runCtx) (*outcome, error) {
	p, tr := rc.plan, rc.tr
	o := &outcome{layer: map[string]float64{}}
	ctx := context.Background()
	var sg *tkc.ShardedGraph
	var builds []float64
	var peaks peakMeter
	for i := 0; i < shardSetupReps; i++ {
		if sg != nil {
			sg.Close()
			sg = nil
		}
		if err := peaks.startSetup(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		edges, err := loadEdges(rc.edges)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		g, err := tkc.NewGraph(edges)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		if sg, err = tkc.ShardGraph(g, tkc.ShardOptions{Shards: p.Shards}); err != nil {
			return nil, err
		}
		v := sg.Latest()
		for _, w := range p.Windows {
			if _, err := v.Query(p.K).Window(w[0], w[1]).Count(ctx); err != nil {
				return nil, fmt.Errorf("warming [%d,%d]: %w", w[0], w[1], err)
			}
		}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		if err := peaks.endSetup(); err != nil {
			return nil, err
		}
	}
	defer sg.Close()
	view := sg.Latest()
	if view.NumShards() != p.Shards {
		return nil, fmt.Errorf("sharded graph has %d shards, the plan %d", view.NumShards(), p.Shards)
	}

	refs, err := references(view.Snapshot().Internal(), p, tr != nil)
	if err != nil {
		return nil, err
	}
	stats0 := sg.CacheStats()

	type answer struct {
		cores, edges int64
		ok           bool
	}
	answers := make([]answer, len(p.Ops))
	var spans, patched int64
	var coreTime, enumTime time.Duration
	var allocs uint64
	clock, err := startLoop(len(p.Ops), &peaks)
	if err != nil {
		return nil, err
	}
	for i, op := range p.Ops {
		if err := clock.next(i); err != nil {
			return nil, err
		}
		w := p.Windows[op.W]
		var a0 uint64
		if tr != nil {
			a0 = heapAllocs()
		}
		t0 := time.Now()
		qs, err := view.Query(p.K).Window(w[0], w[1]).Count(ctx)
		t1 := time.Now()
		if tr != nil {
			allocs += heapAllocs() - a0
			tr.add("temporalkcore.Request.Count", i, -1, t0, t1)
		}
		o.attempted++
		o.queryMS = append(o.queryMS, ms(t1.Sub(t0)))
		if err != nil {
			o.fail(i, "query [%d,%d]: %v", w[0], w[1], err)
			continue
		}
		answers[i] = answer{qs.Cores, qs.Edges, true}
		spans += int64(qs.Shards)
		patched += int64(qs.Patched)
		coreTime += qs.CoreTime
		enumTime += qs.EnumTime
	}
	if err := clock.stop(o); err != nil {
		return nil, err
	}
	stats1 := sg.CacheStats()

	// The output check: every query's core count and |R| must match the
	// unsharded engine on the same view.
	for _, i := range p.Check {
		a, ref := answers[i], refs[p.Ops[i].W]
		if a.ok && (a.cores != ref.cores || a.edges != ref.edges) {
			w := p.Windows[p.Ops[i].W]
			o.fail(i, "window [%d,%d]: sharded %d cores, |R|=%d; unsharded %d cores, |R|=%d",
				w[0], w[1], a.cores, a.edges, ref.cores, ref.edges)
		}
	}

	if tr != nil {
		n := float64(len(p.Ops))
		var cores, edges int64
		var base float64
		for i, a := range answers {
			cores += a.cores
			edges += a.edges
			base += refs[p.Ops[i].W].enumMS
		}
		query := mean(o.queryMS)
		o.layer["tgraph.build_s"] = median(builds)
		o.layer["shard.query_ms"] = query
		o.layer["shard.spans_per_query"] = float64(spans) / n
		o.layer["shard.patched_spans"] = float64(patched)
		o.layer["shard.alloc_bytes_per_query"] = float64(allocs) / n
		o.layer["shard.overhead_ms"] = query - base/n
		o.layer["vct.patches"] = float64(patched)
		if patched > 0 {
			// Span table resolution is a cache lookup unless the span
			// re-settles across its cut, so the resolution time is the
			// patches' time.
			o.layer["vct.patch_ms"] = ms(coreTime) / float64(patched)
		}
		o.layer["enum.enum_ms"] = ms(enumTime) / n
		o.layer["enum.cores"] = float64(cores)
		o.layer["enum.result_edges"] = float64(edges)
		hits := float64(stats1.Hits - stats0.Hits)
		misses := float64(stats1.Misses - stats0.Misses)
		o.layer["qcache.hits"] = hits
		o.layer["qcache.misses"] = misses
		if hits+misses > 0 {
			o.layer["qcache.hit_ratio"] = hits / (hits + misses)
		}
		o.layer["qcache.evictions"] = float64(stats1.Evictions - stats0.Evictions)
		o.layer["qcache.retired"] = float64(stats1.Retired - stats0.Retired)
		o.layer["qcache.resident_mb"] = float64(stats1.Bytes) / (1 << 20)
	}
	return o, nil
}

// references computes every window's unsharded answer on g from tables
// built outside any timed span; timed also measures the enumeration over
// those tables (the median of shardRefReps runs), the unsharded baseline of
// shard.overhead_ms.
func references(g *tgraph.Graph, p *plan, timed bool) ([]reference, error) {
	refs := make([]reference, len(p.Windows))
	s := core.GetScratch()
	defer core.PutScratch(s)
	for i, w := range p.Windows {
		cw, ok := g.CompressRange(w[0], w[1])
		if !ok {
			return nil, fmt.Errorf("window [%d,%d] covers no timestamp", w[0], w[1])
		}
		ix, ecs, err := vct.Build(g, p.K, cw)
		if err != nil {
			return nil, err
		}
		reps := 1
		if timed {
			reps = shardRefReps
		}
		var runs []float64
		for r := 0; r < reps; r++ {
			var sink enum.CountSink
			t0 := time.Now()
			if _, err := core.EnumeratePrebuilt(g, ix, ecs, &sink, core.Options{}, s); err != nil {
				return nil, err
			}
			runs = append(runs, ms(time.Since(t0)))
			refs[i] = reference{cores: sink.Cores, edges: sink.EdgeTotal}
		}
		refs[i].enumMS = median(runs)
	}
	return refs, nil
}
