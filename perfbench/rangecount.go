package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/bench"
)

// range-count: the paper-tier hot path. Every query is a distinct window
// with the serving cache off, so each one pays the CoreTime build (vct)
// and the enumeration (enum); qcache, shard, serve and store do no work.
const (
	rangeDataset  = "EM"
	rangeRate     = 45 // planned queries per second of --seconds
	rangeKPct     = 30 // k as a percentage of kmax
	rangeWidthPct = 2  // window length as a percentage of tmax
	rangeChecks   = 4  // queries re-run on the OTCD engine
	// setup_s is the median over the set-up repetitions, so one slow
	// repetition does not move it.
	rangeSetupReps = 5
)

func genRangeCount(seed int64, seconds int) (*genOutput, error) {
	g, kmax, err := replica(rangeDataset)
	if err != nil {
		return nil, err
	}
	d := &bench.Dataset{Code: rangeDataset, G: g, KMax: kmax}
	k := kOf(kmax, rangeKPct)
	n := seconds * rangeRate
	p := &plan{Workload: "range-count", Seed: seed, Seconds: seconds, Dataset: rangeDataset, KMax: kmax, K: k}
	seen := map[[2]int64]bool{}
	for _, w := range d.Queries(k, rangeWidthPct, 2*n, seed) {
		a, b := g.RawWindow(w)
		if key := [2]int64{a, b}; !seen[key] && len(p.Windows) < n {
			seen[key] = true
			p.Ops = append(p.Ops, op{Kind: "query", W: len(p.Windows)})
			p.Windows = append(p.Windows, key)
		}
	}
	if len(p.Windows) < n {
		return nil, fmt.Errorf("found %d distinct windows holding a %d-core, need %d", len(p.Windows), k, n)
	}
	p.Check = sample(rand.New(rand.NewSource(seed)), n, rangeChecks)
	return &genOutput{graph: g, plan: p}, nil
}

func runRangeCount(rc *runCtx) (*outcome, error) {
	p, tr := rc.plan, rc.tr
	o := &outcome{layer: map[string]float64{}}
	var g *tkc.Graph
	var builds []float64
	var peaks peakMeter
	for i := 0; i < rangeSetupReps; i++ {
		g = nil
		if err := peaks.startSetup(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		edges, err := loadEdges(rc.edges)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if g, err = tkc.NewGraph(edges); err != nil {
			return nil, err
		}
		g.SetCacheOptions(tkc.CacheOptions{Disable: true})
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		builds = append(builds, time.Since(t1).Seconds())
		if err := peaks.endSetup(); err != nil {
			return nil, err
		}
	}

	ctx := context.Background()
	type answer struct{ cores, edges int64 }
	answers := make([]answer, len(p.Ops))
	clock, err := startLoop(len(p.Ops), &peaks)
	if err != nil {
		return nil, err
	}
	for i, op := range p.Ops {
		if err := clock.next(i); err != nil {
			return nil, err
		}
		w := p.Windows[op.W]
		t0 := time.Now()
		qs, err := g.Query(p.K).Window(w[0], w[1]).Count(ctx)
		t1 := time.Now()
		o.attempted++
		o.queryMS = append(o.queryMS, ms(t1.Sub(t0)))
		if err != nil {
			o.fail(i, "query [%d,%d]: %v", w[0], w[1], err)
			continue
		}
		answers[i] = answer{qs.Cores, qs.Edges}
		sp := tr.add("temporalkcore.Request.Count", i, -1, t0, t1)
		tr.reported(i, sp, phase{"vct.BuildScratchStop", qs.CoreTime}, phase{"enum.EnumerateStop", qs.EnumTime})
	}
	if err := clock.stop(o); err != nil {
		return nil, err
	}

	// The output check: core count and |R| of a seeded sample must match
	// the OTCD baseline, an engine that shares no code with Enum's
	// CoreTime phase.
	for _, i := range p.Check {
		w := p.Windows[p.Ops[i].W]
		qs, err := g.Query(p.K).Window(w[0], w[1]).Algorithm(tkc.AlgoOTCD).Count(ctx)
		if err != nil {
			o.fail(i, "OTCD check [%d,%d]: %v", w[0], w[1], err)
			continue
		}
		if got := answers[i]; got != (answer{qs.Cores, qs.Edges}) {
			o.fail(i, "window [%d,%d]: Enum counted %d cores, |R|=%d; OTCD %d cores, |R|=%d",
				w[0], w[1], got.cores, got.edges, qs.Cores, qs.Edges)
		}
	}

	if tr != nil {
		spans := tr.byName()
		o.layer["temporalkcore.request_self_ms"] = spans["temporalkcore.Request.Count"].meanSelfMS()
		o.layer["tgraph.build_s"] = median(builds)
		o.layer["vct.build_ms"] = spans["vct.BuildScratchStop"].meanMS()
		o.layer["vct.builds"] = float64(spans["vct.BuildScratchStop"].n)
		o.layer["enum.enum_ms"] = spans["enum.EnumerateStop"].meanMS()
		var cores, edges int64
		for _, a := range answers {
			cores += a.cores
			edges += a.edges
		}
		o.layer["enum.cores"] = float64(cores)
		o.layer["enum.result_edges"] = float64(edges)
	}
	return o, nil
}
