package temporalkcore

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math"
	"sort"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/shard"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// Projection selects what each result Core carries. Narrower projections
// skip the label/time conversion work entirely, so counting workloads pay
// no materialisation cost.
type Projection int

const (
	// ProjectEdges populates Core.Edges (the default).
	ProjectEdges Projection = iota
	// ProjectVertices populates Core.Vertices with the core's distinct
	// vertex labels, sorted ascending.
	ProjectVertices
	// ProjectCount populates neither: only the tightest time interval and
	// the query statistics are reported.
	ProjectCount
)

// Request is the composable query builder of API v2: one request type that
// every execution engine shares. Build it with Graph.Query (one-shot),
// PreparedQuery.Query (reusing a CoreTime phase), Watcher.Query (the live
// sliding window), or HistoricalIndex.Query (snapshot k-cores from the PHC
// index), chain options, then execute with Seq, Collect, First or Count —
// all of which take a context.Context that cancels both query phases with
// a bounded poll stride.
//
//	cores, err := g.Query(3).Window(t0, t1).Collect(ctx)
//
//	for c, err := range g.Query(3).Window(t0, t1).Project(temporalkcore.ProjectVertices).Seq(ctx) {
//	    ...
//	    break // stops the engine; only consumed cores are materialised
//	}
//
// A Request is a mutable builder: chain methods from a single goroutine
// and do not share one Request between concurrent executions. Executing
// twice re-runs the query. Builder errors (bad k, conflicting options) are
// deferred and returned by the execution call.
//
// A compiled plan pins the graph epoch it started on: a request built from
// a Snapshot (or a PreparedQuery prepared on one) executes every phase
// against that frozen state, and a watcher request pins the watcher's
// current published view for its whole execution — concurrent appends
// never shift the data under a running query.
type Request struct {
	g *Graph
	k int

	start, end int64
	windowSet  bool

	proj    Projection
	algo    Algorithm
	algoSet bool
	limit   int

	h     int // > 0: snapshot (k,h)-core mode
	hix   *HistoricalIndex
	prep  *PreparedQuery
	watch *Watcher
	sview *ShardedView // non-nil: scatter-gather across the view's shards

	statsDst *QueryStats
	err      error
}

// Query starts a one-shot request for temporal k-cores over the whole
// graph history; narrow it with Window.
func (g *Graph) Query(k int) *Request {
	r := &Request{g: g, k: k, start: math.MinInt64, end: math.MaxInt64}
	if k < 1 {
		r.err = fmt.Errorf("temporalkcore: k must be >= 1, got %d", k)
	}
	return r
}

// Query starts a request that enumerates from the prepared CoreTime phase:
// the request's k and window are fixed to the prepared ones and only the
// enumeration runs per execution.
func (p *PreparedQuery) Query() *Request {
	start, end := p.Range()
	return &Request{g: p.g, k: p.k, start: start, end: end, prep: p}
}

// Query starts a request against the watcher's current sliding window. The
// view is refreshed (incrementally patched) before enumerating.
func (w *Watcher) Query() *Request {
	return &Request{g: w.g, k: w.k, watch: w}
}

// Query starts a snapshot k-core request answered from the historical PHC
// index: the single k-core of the snapshot over the requested window.
func (h *HistoricalIndex) Query(k int) *Request {
	r := h.g.Query(k)
	r.hix = h
	return r
}

// fail records the first builder error.
func (r *Request) fail(format string, args ...any) *Request {
	if r.err == nil {
		r.err = fmt.Errorf("temporalkcore: "+format, args...)
	}
	return r
}

// Window restricts the query to the raw (inclusive) time range
// [start, end]. Prepared and watcher requests have a fixed window and
// reject it.
func (r *Request) Window(start, end int64) *Request {
	if r.prep != nil {
		return r.fail("prepared queries fix the window at Prepare time")
	}
	if r.watch != nil {
		return r.fail("watcher queries follow the watch window")
	}
	r.start, r.end, r.windowSet = start, end, true
	return r
}

// Project selects what each result Core carries; see Projection.
func (r *Request) Project(p Projection) *Request {
	if p < ProjectEdges || p > ProjectCount {
		return r.fail("unknown projection %d", int(p))
	}
	r.proj = p
	return r
}

// Algorithm pins the enumeration strategy (AlgoEnum, AlgoEnumBase,
// AlgoOTCD) for one-shot requests. Prepared, watcher, snapshot and
// historical requests always use their own engine and reject it.
func (r *Request) Algorithm(a Algorithm) *Request {
	if r.prep != nil || r.watch != nil || r.hix != nil || r.h > 0 || r.sview != nil {
		return r.fail("Algorithm applies only to one-shot enumeration requests")
	}
	r.algo, r.algoSet = a, true
	return r
}

// EarlyStop stops the enumeration after n cores have been emitted. It is
// equivalent to breaking out of Seq after n results — the engine stops,
// remaining cores are never materialised — packaged for Collect/Count.
// n <= 0 removes the limit.
func (r *Request) EarlyStop(n int) *Request {
	if n < 0 {
		n = 0
	}
	r.limit = n
	return r
}

// Snapshot switches the request to the (k, h)-core model of Wu et al.: the
// single maximal subgraph of the snapshot over the window in which every
// vertex has >= k neighbours with >= h interactions each. h = 1 is the
// ordinary snapshot k-core. The result stream carries at most one Core.
// Cancellation is checked before the peel starts; the single O(E) peeling
// pass itself runs to completion (unlike the enumeration engines, it has
// no per-start-time stride to poll on).
func (r *Request) Snapshot(h int) *Request {
	if r.prep != nil || r.watch != nil || r.hix != nil || r.sview != nil {
		return r.fail("Snapshot applies only to one-shot requests")
	}
	if r.algoSet {
		return r.fail("Snapshot conflicts with Algorithm")
	}
	if h < 1 {
		return r.fail("h must be >= 1, got %d", h)
	}
	r.h = h
	return r
}

// Using answers the request from a prebuilt historical PHC index instead
// of enumerating: the single k-core of the snapshot over the window.
// Cancellation is checked before the index walk; the single bounded
// lookup pass itself runs to completion.
func (r *Request) Using(h *HistoricalIndex) *Request {
	if r.prep != nil || r.watch != nil || r.h > 0 || r.sview != nil {
		return r.fail("Using applies only to one-shot requests")
	}
	if r.algoSet {
		return r.fail("Using conflicts with Algorithm")
	}
	if h == nil {
		return r.fail("Using(nil) historical index")
	}
	if h.g.origin != r.g.origin {
		return r.fail("historical index belongs to a different graph")
	}
	r.hix = h
	return r
}

// Stats records the execution's QueryStats into dst when the stream ends
// (normally, early-stopped or cancelled), for executions like Seq and
// Collect that have no stats return value.
func (r *Request) Stats(dst *QueryStats) *Request {
	r.statsDst = dst
	return r
}

// Seq executes the request and returns the results as a pull stream: cores
// are produced one at a time as the loop consumes them, each Core (and its
// slices) owned by the consumer. Breaking out of the loop stops the engine,
// so early termination pays only for the cores actually consumed. A
// cancellation or engine error arrives as the final (Core{}, err) element.
func (r *Request) Seq(ctx context.Context) iter.Seq2[Core, error] {
	return func(yield func(Core, error) bool) {
		broke := false
		_, err := r.run(ctx, func(c Core) bool {
			cp := c
			cp.Edges = append([]Edge(nil), c.Edges...)
			cp.Vertices = append([]int64(nil), c.Vertices...)
			if !yield(cp, nil) {
				broke = true
				return false
			}
			return true
		})
		if err != nil && !broke {
			yield(Core{}, err)
		}
	}
}

// Collect executes the request and materialises every result. On error
// (including cancellation) it returns the cores collected so far together
// with the error.
func (r *Request) Collect(ctx context.Context) ([]Core, error) {
	var out []Core
	_, err := r.run(ctx, func(c Core) bool {
		cp := c
		cp.Edges = append([]Edge(nil), c.Edges...)
		cp.Vertices = append([]int64(nil), c.Vertices...)
		out = append(out, cp)
		return true
	})
	return out, err
}

// First executes the request with an implicit EarlyStop(1) and returns the
// first core, if any. The engine stops as soon as it is emitted, so on
// large result sets this costs the CoreTime phase plus O(1) enumeration.
func (r *Request) First(ctx context.Context) (Core, bool, error) {
	var first Core
	found := false
	_, err := r.run(ctx, func(c Core) bool {
		first = c
		first.Edges = append([]Edge(nil), c.Edges...)
		first.Vertices = append([]int64(nil), c.Vertices...)
		found = true
		return false
	})
	return first, found, err
}

// Count executes the request without materialising results and returns the
// statistics (distinct cores, |R|, index sizes, phase timings).
func (r *Request) Count(ctx context.Context) (QueryStats, error) {
	save := r.proj
	r.proj = ProjectCount
	qs, err := r.run(ctx, func(Core) bool { return true })
	r.proj = save
	return qs, err
}

// run compiles the request and executes it on its engine, pushing each
// result core to fn. The Core passed to fn reuses buffers between calls;
// public executors copy before handing cores out.
//
// tkc:allow-background: tolerates nil ctx from v1 callers
func (r *Request) run(ctx context.Context, fn func(Core) bool) (QueryStats, error) {
	var qs QueryStats
	if r.statsDst != nil {
		defer func() { *r.statsDst = qs }()
	}
	if r.err != nil {
		return qs, r.err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if r.limit > 0 {
		inner := fn
		left := r.limit
		fn = func(c Core) bool {
			if !inner(c) {
				return false
			}
			left--
			return left > 0
		}
	}
	switch {
	case r.sview != nil:
		return r.runSharded(ctx, &qs, fn)
	case r.hix != nil:
		return r.runHistorical(ctx, &qs, fn)
	case r.h > 0:
		return r.runSnapshot(ctx, &qs, fn)
	case r.prep != nil:
		return r.runPrepared(ctx, &qs, fn)
	case r.watch != nil:
		return r.runWatch(ctx, &qs, fn)
	default:
		return r.runOneShot(ctx, &qs, fn)
	}
}

// projSink converts engine emissions (compressed windows + edge ids) into
// public Cores under the request's projection and forwards them to fn.
type projSink struct {
	g    *tgraph.Graph
	proj Projection
	fn   func(Core) bool
	qs   *QueryStats

	ebuf []Edge
	vbuf []int64
	mark []bool
}

func (s *projSink) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	s.qs.Cores++
	s.qs.Edges += int64(len(eids))
	rs, re := s.g.RawWindow(tti)
	c := Core{Start: rs, End: re}
	switch s.proj {
	case ProjectEdges:
		s.ebuf = s.ebuf[:0]
		for _, e := range eids {
			te := s.g.Edge(e)
			s.ebuf = append(s.ebuf, Edge{
				U:    s.g.Label(te.U),
				V:    s.g.Label(te.V),
				Time: s.g.RawTime(te.T),
			})
		}
		c.Edges = s.ebuf
	case ProjectVertices:
		if s.mark == nil {
			s.mark = make([]bool, s.g.NumVertices())
		}
		s.vbuf = s.vbuf[:0]
		for _, e := range eids {
			te := s.g.Edge(e)
			if !s.mark[te.U] {
				s.mark[te.U] = true
				s.vbuf = append(s.vbuf, s.g.Label(te.U))
			}
			if !s.mark[te.V] {
				s.mark[te.V] = true
				s.vbuf = append(s.vbuf, s.g.Label(te.V))
			}
		}
		for _, e := range eids { // reset marks for the next core
			te := s.g.Edge(e)
			s.mark[te.U], s.mark[te.V] = false, false
		}
		sort.Slice(s.vbuf, func(a, b int) bool { return s.vbuf[a] < s.vbuf[b] })
		c.Vertices = s.vbuf
	}
	return s.fn(c)
}

// runSharded executes the request as a scatter-gather over the view's
// shards: the plan pins the view's epoch and directory, and each
// overlapping shard's span resolves its CoreTime tables (a cached entry,
// or a boundary re-settle of a sealed shard's local index) and enumerates
// into the request's sink, in shard order on the calling goroutine — a
// stream byte-identical to the unsharded enumeration of the same window
// on the same epoch.
func (r *Request) runSharded(ctx context.Context, qs *QueryStats, fn func(Core) bool) (QueryStats, error) {
	v := r.sview
	w, err := r.g.window(r.start, r.end)
	if err != nil {
		return *qs, err
	}
	sink := &projSink{g: r.g.g, proj: r.proj, fn: fn, qs: qs}
	st, err := v.sg.rt.Query(ctx, shard.Params{
		G: r.g.g, K: r.k, W: w, Dir: v.dir, Cache: r.g.cache(),
	}, sink)
	qs.Shards, qs.Patched = st.Spans, st.Patched
	qs.CoreTime, qs.EnumTime = st.CoreTime, st.EnumTime
	qs.CacheHit = st.Ran > 0 && st.CacheHits == st.Ran
	return *qs, err
}

// runOneShot executes the request through the core engine: CoreTime phase
// plus enumeration, both on pooled scratch and cancellable via ctx. With
// the serving cache enabled, the CoreTime phase is consulted from — and on
// a miss inserted into — the cache under (epoch seq, k, window, algo), so
// a repeat query on the same graph state pays only the enumeration.
func (r *Request) runOneShot(ctx context.Context, qs *QueryStats, fn func(Core) bool) (QueryStats, error) {
	w, err := r.g.window(r.start, r.end)
	if err != nil {
		return *qs, err
	}
	sink := &projSink{g: r.g.g, proj: r.proj, fn: fn, qs: qs}
	// A key whose tables are known to exceed the whole cache budget takes
	// the uncached pooled-scratch path below: rebuilding retained tables
	// that can never be admitted would be strictly worse than both.
	if c := r.g.cache(); c != nil && cacheable(r.algo) {
		if key := r.g.cacheKey(r.k, w, r.algo); !c.Uncacheable(key) {
			ent, how, err := c.GetOrBuild(ctx, key, func() (*qcache.Entry, error) {
				return r.g.buildCacheEntry(ctx, r.k, w)
			})
			if err != nil {
				return *qs, err
			}
			qs.CacheHit = how != qcache.Built
			qs.CacheShared = how == qcache.Shared
			if how == qcache.Built {
				qs.CoreTime = ent.CoreTime
			}
			qs.VCTSize, qs.ECSSize = ent.Ix.Size(), ent.Ecs.Size()
			s := core.GetScratch()
			defer core.PutScratch(s)
			st, err := core.EnumeratePrebuilt(r.g.g, ent.Ix, ent.Ecs, sink, core.Options{Ctx: ctx}, s)
			qs.EnumTime = st.EnumTime
			return *qs, err
		}
	}
	st, err := core.Query(r.g.g, r.k, w, sink, core.Options{Algorithm: r.algo, Ctx: ctx})
	if err != nil {
		return *qs, err
	}
	qs.VCTSize, qs.ECSSize = st.VCTSize, st.ECSSize
	qs.CoreTime, qs.EnumTime = st.CoreTime, st.EnumTime
	return *qs, nil
}

// runPrepared re-enumerates the prepared CoreTime tables; only EnumTime is
// paid per execution (see PreparedQuery.PrepareTime).
func (r *Request) runPrepared(ctx context.Context, qs *QueryStats, fn func(Core) bool) (QueryStats, error) {
	p := r.prep
	qs.VCTSize, qs.ECSSize = p.ix.Size(), p.ecs.Size()
	if err := ctx.Err(); err != nil {
		return *qs, err
	}
	sink := &projSink{g: p.g.g, proj: r.proj, fn: fn, qs: qs}
	s := enum.GetScratch()
	defer enum.PutScratch(s)
	began := time.Now()
	_, cancelled := enum.EnumerateStop(p.g.g, p.ecs, sink, s, core.StopFromCtx(ctx))
	qs.EnumTime = time.Since(began)
	if cancelled {
		return *qs, ctx.Err()
	}
	return *qs, nil
}

// runWatch pins the watcher's current table view — the epoch the compiled
// plan executes against, held stable across concurrent writer refreshes —
// and enumerates it with pooled per-call scratch, so any number of watcher
// queries run concurrently with each other and with the appending writer.
// A stale view is repaired first (incrementally patched, cancellable via
// ctx with a bounded poll stride).
func (r *Request) runWatch(ctx context.Context, qs *QueryStats, fn func(Core) bool) (QueryStats, error) {
	w := r.watch
	if err := ctx.Err(); err != nil {
		return *qs, err
	}
	v, release, err := w.acquireView(core.StopFromCtx(ctx))
	if err != nil {
		if errors.Is(err, vct.ErrStopped) {
			if cerr := ctx.Err(); cerr != nil {
				err = cerr
			}
		}
		return *qs, err
	}
	defer release()
	qs.VCTSize, qs.ECSSize = v.Ix.Size(), v.Ecs.Size()
	sink := &projSink{g: v.G, proj: r.proj, fn: fn, qs: qs}
	s := enum.GetScratch()
	defer enum.PutScratch(s)
	began := time.Now()
	_, cancelled := enum.EnumerateStop(v.G, v.Ecs, sink, s, core.StopFromCtx(ctx))
	qs.EnumTime = time.Since(began)
	if cancelled {
		return *qs, ctx.Err()
	}
	return *qs, nil
}

// emitSnapshot assembles the single snapshot core of a window from its
// vertex ids or edge ids (whichever the projection needs) and emits it —
// the shared tail of the (k, h)-core and historical PHC engines. An empty
// core emits nothing. g is the graph state the ids refer to — the live
// epoch for (k, h)-cores, the pinned epoch for historical indexes.
func (r *Request) emitSnapshot(qs *QueryStats, fn func(Core) bool, g *tgraph.Graph, w tgraph.Window, vids []tgraph.VID, eids []tgraph.EID) {
	rs, re := g.RawWindow(w)
	c := Core{Start: rs, End: re}
	if r.proj == ProjectVertices {
		if len(vids) == 0 {
			return
		}
		labels := make([]int64, len(vids))
		for i, v := range vids {
			labels[i] = g.Label(v)
		}
		sort.Slice(labels, func(a, b int) bool { return labels[a] < labels[b] })
		c.Vertices = labels
	} else {
		if len(eids) == 0 {
			return
		}
		qs.Edges = int64(len(eids))
		if r.proj == ProjectEdges {
			edges := make([]Edge, len(eids))
			for i, e := range eids {
				te := g.Edge(e)
				edges[i] = Edge{U: g.Label(te.U), V: g.Label(te.V), Time: g.RawTime(te.T)}
			}
			c.Edges = edges
		}
	}
	qs.Cores = 1
	fn(c)
}
