package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"temporalkcore/internal/core"
	"temporalkcore/internal/enum"
	"temporalkcore/internal/qcache"
	"temporalkcore/internal/tgraph"
	"temporalkcore/internal/vct"
)

// ErrClosed reports a query against a runtime whose Close already ran.
var ErrClosed = errors.New("shard: runtime closed")

// Counters are one shard's monotone serving counters.
type Counters struct {
	Tasks     int64 // spans executed
	CacheHits int64 // spans whose CoreTime tables were resident or shared
	Patched   int64 // spans that ran a boundary re-settle
}

// counters is the live, atomically updated form of Counters.
type counters struct {
	tasks, hits, patched atomic.Int64
}

// Runtime holds the per-shard serving counters of one sharded graph and
// its open/closed state. It owns no goroutines: every query runs its spans
// on the calling goroutine, so concurrent queries run in parallel, each on
// its own caller.
type Runtime struct {
	mu     sync.Mutex
	shards []*counters // tkc:guardedby mu
	closed bool        // tkc:guardedby mu
}

// NewRuntime creates an open runtime.
func NewRuntime() *Runtime { return &Runtime{} }

// Close marks the runtime closed: later queries fail with ErrClosed.
// Idempotent.
func (rt *Runtime) Close() {
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
}

// Stats returns shard i's serving counters (zero for shards no query has
// reached yet).
func (rt *Runtime) Stats(i int) Counters {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if i < 0 || i >= len(rt.shards) {
		return Counters{}
	}
	c := rt.shards[i]
	return Counters{Tasks: c.tasks.Load(), CacheHits: c.hits.Load(), Patched: c.patched.Load()}
}

// ensure grows the counter set to at least n shards. Returns false after
// Close.
func (rt *Runtime) ensure(n int) ([]*counters, bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, false
	}
	for len(rt.shards) < n {
		rt.shards = append(rt.shards, new(counters))
	}
	return rt.shards, true
}

// Params describe one scatter-gather query over a pinned epoch.
type Params struct {
	G     *tgraph.Graph // the pinned epoch's graph (spine)
	K     int
	W     tgraph.Window // compressed query window on G
	Dir   *Directory    // the directory published with the epoch
	Cache *qcache.Cache // serving cache; nil runs every span uncached
}

// Stats aggregates one scatter-gather execution. CoreTime and EnumTime sum
// the spans' phase costs.
type Stats struct {
	Spans     int // shards the query scattered to
	Ran       int // spans run: fewer than Spans when the sink stopped early
	CacheHits int // spans whose CoreTime tables were resident or shared
	Patched   int // spans that ran a boundary re-settle over their cut
	CoreTime  time.Duration
	EnumTime  time.Duration
}

// Query runs the spans of p.W one after another on the calling
// goroutine, in shard order: each span resolves its CoreTime tables and
// enumerates its start slice straight into sink. Shard order is ascending
// tightest-start order, so the emitted stream is byte-identical to the
// unsharded enumeration of the same window. sink follows the enum.Sink
// contract; when it stops, the query returns without resolving the later
// spans.
func (rt *Runtime) Query(ctx context.Context, p Params, sink enum.Sink) (Stats, error) {
	var st Stats
	spans := p.Dir.Spans(p.W)
	st.Spans = len(spans)
	if len(spans) == 0 {
		return st, nil
	}
	ctrs, ok := rt.ensure(p.Dir.NumShards())
	if !ok {
		return st, ErrClosed
	}
	vs := vct.GetScratch()
	defer vct.PutScratch(vs)
	es := enum.GetScratch()
	defer enum.PutScratch(es)
	q := query{Params: p, ctx: ctx, stop: core.StopFromCtx(ctx), vs: vs}
	for _, sp := range spans {
		c := ctrs[sp.Shard]
		c.tasks.Add(1)
		st.Ran++
		began := time.Now()
		ecs, hit, patched, err := q.spanTables(sp)
		st.CoreTime += time.Since(began)
		if hit {
			st.CacheHits++
			c.hits.Add(1)
		}
		if patched {
			st.Patched++
			c.patched.Add(1)
		}
		if err != nil {
			return st, translateStop(ctx, err)
		}
		began = time.Now()
		done, cancelled := enum.EnumerateRangeStop(p.G, ecs, sink, es, sp.LastStart, q.stop)
		st.EnumTime += time.Since(began)
		if cancelled {
			return st, ctx.Err()
		}
		if !done {
			return st, nil // the sink stopped
		}
	}
	// A cancellation after the last poll still fails the query, as it
	// would have failed the next span.
	return st, ctx.Err()
}

// query is one scatter-gather execution's span-resolution state. vs is the
// caller's CoreTime scratch, reused by every span in turn.
type query struct {
	Params
	ctx  context.Context
	stop func() bool
	vs   *vct.Scratch
}

// spanTables resolves a span's CoreTime tables. Without a cache every span
// builds on the scratch. With one, a span is served under the ordinary
// epoch key of its task window — the key an unsharded query of that window
// uses — so a warm span is a single lookup, whichever path filled it. On a
// miss, resettle computes the tables on the scratch and a self-owned clone
// is inserted; epoch retirement sweeps it like any other epoch entry. A
// sealed span whose task window is exactly its shard serves the shard-local
// entry itself. hit reports the tables were resident or shared; patched
// reports a boundary re-settle ran for this query.
func (q *query) spanTables(sp Span) (ecs *vct.ECS, hit, patched bool, err error) {
	if q.Cache == nil {
		_, ecs, err := vct.BuildScratchStop(q.G, q.K, sp.Task, q.vs, q.stop)
		return ecs, false, false, err
	}
	if sp.Sealed && sp.Task == sp.Local {
		local, hit, err := q.local(sp)
		if err != nil {
			return nil, false, false, err
		}
		if local != nil {
			return local.Ecs, hit, false, nil
		}
		_, ecs, err := vct.BuildScratchStop(q.G, q.K, sp.Task, q.vs, q.stop)
		return ecs, false, false, err
	}
	key := qcache.Key{Seq: q.G.MutSeq(), K: q.K, W: sp.Task, Algo: qcache.AlgoEnum}
	if q.Cache.Uncacheable(key) {
		// Known-oversize tables: resolve on the scratch, retain nothing.
		_, ecs, patched, err := q.resettle(sp)
		return ecs, false, patched, err
	}
	ent, how, err := q.Cache.GetOrBuild(q.ctx, key, func() (*qcache.Entry, error) {
		began := time.Now()
		ix, ecs, p, err := q.resettle(sp)
		if err != nil {
			return nil, translateStop(q.ctx, err)
		}
		patched = p
		// The tables are backed by the scratch the next span reuses.
		return qcache.NewEntry(ix.Clone(), ecs.Clone(), time.Since(began)), nil
	})
	if err != nil {
		return nil, false, patched, err
	}
	return ent.Ecs, how != qcache.Built, patched, nil
}

// resettle computes a span's tables on the scratch. A sealed span extends
// its shard-local index across the cut by a PatchScratchStop re-settle:
// cached core times at or below the cut are pinned exact, and exactly the
// vertices whose core windows cross the cut re-settle against the suffix.
// The frontier — and a sealed span whose local tables exceed the cache
// budget — builds its task window outright.
func (q *query) resettle(sp Span) (*vct.Index, *vct.ECS, bool, error) {
	if sp.Sealed {
		local, _, err := q.local(sp)
		if err != nil {
			return nil, nil, false, err
		}
		if local != nil {
			return vct.PatchScratchStop(q.G, q.K, sp.Task, local.Ix, sp.Local.End+1, q.vs, q.stop)
		}
	}
	ix, ecs, err := vct.BuildScratchStop(q.G, q.K, sp.Task, q.vs, q.stop)
	return ix, ecs, false, err
}

// local resolves a sealed span's shard-local entry: the CoreTime tables of
// the shard's whole range, built once per (seal, k) under the shard's
// cache key namespace and immune to epoch retirement. A nil entry with a
// nil error means the key is known-oversize.
func (q *query) local(sp Span) (*qcache.Entry, bool, error) {
	key := qcache.Key{Seq: sp.Seq, K: q.K, W: sp.Local, Algo: qcache.AlgoEnum, Shard: uint32(sp.Shard + 1)}
	if q.Cache.Uncacheable(key) {
		return nil, false, nil
	}
	ent, how, err := q.Cache.GetOrBuild(q.ctx, key, func() (*qcache.Entry, error) {
		began := time.Now()
		ix, ecs, err := vct.BuildStop(q.G, q.K, sp.Local, q.stop)
		if err != nil {
			return nil, translateStop(q.ctx, err)
		}
		return qcache.NewEntry(ix, ecs, time.Since(began)), nil
	})
	return ent, how != qcache.Built, err
}

// translateStop converts the engines' ErrStopped into the context's own
// error when cancellation is what fired, matching the public query paths.
func translateStop(ctx context.Context, err error) error {
	if errors.Is(err, vct.ErrStopped) {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
	}
	return err
}
