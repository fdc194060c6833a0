package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	tkc "temporalkcore"
	"temporalkcore/internal/core"
	"temporalkcore/internal/serve"
	"temporalkcore/internal/store"
	"temporalkcore/internal/tgraph"
)

// ingest-serve: the served tier with writes beside reads. The first 90%
// of EM (in time order) is bootstrapped into a durable data directory
// and served by serve.Server through its in-process handler; the loop
// appends 200 held-back edges every 20 point queries. Every append mints
// an epoch, so each of the 4 trailing windows misses the serving cache
// once per cycle and rebuilds its CoreTime tables.
const (
	ingestDataset   = "EM"
	ingestBootPct   = 90
	ingestCycleRate = 5   // planned append+query cycles per second of --seconds
	ingestBatch     = 200 // edges per append
	ingestQueries   = 20  // queries per append
	ingestWindows   = 4   // trailing windows per cycle
	ingestWidthPct  = 2   // window length as a percentage of the time span
	ingestKPct      = 30
	ingestChecks    = 16 // point answers re-derived in process
	ingestSetupReps = 3  // each set-up writes a fresh data directory
)

func genIngestServe(seed int64, seconds int) (*genOutput, error) {
	g, kmax, err := replica(ingestDataset)
	if err != nil {
		return nil, err
	}
	m := g.NumEdges()
	boot := m * ingestBootPct / 100
	cycles := seconds * ingestCycleRate
	if need := boot + cycles*ingestBatch; need > m {
		return nil, fmt.Errorf("%d seconds need %d held-back edges; the replica holds %d (at most %d seconds)",
			seconds, need-boot, m-boot, (m-boot)/ingestBatch/ingestCycleRate)
	}
	lo, hi := g.RawWindow(g.FullWindow())
	width := (hi - lo) * ingestWidthPct / 100
	r := rand.New(rand.NewSource(seed))
	var offsets [ingestWindows]int64
	for j := range offsets {
		offsets[j] = int64((float64(j) + r.Float64()) * float64(width) / ingestWindows)
	}
	p := &plan{Workload: "ingest-serve", Seed: seed, Seconds: seconds, Dataset: ingestDataset,
		KMax: kmax, K: kOf(kmax, ingestKPct), Bootstrap: boot}
	for c := 0; c < cycles; c++ {
		a := op{Kind: "append", Lo: boot + c*ingestBatch, Hi: boot + (c+1)*ingestBatch}
		p.Ops = append(p.Ops, a)
		// The windows trail the frontier the append just moved.
		frontier := g.RawTime(g.Edge(tgraph.EID(a.Hi - 1)).T)
		first := len(p.Windows)
		for _, off := range offsets {
			end := frontier - off
			p.Windows = append(p.Windows, [2]int64{end - width + 1, end})
		}
		for q := 0; q < ingestQueries; q++ {
			p.Ops = append(p.Ops, op{Kind: "query", W: first + r.Intn(ingestWindows)})
		}
	}
	var queries []int
	for i, o := range p.Ops {
		if o.Kind == "query" {
			queries = append(queries, i)
		}
	}
	for _, j := range sample(r, len(queries), ingestChecks) {
		p.Check = append(p.Check, queries[j])
	}
	return &genOutput{graph: g, plan: p}, nil
}

// recorder is the ResponseWriter the benchmark hands the server's
// handler. It also notes the handler's last header access before the body
// and its first body write: the query handler sets
// its headers immediately before it executes the request, and the body
// reaches the writer only when the execution has finished, so the
// interval between the two is the engine's share of the handler.
type recorder struct {
	hdr               http.Header
	code              int
	body              bytes.Buffer
	headerAt, writeAt time.Time
}

func (r *recorder) reset() {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
	r.headerAt, r.writeAt = time.Time{}, time.Time{}
}

func (r *recorder) Header() http.Header {
	if r.writeAt.IsZero() {
		r.headerAt = time.Now()
	}
	return r.hdr
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.writeAt.IsZero() {
		r.writeAt = time.Now()
	}
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(b)
}

// servedCore is the first line of a point-query response.
type servedCore struct {
	Start    int64   `json:"start"`
	End      int64   `json:"end"`
	Vertices []int64 `json:"vertices"`
}

type queryTrailer struct {
	Stats *struct {
		Cores       int64 `json:"cores"`
		ResultEdges int64 `json:"resultEdges"`
		Epoch       int64 `json:"epoch"`
		CacheHit    bool  `json:"cacheHit"`
	} `json:"stats"`
}

// parseQuery splits a point-query response into its optional core line
// and its stats trailer.
func parseQuery(body []byte) (*servedCore, *queryTrailer, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var tr queryTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil || tr.Stats == nil {
		return nil, nil, fmt.Errorf("no stats trailer in %q", body)
	}
	if len(lines) == 1 {
		return nil, &tr, nil
	}
	var c servedCore
	if err := json.Unmarshal(lines[0], &c); err != nil {
		return nil, nil, fmt.Errorf("bad core line %q: %w", lines[0], err)
	}
	return &c, &tr, nil
}

// firstCore is an enum.Sink that keeps the first emitted core as a served
// core and stops.
type firstCore struct {
	g     *tgraph.Graph
	found *servedCore
}

func (s *firstCore) Emit(tti tgraph.Window, eids []tgraph.EID) bool {
	c := &servedCore{}
	c.Start, c.End = s.g.RawWindow(tti)
	for _, e := range eids {
		te := s.g.Edge(e)
		c.Vertices = append(c.Vertices, s.g.Label(te.U), s.g.Label(te.V))
	}
	slices.Sort(c.Vertices)
	c.Vertices = slices.Compact(c.Vertices)
	s.found = c
	return false
}

// ingestServer is one set-up of the workload: a bootstrapped data
// directory and the server over it.
type ingestServer struct {
	dir string
	dg  *tkc.DurableGraph
	srv *serve.Server
}

func (s *ingestServer) close() {
	s.dg.Close()
	os.RemoveAll(s.dir)
}

func runIngestServe(rc *runCtx) (*outcome, error) {
	p, tr := rc.plan, rc.tr
	o := &outcome{layer: map[string]float64{}}

	// Request bodies are encoded before set-up: a client's encoding is not
	// the server's work.
	allEdges, err := loadEdges(rc.edges)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(p.Ops))
	queryBody := map[int][]byte{}
	for i, op := range p.Ops {
		switch op.Kind {
		case "append":
			var b []byte
			for _, e := range allEdges[op.Lo:op.Hi] {
				b = strconv.AppendInt(b, e.U, 10)
				b = append(b, ' ')
				b = strconv.AppendInt(b, e.V, 10)
				b = append(b, ' ')
				b = strconv.AppendInt(b, e.Time, 10)
				b = append(b, '\n')
			}
			bodies[i] = b
		case "query":
			if queryBody[op.W] == nil {
				w := p.Windows[op.W]
				queryBody[op.W] = []byte(fmt.Sprintf(`{"k":%d,"start":%d,"end":%d,"earlyStop":1,"project":"vertices"}`, p.K, w[0], w[1]))
			}
			bodies[i] = queryBody[op.W]
		}
	}
	allEdges = nil

	var cur *ingestServer
	var boots []float64
	var peaks peakMeter
	for i := 0; i < ingestSetupReps; i++ {
		if cur != nil {
			cur.close()
			cur = nil
		}
		if err := peaks.startSetup(); err != nil {
			return nil, err
		}
		dir := filepath.Join(rc.work, fmt.Sprintf("data-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		edges, err := loadEdges(rc.edges)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		dg, err := tkc.OpenDir(dir)
		if err != nil {
			return nil, err
		}
		if _, err := dg.Bootstrap(edges[:p.Bootstrap]); err != nil {
			return nil, err
		}
		t2 := time.Now()
		cur = &ingestServer{dir: dir, dg: dg, srv: serve.New(serve.Config{Durable: dg})}
		o.setupS = append(o.setupS, time.Since(t0).Seconds())
		if err := peaks.endSetup(); err != nil {
			return nil, err
		}
		boots = append(boots, t2.Sub(t1).Seconds())
	}
	defer cur.close()
	g := cur.dg.Graph()
	bootEdges := g.NumEdges()

	// Traced runs time the append's layers on twins fed the same batches:
	// a second store (WAL and graph) and a bare graph.
	var twinStore *store.Store
	var twinGraph *tgraph.Graph
	var twinBatches [][]tgraph.RawEdge
	var twinBuild float64
	if tr != nil {
		edges, err := loadEdges(rc.edges)
		if err != nil {
			return nil, err
		}
		raw := make([]tgraph.RawEdge, len(edges))
		for i, e := range edges {
			raw[i] = tgraph.RawEdge{U: e.U, V: e.V, Time: e.Time}
		}
		t0 := time.Now()
		if twinGraph, err = tgraph.FromRawEdges(raw[:p.Bootstrap]); err != nil {
			return nil, err
		}
		twinBuild = time.Since(t0).Seconds()
		twinDir := filepath.Join(rc.work, "twin")
		os.RemoveAll(twinDir)
		if twinStore, err = store.Open(twinDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(twinDir)
		defer twinStore.Close()
		if _, err := twinStore.Bootstrap(raw[:p.Bootstrap]); err != nil {
			return nil, err
		}
		twinBatches = make([][]tgraph.RawEdge, len(p.Ops))
		for i, op := range p.Ops {
			if op.Kind == "append" {
				twinBatches[i] = raw[op.Lo:op.Hi]
			}
		}
	}
	walBefore, err := dirBytes(cur.dir)
	if err != nil {
		return nil, err
	}
	stats0 := g.CacheStats()

	h := cur.srv.Handler()
	rec := &recorder{hdr: http.Header{}}
	ctx := context.Background()
	check := map[int]bool{}
	for _, i := range p.Check {
		check[i] = true
	}
	var appendMS []float64
	var engineHit, engineMiss []float64
	var acked, cores, resultEdges int64
	clock, err := startLoop(len(p.Ops), &peaks)
	if err != nil {
		return nil, err
	}
	for i, op := range p.Ops {
		if err := clock.next(i); err != nil {
			return nil, err
		}
		path := "/v1/query"
		if op.Kind == "append" {
			path = "/v1/append"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(bodies[i]))
		if err != nil {
			return nil, err
		}
		rec.reset()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		o.attempted++
		if op.Kind == "append" {
			appendMS = append(appendMS, ms(t1.Sub(t0)))
			tr.add("serve.Handler/v1/append", i, -1, t0, t1)
			if rec.code != http.StatusOK {
				o.fail(i, "append: HTTP %d: %s", rec.code, bytes.TrimSpace(rec.body.Bytes()))
				continue
			}
			var ack struct{ Added int64 }
			if err := json.Unmarshal(rec.body.Bytes(), &ack); err != nil {
				o.fail(i, "append: %v", err)
				continue
			}
			acked += ack.Added
			if tr != nil {
				batch := twinBatches[i]
				s0 := time.Now()
				_, err1 := twinStore.Append(batch)
				s1 := time.Now()
				_, err2 := twinGraph.Append(batch)
				s2 := time.Now()
				if err1 != nil || err2 != nil {
					return nil, fmt.Errorf("twin append: %v, %v", err1, err2)
				}
				tr.add("store.Store.Append", i, -1, s0, s1)
				tr.add("tgraph.Graph.Append", i, -1, s1, s2)
			}
			continue
		}

		o.queryMS = append(o.queryMS, ms(t1.Sub(t0)))
		if rec.code != http.StatusOK {
			o.fail(i, "query: HTTP %d: %s", rec.code, bytes.TrimSpace(rec.body.Bytes()))
			continue
		}
		sc, tl, err := parseQuery(rec.body.Bytes())
		if err != nil {
			o.fail(i, "query: %v", err)
			continue
		}
		cores += tl.Stats.Cores
		resultEdges += tl.Stats.ResultEdges
		if tr != nil {
			sp := tr.add("serve.Handler/v1/query", i, -1, t0, t1)
			if !rec.headerAt.IsZero() {
				tr.add("temporalkcore.Request.WriteTo", i, sp, rec.headerAt, rec.writeAt)
				d := ms(rec.writeAt.Sub(rec.headerAt))
				if tl.Stats.CacheHit {
					engineHit = append(engineHit, d)
				} else {
					engineMiss = append(engineMiss, d)
				}
			}
		}
		if check[i] {
			resume := clock.pause()
			if err := checkPoint(g, p, op, sc, tl); err != nil {
				o.fail(i, "%v", err)
			}
			resume()
		}
	}
	if err := clock.stop(o); err != nil {
		return nil, err
	}
	stats1 := g.CacheStats()
	walAfter, err := dirBytes(cur.dir)
	if err != nil {
		return nil, err
	}

	// Durability check: a reopened data directory holds every
	// acknowledged edge.
	served := g.NumEdges()
	if int64(served) != int64(bootEdges)+acked {
		o.fail(len(p.Ops)-1, "served graph holds %d edges, bootstrap %d + acknowledged %d", served, bootEdges, acked)
	}
	if err := cur.dg.Close(); err != nil {
		return nil, err
	}
	re, err := tkc.OpenDir(cur.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if re.Graph() == nil || re.Graph().NumEdges() != served {
		got := 0
		if re.Graph() != nil {
			got = re.Graph().NumEdges()
		}
		o.fail(len(p.Ops)-1, "reopened data directory holds %d edges, served %d", got, served)
	}
	re.Close()

	if tr != nil {
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
		o.layer["vct.builds"] = misses
		// A miss differs from a hit by the CoreTime build, so the build's
		// cost is the engine time a miss pays beyond a hit's.
		o.layer["vct.build_ms"] = mean(engineMiss) - mean(engineHit)
		o.layer["enum.enum_ms"] = mean(engineHit)
		o.layer["enum.cores"] = float64(cores)
		o.layer["enum.result_edges"] = float64(resultEdges)
		spans := tr.byName()
		o.layer["serve.query_self_ms"] = spans["serve.Handler/v1/query"].meanSelfMS()
		o.layer["store.append_ms"] = spans["store.Store.Append"].meanMS()
		o.layer["serve.append_self_ms"] = spans["serve.Handler/v1/append"].meanMS() - spans["store.Store.Append"].meanMS()
		o.layer["tgraph.append_ms"] = spans["tgraph.Graph.Append"].meanMS()
		o.layer["tgraph.build_s"] = twinBuild
		o.layer["store.bootstrap_s"] = median(boots)
		if acked > 0 {
			o.layer["store.wal_bytes_per_edge"] = float64(walAfter-walBefore) / float64(acked)
		}
		o.layer["serve.append_p50_ms"] = median(appendMS)
		if t, ok := tailOf(appendMS); ok {
			o.layer["serve.append_tail_ms"] = t.Value
			fmt.Printf("serve.append_tail_ms percentile=%s samples=%d beyond=%d\n", pctName(t.Pct), t.Samples, t.Beyond)
		}
	}
	return o, nil
}

// checkPoint re-derives a served point answer in process: the first core
// the Enum engine emits on the same epoch, computed without the serving
// cache, must equal the served one.
func checkPoint(g *tkc.Graph, p *plan, op op, got *servedCore, tl *queryTrailer) error {
	snap := g.Latest()
	if snap.Seq() != tl.Stats.Epoch {
		return fmt.Errorf("served epoch %d, latest is %d", tl.Stats.Epoch, snap.Seq())
	}
	w := p.Windows[op.W]
	tg := snap.Internal()
	cw, ok := tg.CompressRange(w[0], w[1])
	sink := &firstCore{g: tg}
	if ok {
		if _, err := core.Query(tg, p.K, cw, sink, core.Options{}); err != nil {
			return fmt.Errorf("in-process check [%d,%d]: %w", w[0], w[1], err)
		}
	}
	want := sink.found
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("window [%d,%d]: served core %v, in process %v", w[0], w[1], got, want)
	case got != nil && (got.Start != want.Start || got.End != want.End || !slices.Equal(got.Vertices, want.Vertices)):
		return fmt.Errorf("window [%d,%d]: served core [%d,%d] with %d vertices, in process [%d,%d] with %d",
			w[0], w[1], got.Start, got.End, len(got.Vertices), want.Start, want.End, len(want.Vertices))
	}
	return nil
}

// dirBytes is the total size of the files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
