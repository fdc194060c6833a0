// Command perfbench is the repository's end-to-end benchmark: a
// single-process, closed-loop harness with one client that replays a
// seeded operation sequence against the library, the serving handler and
// the sharded runtime. See README.md for the workloads, the metrics and
// how to run it; run.py is the entry point that builds this program,
// generates the inputs and measures them.
//
//	perfbench gen -workload range-count -seed 1 -seconds 10 -out DIR
//	perfbench run -workload range-count -seed 1 -seconds 10 -trace 0 -inputs DIR -work DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"temporalkcore/internal/tgraph"
)

// workload is one closed-loop traffic mix; README.md says why each
// exists.
type workload struct {
	name string
	gen  func(seed int64, seconds int) (*genOutput, error)
	run  func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{"range-count", genRangeCount, runRangeCount},
	{"ingest-serve", genIngestServe, runIngestServe},
	{"sharded-count", genShardedCount, runShardedCount},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genOutput is a generated workload: its edge list and its plan.
type genOutput struct {
	graph *tgraph.Graph
	plan  *plan
}

// runCtx is what a workload's measured run receives.
type runCtx struct {
	plan  *plan
	edges string  // path of the edge file
	work  string  // directory for the run's own files
	tr    *tracer // nil when untraced
}

// outcome is what a workload's measured run reports.
type outcome struct {
	setupS    []float64 // one per set-up repetition
	queryMS   []float64 // one per query operation
	loop      time.Duration
	peakMB    float64
	attempted int
	failed    map[int]string // op index -> first failure
	layer     map[string]float64
}

func (o *outcome) fail(i int, format string, args ...any) {
	if o.failed == nil {
		o.failed = map[int]string{}
	}
	if _, ok := o.failed[i]; !ok {
		o.failed[i] = fmt.Sprintf(format, args...)
	}
}

// peakMeter measures the resident-memory peak phase by phase. Each set-up
// repetition and each of the loop's peakBlocks blocks of operations is
// one interval of VmHWM, restarted through /proc/self/clear_refs. The
// reported peak is the larger of the median set-up peak and the median
// block peak: one interval's garbage-collector overshoot does not set it.
type peakMeter struct {
	setup, loop []float64
}

// peakBlocks is how many intervals the loop's peak is measured over.
const peakBlocks = 5

// restart begins a new VmHWM interval at the current resident size.
func (m *peakMeter) restart() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("restarting the resident peak: %w", err)
	}
	return nil
}

// startSetup collects the previous set-up's garbage and returns it to
// the OS, so repetitions start alike, then begins the set-up's interval.
func (m *peakMeter) startSetup() error {
	debug.FreeOSMemory()
	return m.restart()
}

func (m *peakMeter) endSetup() error {
	pk, err := peakRSSMB()
	m.setup = append(m.setup, pk)
	return err
}

func (m *peakMeter) peak() float64 { return max(median(m.setup), median(m.loop)) }

// loopClock times a workload's closed loop of n operations. It forces a
// GC before the loop starts, excludes the output checks run inside the
// loop (pause), measures the loop's resident peak in blocks, and records
// the Go runtime's allocation and GC counters over the loop.
type loopClock struct {
	start   time.Time
	paused  time.Duration
	allocs0 uint64
	pausedA uint64
	ms0     runtime.MemStats
	peaks   *peakMeter
	block   int
}

func startLoop(n int, peaks *peakMeter) (*loopClock, error) {
	debug.FreeOSMemory()
	c := &loopClock{peaks: peaks, block: max(1, (n+peakBlocks-1)/peakBlocks)}
	if err := peaks.restart(); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&c.ms0)
	c.allocs0 = heapAllocs()
	c.start = time.Now()
	return c, nil
}

// next is called before operation i; it closes a peak block every
// c.block operations, off the clock.
func (c *loopClock) next(i int) error {
	if i == 0 || i%c.block != 0 {
		return nil
	}
	defer c.pause()()
	return c.endBlock()
}

func (c *loopClock) endBlock() error {
	pk, err := peakRSSMB()
	if err != nil {
		return err
	}
	c.peaks.loop = append(c.peaks.loop, pk)
	return c.peaks.restart()
}

// pause stops the clock until the returned function is called.
func (c *loopClock) pause() (resume func()) {
	t, a := time.Now(), heapAllocs()
	return func() {
		c.pausedA += heapAllocs() - a
		c.paused += time.Since(t)
	}
}

// stop ends the loop and stores its duration, resident peak and runtime
// counters in o.
func (c *loopClock) stop(o *outcome) error {
	o.loop = time.Since(c.start) - c.paused
	allocs := heapAllocs() - c.allocs0 - c.pausedA
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	if err := c.endBlock(); err != nil {
		return err
	}
	o.peakMB = c.peaks.peak()
	if o.layer == nil {
		o.layer = map[string]float64{}
	}
	o.layer["runtime.alloc_bytes_per_op"] = float64(allocs) / float64(max(1, o.attempted))
	o.layer["runtime.gc_cycles"] = float64(ms1.NumGC - c.ms0.NumGC)
	o.layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-c.ms0.PauseTotalNs) / 1e6
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocs is the cumulative count of heap-allocated bytes.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: perfbench gen|run [flags]")
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	default:
		err = fmt.Errorf("unknown command %q (want gen or run)", os.Args[1])
	}
	if err != nil {
		log.Fatal(err)
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "operation seed")
	seconds := fs.Int("seconds", 10, "planned run length; sets the operation count")
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *out == "" || *seconds < 1 {
		return fmt.Errorf("gen needs -out and -seconds >= 1")
	}
	g, err := w.gen(*seed, *seconds)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	sum, err := writeInputs(*out, g.graph, g.plan)
	if err != nil {
		return fmt.Errorf("%s: writing inputs: %w", w.name, err)
	}
	log.Printf("generated %s seed=%d ops=%d inputs=sha256:%s", w.name, *seed, len(g.plan.Ops), sum)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "operation seed (must match the generated inputs)")
	seconds := fs.Int("seconds", 10, "planned run length (must match the generated inputs)")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	inputs := fs.String("inputs", "", "directory written by gen")
	work := fs.String("work", "", "directory for the run's data directories and trace")
	commit := fs.String("commit", "unknown", "source commit, recorded with the environment")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	env := startEnvironment(*commit)

	p, sum, err := loadPlan(*inputs)
	if err != nil {
		return err
	}
	if p.Workload != w.name || p.Seed != *seed || p.Seconds != *seconds {
		return fmt.Errorf("inputs are for %s seed %d seconds %d, not %s seed %d seconds %d",
			p.Workload, p.Seed, p.Seconds, w.name, *seed, *seconds)
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		return err
	}
	rc := &runCtx{plan: p, edges: filepath.Join(*inputs, edgesFile), work: *work}
	if *trace == 1 {
		rc.tr = newTracer(4 * len(p.Ops))
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d ops=%d inputs=sha256:%s\n",
		w.name, *seed, *seconds, *trace, len(p.Ops), sum)
	o, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	env.finish()
	fmt.Println(env)
	res, err := summarize(o, rc.tr)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	if rc.tr != nil {
		path := filepath.Join(*work, "trace-"+w.name+".jsonl")
		if err := rc.tr.write(path); err != nil {
			return err
		}
		fmt.Printf("trace spans=%d file=%s\n", len(rc.tr.spans), path)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// summarize turns an outcome into the printed result: the end-to-end
// metrics untraced, the per-layer metrics traced. It prints the tail
// percentile, the failure ratio and every metric by name and unit on
// their own lines before the result line.
func summarize(o *outcome, tr *tracer) (*result, error) {
	res := &result{Attempted: o.attempted, Failed: len(o.failed)}
	res.Correct = res.Failed == 0
	idx := make([]int, 0, len(o.failed))
	for i := range o.failed {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for n, i := range idx {
		if n == 5 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed operations\n", len(idx)-n)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: operation %d failed: %s\n", i, o.failed[i])
	}
	fmt.Printf("failed_ops_ratio %g ratio (%d of %d operations)\n",
		float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted)

	qps := float64(len(o.queryMS)) / o.loop.Seconds()
	var decls []metricDecl
	var values map[string]float64
	if tr == nil {
		t, ok := tailOf(o.queryMS)
		if !ok {
			return nil, fmt.Errorf("%d queries are too few for a tail percentile", len(o.queryMS))
		}
		fmt.Printf("query_tail_ms percentile=%s samples=%d beyond=%d\n", pctName(t.Pct), t.Samples, t.Beyond)
		decls = endToEndMetrics
		values = map[string]float64{
			"setup_s":       median(o.setupS),
			"query_p50_ms":  median(o.queryMS),
			"query_tail_ms": t.Value,
			"queries_per_s": qps,
			"peak_rss_mb":   o.peakMB,
		}
	} else {
		decls = layerMetrics
		values = o.layer
		values["trace.queries_per_s"] = qps
		values["trace.child_self_share"] = tr.childSelfShare()
	}
	m, err := collect(decls, values, tr != nil)
	if err != nil {
		return nil, err
	}
	for _, d := range decls {
		fmt.Printf("metric %s %g %s\n", d.Name, m[d.Name].Value, d.Unit)
	}
	res.Metrics = m
	return res, nil
}
