package main

import (
	"fmt"
	"math"
	"regexp"
	"strings"
)

// metricDecl declares one printed metric. The lists below are the single
// source of the metric set: the self-test holds them equal to
// BENCHMARK.json.
type metricDecl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEndMetrics are printed by every untraced run, on every workload.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"query_tail_ms", "ms", "lower"},
	{"queries_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// layerMetrics are printed by every traced run, on every workload. A
// workload that bypasses a layer prints 0 for it.
var layerMetrics = []metricDecl{
	{"temporalkcore.request_self_ms", "ms", "lower"},
	{"tgraph.build_s", "s", "lower"},
	{"tgraph.append_ms", "ms", "lower"},
	{"vct.build_ms", "ms", "lower"},
	{"vct.builds", "count", "lower"},
	{"vct.patch_ms", "ms", "lower"},
	{"vct.patches", "count", "lower"},
	{"enum.enum_ms", "ms", "lower"},
	{"enum.cores", "count", "higher"},
	{"enum.result_edges", "count", "higher"},
	{"qcache.hits", "count", "higher"},
	{"qcache.misses", "count", "lower"},
	{"qcache.hit_ratio", "ratio", "higher"},
	{"qcache.evictions", "count", "lower"},
	{"qcache.retired", "count", "lower"},
	{"qcache.resident_mb", "MB", "lower"},
	{"shard.query_ms", "ms", "lower"},
	{"shard.spans_per_query", "count", "lower"},
	{"shard.patched_spans", "count", "lower"},
	{"shard.alloc_bytes_per_query", "bytes", "lower"},
	{"shard.overhead_ms", "ms", "lower"},
	{"store.append_ms", "ms", "lower"},
	{"store.wal_bytes_per_edge", "bytes", "lower"},
	{"store.bootstrap_s", "s", "lower"},
	{"serve.query_self_ms", "ms", "lower"},
	{"serve.append_self_ms", "ms", "lower"},
	{"serve.append_p50_ms", "ms", "lower"},
	{"serve.append_tail_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"trace.queries_per_s", "1/s", "higher"},
	{"trace.child_self_share", "ratio", "higher"},
}

// layers are the repository modules a per-layer metric may be named after,
// plus the Go runtime and the tracer itself.
var layers = []string{"temporalkcore", "tgraph", "vct", "enum", "qcache", "shard", "store", "serve", "runtime", "trace"}

var (
	endToEndName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	layerName    = regexp.MustCompile(`^(` + strings.Join(layers, "|") + `)\.[a-z][a-z0-9_]*$`)
	// unitSuffix maps a name suffix to the unit it promises.
	unitSuffix = map[string]string{"_ms": "ms", "_s": "s", "_per_s": "1/s", "_mb": "MB"}
)

// checkName reports whether a declared metric follows the grammar: a
// snake_case name (prefixed by its layer for per-layer metrics) of at
// most 64 characters whose time, rate and size suffix matches its unit.
func checkName(d metricDecl, perLayer bool) error {
	re := endToEndName
	if perLayer {
		re = layerName
	}
	if len(d.Name) > 64 || !re.MatchString(d.Name) {
		return fmt.Errorf("metric %q does not follow the name grammar %s", d.Name, re)
	}
	if d.Better != "lower" && d.Better != "higher" {
		return fmt.Errorf("metric %q: better must be lower or higher, not %q", d.Name, d.Better)
	}
	suffix := ""
	for s := range unitSuffix {
		if strings.HasSuffix(d.Name, s) && len(s) > len(suffix) {
			suffix = s
		}
	}
	if suffix != "" && unitSuffix[suffix] != d.Unit {
		return fmt.Errorf("metric %q ends in %s but has unit %q", d.Name, suffix, d.Unit)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// collect maps values onto the declared metrics. Every value must be
// declared. An end-to-end metric must be present, finite and non-zero; a
// per-layer metric the workload did not set is 0, its layer bypassed.
func collect(decls []metricDecl, values map[string]float64, perLayer bool) (map[string]metricValue, error) {
	declared := map[string]bool{}
	out := map[string]metricValue{}
	for _, d := range decls {
		declared[d.Name] = true
		v, ok := values[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		if !perLayer && (!ok || v == 0) {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range values {
		if !declared[name] {
			return nil, fmt.Errorf("metric %s is not declared", name)
		}
	}
	return out, nil
}
