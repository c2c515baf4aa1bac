package main

import (
	"os"
	"strconv"
	"strings"
)

// metricDef mirrors one entry of BENCHMARK.json; the smoke test holds
// the two in step. bound is the relative worsening that counts as a
// regression (end-to-end metrics only).
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the system sees. failed_ops_share is not
// among them because its healthy value is exactly 0, which no relative
// bound can be set on: every run reports attempted and failed ops beside
// the metrics, and any failed op fails the run.
//
// The bounds are what the 2-core shared sandbox supports (README.md,
// "End-to-end metrics"): every timing sits at the contract's ceiling
// because the host itself drifts by more than a tighter bound.
var endToEnd = []metricDef{
	{"wm_changes_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_p99_ms", "ms", "lower", 0.25},
	{"session_start_mean_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_kchange", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the traced pass, one block per module. README.md says
// which end-to-end metric each should move and on which workload.
var perLayer = []metricDef{
	{name: "client.self_us_p50", unit: "us", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
	{name: "trace.self_sum_share", unit: "ratio", better: "higher"},

	{name: "cluster.proxy_self_us_p50", unit: "us", better: "lower"},
	{name: "cluster.hop_us_p50", unit: "us", better: "lower"},
	{name: "cluster.create_self_us_p50", unit: "us", better: "lower"},
	{name: "cluster.program_cache_hit_rate", unit: "ratio", better: "higher"},
	{name: "cluster.retries", unit: "count", better: "lower"},
	{name: "cluster.reroutes", unit: "count", better: "lower"},
	{name: "cluster.backend_skew", unit: "ratio", better: "lower"},

	{name: "server.handler_self_us_p50", unit: "us", better: "lower"},
	{name: "server.engine_us_p50", unit: "us", better: "lower"},
	{name: "server.batch_overhead_us_p50", unit: "us", better: "lower"},
	{name: "server.create_ms_p50", unit: "ms", better: "lower"},
	{name: "server.fork_ms_p50", unit: "ms", better: "lower"},
	{name: "server.req_bytes_per_op", unit: "B", better: "lower"},
	{name: "server.resp_bytes_per_op", unit: "B", better: "lower"},
	{name: "server.program_compiles", unit: "count", better: "lower"},
	{name: "server.request_errors", unit: "count", better: "lower"},

	{name: "engine.run_us_per_cycle", unit: "us", better: "lower"},
	{name: "engine.nonmatch_share", unit: "ratio", better: "lower"},
	{name: "engine.rhs_instr_per_cycle", unit: "count", better: "lower"},
	{name: "engine.wm_changes_per_cycle", unit: "count", better: "lower"},
	{name: "engine.init_ms", unit: "ms", better: "lower"},

	{name: "seqmatch.match_share", unit: "ratio", better: "lower"},
	{name: "seqmatch.us_per_activation", unit: "us", better: "lower"},
	{name: "seqmatch.activations_per_wm_change", unit: "count", better: "lower"},
	{name: "seqmatch.opp_examined_per_act", unit: "count", better: "lower"},
	{name: "seqmatch.same_examined_per_delete", unit: "count", better: "lower"},
	{name: "seqmatch.const_tests_per_wm_change", unit: "count", better: "lower"},

	{name: "parmatch.match_share", unit: "ratio", better: "lower"},
	{name: "parmatch.us_per_activation", unit: "us", better: "lower"},
	{name: "parmatch.speedup_vs_vs2", unit: "ratio", better: "higher"},
	{name: "parmatch.cpu_per_wall", unit: "ratio", better: "lower"},
	{name: "taskqueue.spins_per_acquire", unit: "count", better: "lower"},
	{name: "taskqueue.steal_share", unit: "ratio", better: "lower"},
	{name: "taskqueue.overflow_share", unit: "ratio", better: "lower"},
	{name: "hashmem.line_spins_per_acquire", unit: "count", better: "lower"},
	{name: "hashmem.max_line_depth", unit: "count", better: "lower"},
	{name: "hashmem.resizes", unit: "count", better: "lower"},

	{name: "conflict.select_scanned_per_select", unit: "count", better: "lower"},
	{name: "conflict.shard_spins_per_acquire", unit: "count", better: "lower"},
	{name: "conflict.annihilation_share", unit: "ratio", better: "lower"},

	{name: "ops5.parse_ms", unit: "ms", better: "lower"},
	{name: "rete.compile_ms", unit: "ms", better: "lower"},
	{name: "rete.join_nodes", unit: "count", better: "lower"},

	{name: "wmlog.records_per_op", unit: "count", better: "lower"},
	{name: "wmlog.bytes_per_wm_change", unit: "B", better: "lower"},
	{name: "wmlog.fsyncs_per_op", unit: "count", better: "lower"},
	{name: "wmlog.fsync_us_mean", unit: "us", better: "lower"},
	{name: "wmlog.snapshot_bytes_mean", unit: "B", better: "lower"},
	{name: "wmlog.append_us_per_record", unit: "us", better: "lower"},
	{name: "wmlog.recover_ms", unit: "ms", better: "lower"},
}

// values is a pass's metrics by name; a name never set reads 0, which
// is what a layer the workload bypasses must report.
type values map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(v []int64) float64 {
	var sum int64
	for _, x := range v {
		sum += x
	}
	return ratio(float64(sum), float64(len(v)))
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// endToEndValues turns the untraced window into the end-to-end metrics.
// samples records how many observations stand behind each percentile.
func endToEndValues(w *window, setupS float64, samples map[string]int) values {
	ops := sortedCopy(w.rec.opNs)
	tail := tailPercentile(len(ops))
	samples["op"] = len(ops)
	samples["session_start"] = len(w.rec.startNs)
	// op_p99_ms is the p99 whenever at least ten ops lie beyond it (1000
	// ops); a run too short for that reports the highest percentile it
	// can support and says which.
	samples["op_tail_percentile"] = int(tail * 100)
	changes := float64(w.rec.changes)
	return values{
		"wm_changes_per_s":      ratio(changes, w.wall.Seconds()),
		"op_p50_ms":             ms(float64(percentile(ops, 0.50))),
		"op_p99_ms":             ms(float64(percentile(ops, tail))),
		"session_start_mean_ms": ms(mean(w.rec.startNs)),
		"cpu_ms_per_kchange":    ratio(ms(float64(w.cpu))*1000, changes),
		"peak_rss_mb":           peakRSSMB(),
		"setup_s":               setupS,
	}
}

// peakRSSMB reads the process's resident-set high-water mark. Each run
// is its own process, so the peak belongs to one workload.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
