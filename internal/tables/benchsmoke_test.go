package tables

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// baselinePath is the checked-in regression baseline for `make
// bench-smoke` (repo root, next to BENCH_match.json).
const baselinePath = "../../BENCH_baseline.json"

// benchBaseline is the BENCH_baseline.json schema. Wall-clock numbers
// are useless as CI gates on shared hosts, so the smoke test checks
// host-independent invariants instead: scaling ratios (conflict-set op
// cost must not grow with the live-set size) and allocation discipline
// (allocs/op of the match kernels and conflict ops are deterministic
// properties of the code, not the machine).
type benchBaseline struct {
	// MaxChurnRatio bounds churn ns/op at live=10000 over live=1000:
	// O(1) insert+remove means ~1.0; the old O(n) scans put it near 10.
	MaxChurnRatio float64 `json:"max_churn_ratio"`
	// MaxSelectRatio bounds warm Select ns/op at live=10000 over
	// live=1000: cached partition bests mean ~1.0; the old full scan put
	// it near 10.
	MaxSelectRatio float64 `json:"max_select_ratio"`
	// MaxChurnAllocs caps steady-state allocs per churn op (pooled
	// instantiations make it 0).
	MaxChurnAllocs int64 `json:"max_churn_allocs_per_op"`
	// KernelAllocs maps "kernel/pN" to baseline allocs/op of one
	// assert-all/retract-all round; the gate allows 25%+2 headroom.
	KernelAllocs map[string]int64 `json:"kernel_allocs_per_op"`
	// MaxKernelAllocsReal caps the same rounds' allocs/op at the host's
	// real concurrency (a quarter of the entries the largest round
	// inserts).
	MaxKernelAllocsReal int64 `json:"max_kernel_allocs_per_op_real"`
	// MaxBigmemOppPerPair bounds the segregated layout's selectivity on
	// the bigmem kernel: opposite-memory tokens examined per emitted
	// pair. The (node, hash) runs make this ~1.0; a broken sub-index
	// falls back toward the whole-line scan and blows past it.
	MaxBigmemOppPerPair float64 `json:"max_bigmem_opp_per_pair"`
	// MinBigmemGain is the minimum list/runs ratio of opposite-memory
	// tokens examined on the same bigmem workload — the line-scan work
	// the segregated layout must eliminate.
	MinBigmemGain float64 `json:"min_bigmem_gain"`
	// MaxBigmemDepth caps the segregated table's high-water line depth:
	// adaptive growth must keep lines shallow as the WM climbs.
	MaxBigmemDepth int64 `json:"max_bigmem_line_depth"`
	// MinSkewGain is the minimum source/planned ratio of opposite-memory
	// tokens examined on the skewed-value join kernel. The join-order
	// planner moves the constant-tested conf element ahead of the skewed
	// item x part join, so the ratio is a structural property of the
	// compiled order (measured ~14x); falling under the floor means the
	// planner stopped reordering or the reordered network re-grew the
	// cross-like token memory.
	MinSkewGain float64 `json:"min_skew_gain"`
	// MinCrossContainment is the minimum unbudgeted/budgeted ratio of
	// opposite-memory tokens examined on the no-equality-test cross
	// product kernel. The match budget quarantines the quadratic rule on
	// its first over-budget cycle, so a collapse toward 1 means the
	// budget stopped tripping (measured ~400x).
	MinCrossContainment float64 `json:"min_cross_containment"`
	// MaxChainNullActRatio caps unlinked/linked buffered activations on
	// the gated dependent-chain kernel: with the head gate closed, every
	// right activation into the chain is a null update that unlinking
	// must avoid outright (measured ~0.11).
	MaxChainNullActRatio float64 `json:"max_chain_null_act_ratio"`
	// MinChainUnlinkSkips is the minimum unlink-skip count on the same
	// gated chain run — the activations the dead joins never saw.
	MinChainUnlinkSkips int64 `json:"min_chain_unlink_skips"`
	// MinClusterScalingX2 is the minimum 2-backend/1-backend aggregate
	// batches/sec ratio on the cluster sweep's best workload. Only
	// enforced when the host has enough CPUs for the fleet
	// (ClusterReport.Oversubscribed false); on a starved host the ratio
	// measures timesharing, not the fabric, and the gate skips.
	MinClusterScalingX2 float64 `json:"min_cluster_scaling_x2"`
	// MinClusterCacheHitRate is the minimum content-addressed program
	// cache hit rate over the multi-backend cells: every session after
	// the first per backend must create by hash without re-shipping or
	// recompiling the source. Structural — a drop means the proxy
	// stopped tracking which backends hold which hashes.
	MinClusterCacheHitRate float64 `json:"min_cluster_cache_hit_rate"`
	// MinForkSpeedup is the minimum fork-vs-cold session-spawn ratio
	// (time to a served first WM batch). Forking a warm template
	// structure-copies its state and skips parse, network compile, RHS
	// compile and the base-fact match, so the ratio is a structural
	// property — losing the copy-on-write fast path (falling back to a
	// re-match) collapses it toward 1. Measured ~10-25x; gated well
	// below to absorb shared-host noise.
	MinForkSpeedup float64 `json:"min_fork_speedup"`
}

// TestBenchSmoke is the `make bench-smoke` gate: a 1-rep match-kernel +
// conflict sweep that fails on regression against BENCH_baseline.json.
// Skipped unless BENCH_SMOKE is set (it costs ~1 minute);
// BENCH_SMOKE=update rewrites the baseline from measurement instead of
// checking.
func TestBenchSmoke(t *testing.T) {
	mode := os.Getenv("BENCH_SMOKE")
	if mode == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	var base benchBaseline
	if mode != "update" {
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			t.Fatalf("read baseline (regenerate with BENCH_SMOKE=update): %v", err)
		}
		if err := json.Unmarshal(data, &base); err != nil {
			t.Fatalf("parse baseline: %v", err)
		}
	}

	ns := map[string]int64{}
	for _, p := range RunConflictBench(1000, 10000) {
		ns[fmt.Sprintf("%s/live%d", p.Op, p.Live)] = p.NsPerOp
		t.Logf("conflict %s", FormatConflictPoint(p))
		if mode != "update" && p.Op == "churn" && p.AllocsPerOp > base.MaxChurnAllocs {
			t.Errorf("churn live=%d: %d allocs/op, baseline cap %d", p.Live, p.AllocsPerOp, base.MaxChurnAllocs)
		}
	}
	ratio := func(op string) float64 {
		lo, hi := ns[op+"/live1000"], ns[op+"/live10000"]
		if lo == 0 {
			return 0
		}
		return float64(hi) / float64(lo)
	}
	if r := ratio("churn"); mode != "update" && r > base.MaxChurnRatio {
		t.Errorf("churn: 10k-live/1k-live ns ratio %.2f > %.2f — insert/remove is scaling with the live set",
			r, base.MaxChurnRatio)
	}
	if r := ratio("select"); mode != "update" && r > base.MaxSelectRatio {
		t.Errorf("select: 10k-live/1k-live ns ratio %.2f > %.2f — Select is scaling with the live set",
			r, base.MaxSelectRatio)
	}

	kernels := map[string]int64{}
	for _, name := range KernelNames() {
		k, err := NewKernel(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			// The baseline is the allocation discipline of the code, so it
			// is measured where that is all there is to see: on one P. With
			// real concurrency, tasks and memory entries retire on whichever
			// process ran them while their free lists are per process — a
			// root the control process allocated and a worker ran, an entry
			// one process inserted and another deleted, leaves the first
			// short. That residue is host- and timing-dependent, so it is
			// logged and held under a flat cap, not compared per kernel.
			real, err := benchKernel(k, procs)
			if err != nil {
				t.Fatal(err)
			}
			if mode != "update" && real.AllocsPerOp > base.MaxKernelAllocsReal {
				t.Errorf("kernel %s/p%d: %d allocs/op at GOMAXPROCS=%d, cap %d",
					name, procs, real.AllocsPerOp, runtime.GOMAXPROCS(0), base.MaxKernelAllocsReal)
			}
			restore := runtime.GOMAXPROCS(1)
			pt, err := benchKernel(k, procs)
			runtime.GOMAXPROCS(restore)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/p%d", name, procs)
			kernels[key] = pt.AllocsPerOp
			t.Logf("kernel %-10s %8d ns/op  %6d allocs/op  (GOMAXPROCS=%d: %8d ns/op  %6d allocs/op)",
				key, pt.NsPerOp, pt.AllocsPerOp, restore, real.NsPerOp, real.AllocsPerOp)
			if mode == "update" {
				continue
			}
			want, ok := base.KernelAllocs[key]
			if !ok {
				t.Errorf("kernel %s missing from baseline (regenerate with BENCH_SMOKE=update)", key)
				continue
			}
			if cap := want + want/4 + 2; pt.AllocsPerOp > cap {
				t.Errorf("kernel %s: %d allocs/op > %d (baseline %d +25%%+2) — allocation discipline regressed",
					key, pt.AllocsPerOp, cap, want)
			}
		}
	}

	// Bigmem layout gate: counter-based (deterministic for a fixed
	// workload), so it holds on any host. 2000 pairs from 128 lines
	// crosses the lazy growth trigger and forces an adaptive resize.
	big, err := RunBigmemBench(2000, 128, 2)
	if err != nil {
		t.Fatal(err)
	}
	byLayout := map[string]BigmemPoint{}
	for _, p := range big {
		byLayout[p.Layout] = p
		t.Logf("bigmem %-5s opp/pair %6.2f  opp %8d  lines %5d  resizes %d  maxdepth %d",
			p.Layout, p.OppPerPair, p.OppExamined, p.Memory.Lines, p.Memory.Resizes, p.Memory.MaxLineDepth)
	}
	list, runs := byLayout["list"], byLayout["runs"]
	if runs.PairsEmitted != list.PairsEmitted || runs.Activations != list.Activations {
		t.Errorf("layouts disagree on the workload: list %d pairs/%d acts, runs %d pairs/%d acts",
			list.PairsEmitted, list.Activations, runs.PairsEmitted, runs.Activations)
	}
	if runs.Memory.Resizes == 0 {
		t.Errorf("segregated bigmem table never resized (lines %d) — adaptive growth is not firing", runs.Memory.Lines)
	}
	if mode != "update" {
		if runs.OppPerPair > base.MaxBigmemOppPerPair {
			t.Errorf("bigmem runs layout examines %.2f opposite tokens per pair > %.2f — sub-index selectivity regressed",
				runs.OppPerPair, base.MaxBigmemOppPerPair)
		}
		if gain := float64(list.OppExamined) / float64(runs.OppExamined); runs.OppExamined == 0 || gain < base.MinBigmemGain {
			t.Errorf("bigmem list/runs scan ratio %.2f < %.2f — the segregated layout is not narrowing the line scan",
				gain, base.MinBigmemGain)
		}
		if runs.Memory.MaxLineDepth > base.MaxBigmemDepth {
			t.Errorf("bigmem runs high-water line depth %d > %d — growth is lagging the load",
				runs.Memory.MaxLineDepth, base.MaxBigmemDepth)
		}
	}

	// Join-planner gate: the adversarial kernels from BENCH_join.json at
	// reduced proc counts. All three checks are counter-based ratios of
	// the same workload under two compilation/runtime modes, so they are
	// deterministic properties of the planner, budget and unlinking code.
	joinRep, err := RunJoinBench(JoinBenchOptions{Procs: []int{1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	var crossTrips, crossQuarantined int
	for _, p := range joinRep.Points {
		t.Logf("join %-9s %-7s %-8s p%d  examined %8d  acts %5d  skips %4d  trips %d  quarantined %v",
			p.Kernel, p.Mode, p.Backend, p.Procs, p.OppExamined, p.Activations,
			p.UnlinkSkips, p.BudgetTrips, p.Quarantined)
		if p.Kernel == "crossprod" && p.Budget > 0 {
			crossTrips += int(p.BudgetTrips)
			for _, q := range p.Quarantined {
				if q == "crossp" {
					crossQuarantined++
				}
			}
		}
	}
	t.Logf("join skew gain %.1fx  cross containment %.1fx  chain null-act ratio %.3f (%d skips)",
		joinRep.SkewGain, joinRep.CrossContainment, joinRep.ChainNullActRatio, joinRep.ChainUnlinkSkips)
	if crossTrips == 0 || crossQuarantined == 0 {
		t.Errorf("crossprod budgeted runs: %d trips, %d crossp quarantines — the match budget never fired",
			crossTrips, crossQuarantined)
	}
	if mode != "update" {
		if joinRep.SkewGain < base.MinSkewGain {
			t.Errorf("skew join gain %.2fx < %.2fx — the planner is not beating source order on the skewed join",
				joinRep.SkewGain, base.MinSkewGain)
		}
		if joinRep.CrossContainment < base.MinCrossContainment {
			t.Errorf("cross-product containment %.2fx < %.2fx — the match budget is not containing the quadratic rule",
				joinRep.CrossContainment, base.MinCrossContainment)
		}
		if joinRep.ChainNullActRatio > base.MaxChainNullActRatio {
			t.Errorf("chain null-activation ratio %.3f > %.3f — unlinking stopped suppressing dead-join activations",
				joinRep.ChainNullActRatio, base.MaxChainNullActRatio)
		}
		if joinRep.ChainUnlinkSkips < base.MinChainUnlinkSkips {
			t.Errorf("chain unlink skips %d < %d — the dead chain joins are being probed",
				joinRep.ChainUnlinkSkips, base.MinChainUnlinkSkips)
		}
	}

	// Cluster fabric gate: a reduced 1-vs-2-backend sweep through the
	// routing proxy. The migrate-under-load differential (identical
	// firing traces and WM across a mid-run migration, on every matcher
	// backend) and the program-cache hit rate are structural properties;
	// the 2-backend scaling ratio is wall-clock and only gated when the
	// host actually has CPUs for both backends.
	cl, err := RunClusterBench(ClusterBenchOptions{
		BackendCounts: []int{1, 2}, Clients: 4, Batches: 10, Migrations: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var clusterHits, clusterPushes int64
	for _, r := range cl.Runs {
		t.Logf("cluster %-8s nb=%d  %7.1f batches/s  pushes %d  hits %d  hit-rate %.0f%%",
			r.Workload, r.Backends, r.BatchesPerSec, r.ProgramPushes, r.ProgramCacheHits, r.CacheHitRate*100)
		if r.Backends > 1 {
			clusterHits += r.ProgramCacheHits
			clusterPushes += r.ProgramPushes
		}
	}
	for m, ok := range cl.MigrateDifferential {
		if !ok {
			t.Errorf("cluster migrate differential diverged on matcher %q — migration changed the computation", m)
		}
	}
	if len(cl.MigrateDifferential) < 2 {
		t.Errorf("cluster migrate differential covered %d matchers, want both", len(cl.MigrateDifferential))
	}
	if cl.Migration.Count == 0 {
		t.Error("cluster sweep performed no under-load migrations")
	}
	t.Logf("cluster migration p50 %d us p99 %d us (%d migrations); 2-backend scaling %v (oversubscribed=%v)",
		cl.Migration.P50Us, cl.Migration.P99Us, cl.Migration.Count, cl.ScalingX2, cl.Oversubscribed)
	clusterHitRate := 0.0
	if clusterHits+clusterPushes > 0 {
		clusterHitRate = float64(clusterHits) / float64(clusterHits+clusterPushes)
	}
	if mode != "update" {
		if clusterHitRate < base.MinClusterCacheHitRate {
			t.Errorf("cluster program-cache hit rate %.2f < %.2f — sessions are re-shipping source to warm backends",
				clusterHitRate, base.MinClusterCacheHitRate)
		}
		if cl.Oversubscribed {
			t.Logf("host has %d CPUs for a 2-backend fleet: skipping the scaling gate", cl.HostCPUs)
		} else {
			best := 0.0
			for _, x := range cl.ScalingX2 {
				if x > best {
					best = x
				}
			}
			if best < base.MinClusterScalingX2 {
				t.Errorf("best 2-backend scaling %.2fx < %.2fx — the fabric is not spreading load",
					best, base.MinClusterScalingX2)
			}
		}
	}

	// Session-spawn gate: fork a warm template vs build the same session
	// cold. Sized down from the recorded BENCH_durability.json run but
	// the same structural comparison.
	dur, err := RunDurabilityBench(DurabilityBenchOptions{Items: 1000, Rules: 48, Reps: 5, Batches: 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("spawn cold %d us  fork %d us  speedup %.1fx  (recovery %d records in %d us)",
		dur.ColdSpawnUs, dur.ForkSpawnUs, dur.ForkSpeedup, dur.RecoveryRecords, dur.RecoveryUs)
	if mode != "update" && dur.ForkSpeedup < base.MinForkSpeedup {
		t.Errorf("fork spawn only %.2fx faster than cold (< %.2fx) — the template fork fast path regressed",
			dur.ForkSpeedup, base.MinForkSpeedup)
	}

	if mode == "update" {
		out := benchBaseline{
			MaxChurnRatio:          3,
			MaxSelectRatio:         3,
			MaxChurnAllocs:         0,
			KernelAllocs:           kernels,
			MaxKernelAllocsReal:    64,
			MaxBigmemOppPerPair:    2,
			MinBigmemGain:          2,
			MaxBigmemDepth:         64,
			MinSkewGain:            5,
			MinCrossContainment:    10,
			MaxChainNullActRatio:   0.5,
			MinChainUnlinkSkips:    64,
			MinClusterScalingX2:    1.2,
			MinClusterCacheHitRate: 0.5,
			MinForkSpeedup:         3,
		}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", baselinePath)
	}
}
