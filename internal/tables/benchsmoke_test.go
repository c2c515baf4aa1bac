package tables

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/multimax"
)

// The bench-smoke bounds. Wall-clock numbers are useless as CI gates on
// shared hosts, so TestBenchSmoke checks host-independent invariants
// instead: scaling ratios (conflict-set op cost must not grow with the
// live-set size), allocation discipline (allocs/op of the match kernels
// and conflict ops are properties of the code, not the machine) and the
// bigmem layout's counters. The bounds are constants here so that no
// run of the gate can move them.
const (
	// maxChurnRatio bounds churn ns/op at live=10000 over live=1000:
	// O(1) insert+remove means ~1.0; the old O(n) scans put it near 10.
	maxChurnRatio = 3
	// maxSelectRatio bounds warm Select ns/op at live=10000 over
	// live=1000: cached partition bests mean ~1.0; the old full scan put
	// it near 10.
	maxSelectRatio = 3
	// maxChurnAllocs caps steady-state allocs per churn op (pooled
	// instantiations make it 0).
	maxChurnAllocs = 0
	// maxKernelAllocs caps allocs/op of one assert-all/retract-all kernel
	// round on GOMAXPROCS(1), where the allocation discipline of the code
	// is all there is to see (every kernel measures 0).
	maxKernelAllocs = 2
	// maxKernelAllocsReal caps the same rounds' allocs/op at the host's
	// real concurrency (a quarter of the entries the largest round
	// inserts).
	maxKernelAllocsReal = 64
	// maxBigmemOppPerPair bounds the segregated layout's selectivity on
	// the bigmem kernel: opposite-memory tokens examined per emitted
	// pair. The (node, hash) runs make this ~1.0; a broken sub-index
	// falls back toward the whole-line scan and blows past it.
	maxBigmemOppPerPair = 2
	// minBigmemGain is the minimum list/runs ratio of opposite-memory
	// tokens examined on the same bigmem workload — the line-scan work
	// the segregated layout must eliminate.
	minBigmemGain = 2
	// maxBigmemDepth caps the segregated table's high-water line depth:
	// adaptive growth must keep lines shallow as the WM climbs.
	maxBigmemDepth = 64
)

// TestBenchSmoke is the `make bench-smoke` gate: a 1-rep match-kernel,
// conflict and bigmem sweep checked against the bounds above. Skipped
// unless BENCH_SMOKE is set.
func TestBenchSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}

	ns := map[string]int64{}
	for _, p := range RunConflictBench(1000, 10000) {
		ns[fmt.Sprintf("%s/live%d", p.Op, p.Live)] = p.NsPerOp
		t.Logf("conflict %s", FormatConflictPoint(p))
		if p.Op == "churn" && p.AllocsPerOp > maxChurnAllocs {
			t.Errorf("churn live=%d: %d allocs/op, cap %d", p.Live, p.AllocsPerOp, maxChurnAllocs)
		}
	}
	ratio := func(op string) float64 {
		lo, hi := ns[op+"/live1000"], ns[op+"/live10000"]
		if lo == 0 {
			return 0
		}
		return float64(hi) / float64(lo)
	}
	if r := ratio("churn"); r > maxChurnRatio {
		t.Errorf("churn: 10k-live/1k-live ns ratio %.2f > %d — insert/remove is scaling with the live set",
			r, maxChurnRatio)
	}
	if r := ratio("select"); r > maxSelectRatio {
		t.Errorf("select: 10k-live/1k-live ns ratio %.2f > %d — Select is scaling with the live set",
			r, maxSelectRatio)
	}

	for _, name := range KernelNames() {
		k, err := NewKernel(name, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			// The allocation discipline of the code is measured where that
			// is all there is to see: on one P. With real concurrency,
			// tasks and memory entries retire on whichever process ran them
			// while their free lists are per process — a root the control
			// process allocated and a worker ran, an entry one process
			// inserted and another deleted, leaves the first short. That
			// residue is host- and timing-dependent, so it is logged and
			// held under a looser flat cap.
			real, err := benchKernel(k, procs)
			if err != nil {
				t.Fatal(err)
			}
			if real.AllocsPerOp > maxKernelAllocsReal {
				t.Errorf("kernel %s/p%d: %d allocs/op at GOMAXPROCS=%d, cap %d",
					name, procs, real.AllocsPerOp, runtime.GOMAXPROCS(0), maxKernelAllocsReal)
			}
			restore := runtime.GOMAXPROCS(1)
			pt, err := benchKernel(k, procs)
			runtime.GOMAXPROCS(restore)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/p%d", name, procs)
			t.Logf("kernel %-10s %8d ns/op  %6d allocs/op  (GOMAXPROCS=%d: %8d ns/op  %6d allocs/op)",
				key, pt.NsPerOp, pt.AllocsPerOp, restore, real.NsPerOp, real.AllocsPerOp)
			if pt.AllocsPerOp > maxKernelAllocs {
				t.Errorf("kernel %s: %d allocs/op > %d — allocation discipline regressed",
					key, pt.AllocsPerOp, maxKernelAllocs)
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
	if runs.OppPerPair > maxBigmemOppPerPair {
		t.Errorf("bigmem runs layout examines %.2f opposite tokens per pair > %d — sub-index selectivity regressed",
			runs.OppPerPair, maxBigmemOppPerPair)
	}
	if gain := float64(list.OppExamined) / float64(runs.OppExamined); runs.OppExamined == 0 || gain < minBigmemGain {
		t.Errorf("bigmem list/runs scan ratio %.2f < %d — the segregated layout is not narrowing the line scan",
			gain, minBigmemGain)
	}
	if runs.Memory.MaxLineDepth > maxBigmemDepth {
		t.Errorf("bigmem runs high-water line depth %d > %d — growth is lagging the load",
			runs.Memory.MaxLineDepth, maxBigmemDepth)
	}
}

// TestSimShapes holds the simulated Tables 4-5..4-9 at paper scale to
// the shapes EXPERIMENTS.md reports against the paper; one subtest per
// table. The grid is deterministic but takes a while, so it runs with
// the bench-smoke gates.
func TestSimShapes(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	sim, err := RunSimAll(Programs(1))
	if err != nil {
		t.Fatal(err)
	}
	last := len(ProcCols) - 1
	speedup := func(base, r *multimax.Result) float64 {
		return float64(base.MatchInstr) / float64(r.MatchInstr)
	}
	queueSpins := func(r *multimax.Result) float64 {
		return mean(r.Contention.QueueSpins, r.Contention.QueueAcquires)
	}
	t.Run("4-5", func(t *testing.T) {
		// One queue saturates: past 1+7 processes the speed-up is flat.
		for _, spec := range sim.Specs {
			base, one := sim.BaseSimple[spec.Name], sim.Simple1Q[spec.Name]
			s7, s13 := speedup(base, one[3]), speedup(base, one[last])
			t.Logf("%s: 1+7/1Q %.2f, 1+13/1Q %.2f", spec.Name, s7, s13)
			if s13 > 1.1*s7 {
				t.Errorf("%s: one queue still scales: 1+13 %.2f > 1.1 x 1+7 %.2f", spec.Name, s13, s7)
			}
		}
	})
	t.Run("4-6", func(t *testing.T) {
		// Eight queues at least double Weaver's and Rubik's top end;
		// Tourney stays pinned by its cross-product hash lines.
		for _, spec := range sim.Specs {
			base := sim.BaseSimple[spec.Name]
			one, eight := speedup(base, sim.Simple1Q[spec.Name][last]), speedup(base, sim.SimpleMQ[spec.Name][last])
			t.Logf("%s: 1+13 1Q %.2f, 8Q %.2f", spec.Name, one, eight)
			if spec.Name == "Tourney" {
				if eight >= 3 {
					t.Errorf("Tourney: 1+13/8Q speed-up %.2f, want < 3", eight)
				}
			} else if eight < 2*one {
				t.Errorf("%s: 1+13/8Q speed-up %.2f < 2 x 1Q %.2f", spec.Name, eight, one)
			}
		}
	})
	t.Run("4-7", func(t *testing.T) {
		// Eight queues cut the spins before a queue access at 1+13.
		for _, spec := range sim.Specs {
			one, eight := queueSpins(sim.Simple1Q[spec.Name][last]), queueSpins(sim.SimpleMQ[spec.Name][last])
			t.Logf("%s: 1+13 queue spins 1Q %.2f, 8Q %.2f", spec.Name, one, eight)
			if eight >= one {
				t.Errorf("%s: 8 queues spin %.2f, 1 queue %.2f", spec.Name, eight, one)
			}
		}
	})
	t.Run("4-8", func(t *testing.T) {
		// The MRSW locks slow the one-process base case.
		costs := multimax.DefaultCosts()
		for _, spec := range sim.Specs {
			simple, mrsw := sim.BaseSimple[spec.Name], sim.BaseMRSW[spec.Name]
			t.Logf("%s: base case simple %.1f, MRSW %.1f virtual s",
				spec.Name, simple.MatchSeconds(costs), mrsw.MatchSeconds(costs))
			if mrsw.MatchInstr <= simple.MatchInstr {
				t.Errorf("%s: MRSW base case %d instr, simple %d: not slower",
					spec.Name, mrsw.MatchInstr, simple.MatchInstr)
			}
		}
	})
	t.Run("4-9", func(t *testing.T) {
		// At 12 processes: Tourney's line contention is the largest, left
		// exceeds right, and MRSW contends less than simple locks.
		const p12 = 1 // ContProcs index
		spins := func(r *multimax.Result) (left, right float64) {
			c := r.Contention
			return mean(c.LineSpinsLeft, c.LineAcquiresLeft), mean(c.LineSpinsRight, c.LineAcquiresRight)
		}
		tl, _ := spins(sim.ContSimple["Tourney"][p12])
		for _, spec := range sim.Specs {
			sl, sr := spins(sim.ContSimple[spec.Name][p12])
			ml, mr := spins(sim.ContMRSW[spec.Name][p12])
			t.Logf("%s: 12p simple %.1f/%.1f, MRSW %.1f/%.1f", spec.Name, sl, sr, ml, mr)
			if spec.Name != "Tourney" && sl >= tl {
				t.Errorf("%s: simple left spins %.1f >= Tourney's %.1f", spec.Name, sl, tl)
			}
			if sl <= sr || ml <= mr {
				t.Errorf("%s: left does not exceed right: simple %.1f/%.1f, MRSW %.1f/%.1f", spec.Name, sl, sr, ml, mr)
			}
			if ml >= sl || mr > sr {
				t.Errorf("%s: MRSW %.1f/%.1f does not cut simple %.1f/%.1f", spec.Name, ml, mr, sl, sr)
			}
		}
	})
}
