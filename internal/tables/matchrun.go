// RunMatchBench drives the multicore match benchmarks recorded in
// BENCH_match.json: the three paper workloads on the goroutine matcher
// at several proc counts, plus the allocation-discipline kernels of
// matchbench.go measured through the testing.Benchmark harness.
package tables

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/hashmem"
	"repro/internal/parmatch"
	"repro/internal/seqmatch"
	"repro/internal/stats"
)

// MatchBenchOptions configures RunMatchBench.
type MatchBenchOptions struct {
	Scale   float64 // workload scale (1.0 = paper scale)
	Procs   []int   // match-process counts to sweep (default 1,2,4,8)
	KernelN int     // kernel size (default 64)
	// Reps runs each workload point this many times and records the
	// fastest (default 3): min-of-N is the standard low-noise estimator
	// for a fixed workload on a shared host. Reps are interleaved across
	// the proc sweep (1,2,4,8, 2,4,8,1, ...) with the order rotated each
	// rep, so slow host phases hit every proc count and no proc count
	// systematically inherits the cache/GC state of a cycle position.
	Reps int
	// BigmemPairs sizes the bigmem layout comparison: that many
	// (acct, txn) pairs, i.e. 2× that many WMEs (default 20000 — deep
	// enough that the list layout's line scan dominates and the
	// segregated table crosses its lazy growth trigger).
	// BigmemLines is the starting line count for both layouts (default
	// 1024): the legacy table is pinned there while the segregated table
	// grows adaptively from it.
	BigmemPairs int
	BigmemLines int
}

// MatchWorkloadPoint is one (workload, procs) measurement of the real
// goroutine matcher; procs 0 is the sequential vs2 matcher run in the
// same rotation, the bar SpeedupVsVS2 measures against (match time
// only, single session). GOMAXPROCS is raised to procs+1 for the point
// (the +1 is the control process) but never past the host CPU count — extra
// Ps on a smaller host just add runtime thrash (spinning Ms, more GC
// mark workers) without any parallelism. On hosts with fewer cores the
// sweep therefore measures match processes timesharing the real CPUs;
// HostCPUs and GoMaxProcs in the report say which regime a point ran in.
type MatchWorkloadPoint struct {
	Workload     string           `json:"workload"`
	Procs        int              `json:"procs"`
	GoMaxProcs   int              `json:"gomaxprocs"`
	Scheme       string           `json:"scheme"`
	Cycles       int              `json:"cycles"`
	MatchSeconds float64          `json:"match_seconds"`
	Activations  int64            `json:"activations"`
	ActsPerSec   float64          `json:"acts_per_sec"`
	SpeedupVsVS2 float64          `json:"speedup_vs_vs2,omitempty"`
	Contention   stats.Contention `json:"contention"`
	// Oversubscribed marks points whose proc count exceeds the host's
	// CPUs: the match processes timeshared real cores, so wall-clock
	// speedup numbers measure scheduling overhead, not parallelism.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// MatchKernelPoint is one (kernel, procs) steady-state hot-path
// measurement; procs 0 is the sequential vs2 matcher baseline.
type MatchKernelPoint struct {
	Kernel      string  `json:"kernel"`
	Procs       int     `json:"procs"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	ActsPerOp   float64 `json:"acts_per_op"`
	// Oversubscribed: see MatchWorkloadPoint.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// BigmemPoint is one side of the token-memory layout comparison: the
// bigmem kernel run on the sequential vs2 matcher with either the
// legacy linked-list lines ("list") or the node-segregated adaptive
// runs ("runs"). OppPerPair is the selectivity measure — opposite-memory
// tokens examined per emitted pair; the hash sub-index drives it to ~1
// while the list layout scans every colliding token.
type BigmemPoint struct {
	Layout       string       `json:"layout"` // "list" or "runs"
	Pairs        int          `json:"pairs"`  // WMEs asserted per round = 2×Pairs
	InitialLines int          `json:"initial_lines"`
	Rounds       int          `json:"rounds"`
	Seconds      float64      `json:"seconds"`
	Activations  int64        `json:"activations"`
	ActsPerSec   float64      `json:"acts_per_sec"`
	OppExamined  int64        `json:"opp_examined"`
	PairsEmitted int64        `json:"pairs_emitted"`
	OppPerPair   float64      `json:"opp_per_pair"`
	Memory       stats.Memory `json:"memory"`
}

// MatchBenchReport is the BENCH_match.json payload.
type MatchBenchReport struct {
	HostCPUs  int                  `json:"host_cpus"`
	Scale     float64              `json:"scale"`
	ProcsSwep []int                `json:"procs_swept"`
	Workloads []MatchWorkloadPoint `json:"workloads"`
	Kernels   []MatchKernelPoint   `json:"kernels"`
	// Bigmem is the token-memory layout comparison: the bigmem kernel at
	// production scale under the legacy list lines vs the segregated runs.
	Bigmem []BigmemPoint `json:"bigmem"`
	// Conflict is the terminal-heavy conflict-set sweep (one churn and
	// one Select row per live-set size) from conflictbench.go.
	Conflict []ConflictBenchPoint `json:"conflict"`
}

// RunMatchBench runs the full multicore match sweep. It temporarily
// adjusts GOMAXPROCS per point and restores it before returning.
func RunMatchBench(opt MatchBenchOptions) (*MatchBenchReport, error) {
	if opt.Scale <= 0 {
		opt.Scale = 1
	}
	if len(opt.Procs) == 0 {
		opt.Procs = []int{1, 2, 4, 8}
	}
	if opt.KernelN <= 0 {
		opt.KernelN = 64
	}
	if opt.Reps <= 0 {
		opt.Reps = 3
	}
	rep := &MatchBenchReport{
		HostCPUs:  runtime.NumCPU(),
		Scale:     opt.Scale,
		ProcsSwep: opt.Procs,
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	specs, err := Programs(opt.Scale)
	if err != nil {
		return nil, err
	}
	for _, spec := range specs {
		best := make([]*ParRun, len(opt.Procs))
		var seq *SeqRun
		for rep := 0; rep < opt.Reps; rep++ {
			runtime.GOMAXPROCS(prev)
			r, err := RunSeq(spec, "vs2")
			if err != nil {
				return nil, err
			}
			if seq == nil || r.Match < seq.Match {
				seq = r
			}
			for j := range opt.Procs {
				i := (j + rep) % len(opt.Procs)
				p := opt.Procs[i]
				gm := p + 1 // +1: the control process
				if n := runtime.NumCPU(); gm > n {
					gm = n
				}
				runtime.GOMAXPROCS(gm)
				r, err := RunPar(spec, parmatch.Config{
					Procs: p, Queues: 4, Scheme: parmatch.SchemeSimple,
				})
				if err != nil {
					return nil, fmt.Errorf("%s procs=%d: %w", spec.Name, p, err)
				}
				if best[i] == nil || r.Res.MatchTime < best[i].Res.MatchTime {
					best[i] = r
				}
			}
		}
		rep.Workloads = append(rep.Workloads, MatchWorkloadPoint{
			Workload: spec.Name, GoMaxProcs: prev, Scheme: "vs2", Cycles: seq.Cycles,
			MatchSeconds: seq.Match.Seconds(), Activations: seq.Activations,
			ActsPerSec: float64(seq.Activations) / seq.Match.Seconds(),
		})
		for i, p := range opt.Procs {
			run := best[i]
			gm := p + 1
			if n := runtime.NumCPU(); gm > n {
				gm = n
			}
			secs := run.Res.MatchTime.Seconds()
			pt := MatchWorkloadPoint{
				Workload:       spec.Name,
				Procs:          p,
				GoMaxProcs:     gm,
				Scheme:         parmatch.SchemeSimple.String(),
				Cycles:         run.Res.Cycles,
				MatchSeconds:   secs,
				Activations:    run.Match.Activations,
				Contention:     run.Cont,
				Oversubscribed: p > rep.HostCPUs,
			}
			if secs > 0 {
				pt.ActsPerSec = float64(run.Match.Activations) / secs
				pt.SpeedupVsVS2 = seq.Match.Seconds() / secs
			}
			rep.Workloads = append(rep.Workloads, pt)
		}
	}

	runtime.GOMAXPROCS(prev)
	for _, name := range KernelNames() {
		k, err := NewKernel(name, opt.KernelN)
		if err != nil {
			return nil, err
		}
		for _, p := range append([]int{0}, opt.Procs...) {
			pt, err := benchKernel(k, p)
			if err != nil {
				return nil, err
			}
			rep.Kernels = append(rep.Kernels, pt)
		}
	}
	big, err := RunBigmemBench(opt.BigmemPairs, opt.BigmemLines, 0)
	if err != nil {
		return nil, err
	}
	rep.Bigmem = big
	rep.Conflict = RunConflictBench()
	return rep, nil
}

// RunBigmemBench runs the bigmem kernel on the sequential vs2 matcher
// under both token-memory layouts, starting each at the same line count:
// the legacy list table stays there (the paper's fixed-size design, the
// degradation baseline), the segregated table resizes adaptively as the
// working memory climbs. Defaults: 20000 pairs (40k WMEs), 1024 lines,
// 3 rounds.
func RunBigmemBench(pairs, lines, rounds int) ([]BigmemPoint, error) {
	if pairs <= 0 {
		pairs = 20000
	}
	if lines <= 0 {
		lines = 1024
	}
	if rounds <= 0 {
		rounds = 3
	}
	k, err := NewKernel("bigmem", pairs)
	if err != nil {
		return nil, err
	}
	var out []BigmemPoint
	for _, layout := range []string{"list", "runs"} {
		var table *hashmem.Table
		if layout == "list" {
			table = hashmem.NewLegacy(lines)
		} else {
			table = hashmem.New(lines)
		}
		m := seqmatch.NewWithTable(k.Net, seqmatch.VS2, table, KernelSink())
		t0 := time.Now()
		for r := 0; r < rounds; r++ {
			k.Round(m)
		}
		secs := time.Since(t0).Seconds()
		ms := m.MatchStats()
		opp := ms.OppExaminedLeft + ms.OppExaminedRight
		pt := BigmemPoint{
			Layout:       layout,
			Pairs:        pairs,
			InitialLines: lines,
			Rounds:       rounds,
			Seconds:      secs,
			Activations:  ms.Activations,
			OppExamined:  opp,
			PairsEmitted: ms.Pairs,
			Memory:       m.MemStats(),
		}
		if secs > 0 {
			pt.ActsPerSec = float64(ms.Activations) / secs
		}
		if ms.Pairs > 0 {
			pt.OppPerPair = float64(opp) / float64(ms.Pairs)
		}
		out = append(out, pt)
	}
	return out, nil
}

// kernelBackend is the slice of the matcher surface the kernel
// benchmarks need.
type kernelBackend interface {
	engine.Matcher
	Close()
	Activations() int64
}

// seqKernelBackend adapts the sequential matcher's recorder-based
// activation count to the parallel matcher's accessor.
type seqKernelBackend struct{ *seqmatch.Matcher }

func (s seqKernelBackend) Activations() int64 { return s.Matcher.MatchStats().Activations }

// kernelMatcher builds the backend for one kernel point: procs 0 is
// the sequential vs2 baseline, anything else the goroutine matcher.
func kernelMatcher(k *Kernel, procs int) (kernelBackend, error) {
	if procs <= 0 {
		return seqKernelBackend{seqmatch.New(k.Net, seqmatch.VS2, 0, KernelSink())}, nil
	}
	return parmatch.New(k.Net, parmatch.Config{
		Procs: procs, Queues: 4, Scheme: parmatch.SchemeSimple,
	}, KernelSink()), nil
}

// benchKernel measures one kernel at one proc count (0 = sequential
// vs2) via the standard benchmark harness.
func benchKernel(k *Kernel, procs int) (MatchKernelPoint, error) {
	var acts int64
	r := testing.Benchmark(func(b *testing.B) {
		m, err := kernelMatcher(k, procs)
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k.Round(m)
		}
		b.StopTimer()
		acts = m.Activations() / int64(b.N)
	})
	return MatchKernelPoint{
		Kernel:         k.Name,
		Procs:          procs,
		Iterations:     r.N,
		NsPerOp:        r.NsPerOp(),
		AllocsPerOp:    r.AllocsPerOp(),
		BytesPerOp:     r.AllocedBytesPerOp(),
		ActsPerOp:      float64(acts),
		Oversubscribed: procs > runtime.NumCPU(),
	}, nil
}
