// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table (go test -bench Table). Shapes, not absolute numbers, are
// the reproduction target: the virtual-seconds and contention metrics
// reported via b.ReportMetric are the table cells. cmd/psmbench prints
// the full tables; EXPERIMENTS.md records paper-vs-measured.
package psme_test

import (
	"fmt"
	"runtime"
	"testing"

	psme "repro"
	"repro/internal/multimax"
	"repro/internal/parmatch"
	"repro/internal/seqmatch"
	"repro/internal/tables"
)

// benchScale keeps single benchmark iterations under ~100ms; psmbench
// runs the paper-scale (1.0) versions.
const benchScale = 0.5

func specs(b *testing.B) []tables.Spec {
	b.Helper()
	return tables.Programs(benchScale)
}

func spec(b *testing.B, name string) tables.Spec {
	b.Helper()
	for _, s := range specs(b) {
		if s.Name == name {
			return s
		}
	}
	b.Fatalf("no spec %q", name)
	return tables.Spec{}
}

// BenchmarkParse measures front-end throughput on the largest program.
func BenchmarkParse(b *testing.B) {
	src, err := psme.BenchmarkProgram("weaver", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psme.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// seqBench runs one full program on a sequential matcher per iteration.
func seqBench(b *testing.B, prog, variant string) {
	sp := spec(b, prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tables.RunSeq(sp, variant)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(r.Rec.M.Activations), "activations")
		}
	}
}

// Table 4-1: vs1 (list memories) vs vs2 (hash memories), per program.
func BenchmarkTable41_VS1_Weaver(b *testing.B)  { seqBench(b, "Weaver", "vs1") }
func BenchmarkTable41_VS2_Weaver(b *testing.B)  { seqBench(b, "Weaver", "vs2") }
func BenchmarkTable41_VS1_Rubik(b *testing.B)   { seqBench(b, "Rubik", "vs1") }
func BenchmarkTable41_VS2_Rubik(b *testing.B)   { seqBench(b, "Rubik", "vs2") }
func BenchmarkTable41_VS1_Tourney(b *testing.B) { seqBench(b, "Tourney", "vs1") }
func BenchmarkTable41_VS2_Tourney(b *testing.B) { seqBench(b, "Tourney", "vs2") }

// Tables 4-2 and 4-3 are statistics of the same instrumented runs; the
// benchmark reports the mean tokens examined as metrics.
func statBench(b *testing.B, prog string) {
	sp := spec(b, prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v1, err := tables.RunSeq(sp, "vs1")
		if err != nil {
			b.Fatal(err)
		}
		v2, err := tables.RunSeq(sp, "vs2")
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			m1, m2 := v1.Rec.M, v2.Rec.M
			b.ReportMetric(mean(m1.OppExaminedLeft, m1.OppNonEmptyLeft), "t42-left-lin")
			b.ReportMetric(mean(m2.OppExaminedLeft, m2.OppNonEmptyLeft), "t42-left-hash")
			b.ReportMetric(mean(m1.SameExaminedLeft, m1.DeletesLeft), "t43-left-lin")
			b.ReportMetric(mean(m2.SameExaminedLeft, m2.DeletesLeft), "t43-left-hash")
		}
	}
}

func BenchmarkTable42_43_Weaver(b *testing.B)  { statBench(b, "Weaver") }
func BenchmarkTable42_43_Rubik(b *testing.B)   { statBench(b, "Rubik") }
func BenchmarkTable42_43_Tourney(b *testing.B) { statBench(b, "Tourney") }

// Table 4-4: interpreted vs compiled matcher.
func BenchmarkTable44_Interp_Rubik(b *testing.B) { seqBenchLisp(b, "Rubik") }
func BenchmarkTable44_Interp_Tourney(b *testing.B) {
	seqBenchLisp(b, "Tourney")
}

func seqBenchLisp(b *testing.B, prog string) {
	sp := spec(b, prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tables.RunSeq(sp, "lisp"); err != nil {
			b.Fatal(err)
		}
	}
}

// simBench runs one simulated configuration per iteration and reports
// the virtual match seconds and speed-up against the non-pipelined
// single-process baseline.
func simBench(b *testing.B, prog string, cfg multimax.Config) {
	sp := spec(b, prog)
	base, err := tables.RunSim(sp, multimax.Config{Procs: 1, Queues: 1, Scheme: cfg.Scheme})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tables.RunSim(sp, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			costs := multimax.DefaultCosts()
			b.ReportMetric(r.MatchSeconds(costs), "virtual-s")
			b.ReportMetric(float64(base.MatchInstr)/float64(r.MatchInstr), "speedup")
			c := r.Contention
			b.ReportMetric(mean(c.QueueSpins, c.QueueAcquires), "queue-spins")
			b.ReportMetric(mean(c.LineSpinsLeft, c.LineAcquiresLeft), "line-spins-left")
		}
	}
}

// Table 4-5: single queue, simple locks, 1+13 processes.
func BenchmarkTable45_Weaver(b *testing.B) {
	simBench(b, "Weaver", multimax.Config{Procs: 13, Queues: 1, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable45_Rubik(b *testing.B) {
	simBench(b, "Rubik", multimax.Config{Procs: 13, Queues: 1, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable45_Tourney(b *testing.B) {
	simBench(b, "Tourney", multimax.Config{Procs: 13, Queues: 1, Scheme: parmatch.SchemeSimple, Pipelined: true})
}

// Table 4-6: eight queues, simple locks, 1+13 processes.
func BenchmarkTable46_Weaver(b *testing.B) {
	simBench(b, "Weaver", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable46_Rubik(b *testing.B) {
	simBench(b, "Rubik", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable46_Tourney(b *testing.B) {
	simBench(b, "Tourney", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeSimple, Pipelined: true})
}

// Table 4-7 is the queue-spins metric of the Table 4-5 benchmarks; this
// family reports it at the intermediate process counts.
func BenchmarkTable47_Rubik_1p7(b *testing.B) {
	simBench(b, "Rubik", multimax.Config{Procs: 7, Queues: 1, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable47_Rubik_1p11(b *testing.B) {
	simBench(b, "Rubik", multimax.Config{Procs: 11, Queues: 1, Scheme: parmatch.SchemeSimple, Pipelined: true})
}

// Table 4-8: eight queues, MRSW locks, 1+13 processes.
func BenchmarkTable48_Weaver(b *testing.B) {
	simBench(b, "Weaver", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeMRSW, Pipelined: true})
}
func BenchmarkTable48_Rubik(b *testing.B) {
	simBench(b, "Rubik", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeMRSW, Pipelined: true})
}
func BenchmarkTable48_Tourney(b *testing.B) {
	simBench(b, "Tourney", multimax.Config{Procs: 13, Queues: 8, Scheme: parmatch.SchemeMRSW, Pipelined: true})
}

// Table 4-9: line-lock contention at 12 processes, both schemes (the
// line-spins-left metric).
func BenchmarkTable49_Tourney_Simple(b *testing.B) {
	simBench(b, "Tourney", multimax.Config{Procs: 12, Queues: 8, Scheme: parmatch.SchemeSimple, Pipelined: true})
}
func BenchmarkTable49_Tourney_MRSW(b *testing.B) {
	simBench(b, "Tourney", multimax.Config{Procs: 12, Queues: 8, Scheme: parmatch.SchemeMRSW, Pipelined: true})
}

// BenchmarkParallelHost measures the real goroutine matcher on this
// machine (bounded by host cores, unlike the simulation).
func BenchmarkParallelHost_Rubik(b *testing.B) {
	sp := spec(b, "Rubik")
	procs := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := tables.RunPar(sp, parmatch.Config{Procs: procs, Queues: 4, Scheme: parmatch.SchemeSimple})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(r.Res.MatchTime.Seconds(), "match-s")
		}
	}
}

// BenchmarkMatchKernels measures the steady-state match hot path alone
// (no engine, no RHS): one iteration asserts and retracts a fixed WME
// block through the parallel matcher. allocs/op here is the
// allocation-discipline headline BENCH_match.json tracks.
func BenchmarkMatchKernels(b *testing.B) {
	for _, name := range tables.KernelNames() {
		for _, procs := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/p%d", name, procs), func(b *testing.B) {
				k, err := tables.NewKernel(name, 64)
				if err != nil {
					b.Fatal(err)
				}
				m := parmatch.New(k.Net, parmatch.Config{
					Procs: procs, Queues: 4, Scheme: parmatch.SchemeSimple,
				}, tables.KernelSink())
				defer m.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.Round(m)
				}
				b.StopTimer()
				b.ReportMetric(float64(m.Activations())/float64(b.N), "acts/op")
			})
		}
	}
}

// BenchmarkMatchKernelsSeq is the sequential-matcher twin, pinning the
// uniprocessor cost of the same kernels.
func BenchmarkMatchKernelsSeq(b *testing.B) {
	for _, name := range tables.KernelNames() {
		b.Run(name, func(b *testing.B) {
			k, err := tables.NewKernel(name, 64)
			if err != nil {
				b.Fatal(err)
			}
			m := seqmatch.New(k.Net, seqmatch.VS2, 0, tables.KernelSink())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Round(m)
			}
		})
	}
}

func mean(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// BenchmarkEngineFiringRate measures end-to-end recognize-act cycles per
// second on the counter micro-program.
func BenchmarkEngineFiringRate(b *testing.B) {
	src := `
(literalize count value)
(p inc (count ^value {<v> < 1000000000}) --> (modify 1 ^value (compute <v> + 1)))
(make count ^value 0)
`
	prog, err := psme.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := psme.New(prog, psme.Config{Matcher: psme.MatcherVS2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	res, err := eng.Run(psme.RunOptions{MaxCycles: b.N})
	if err != nil {
		b.Fatal(err)
	}
	if res.Cycles != b.N {
		b.Fatalf("ran %d cycles, want %d", res.Cycles, b.N)
	}
}
