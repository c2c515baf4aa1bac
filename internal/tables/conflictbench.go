// Conflict-set microbenchmarks: the terminal-heavy counterpart of
// matchbench.go, driving the conflict set directly so ns/op isolates
// conflict resolution, the shared resource the paper's §4 Amdahl
// analysis worries about. Two claims are under test, both at large live
// sets: insert/remove cost is independent of the number of resident
// instantiations (O(1) bucket ops, not O(n) scans), and Select cost
// follows the partition count, not the set size (cached partition bests,
// not a full-set scan). cmd/psmbench -match and the bench-smoke gate
// (TestBenchSmoke) run on top of this file; results land in
// BENCH_match.json next to the kernel rows.
package tables

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
)

// ConflictBenchPoint is one (op, live) measurement.
type ConflictBenchPoint struct {
	// Op is "churn" (one steady-state insert+remove pair per op, with
	// Live instantiations resident) or "select" (one Select per op).
	Op          string `json:"op"`
	Live        int    `json:"live"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

// benchRule compiles one single-CE rule to hang instantiations off; the
// conflict set only reads its Index and Specificity.
func benchRule() *rete.CompiledRule {
	prog, err := ops5.Parse("(literalize fact id)\n(p seen (fact ^id <i>) --> (halt))")
	if err != nil {
		panic(err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		panic(err)
	}
	return net.Rules[0]
}

// preloadSet fills a fresh set with live single-WME instantiations
// tagged 1..live and returns it.
func preloadSet(rule *rete.CompiledRule, live int) *conflict.Set {
	cs := conflict.NewSet()
	for tag := 1; tag <= live; tag++ {
		cs.InsertInstantiation(rule, []*wm.WME{{TimeTag: tag}})
	}
	return cs
}

// benchConflictChurn measures one insert+remove pair per op against a
// set holding live resident instantiations.
func benchConflictChurn(rule *rete.CompiledRule, live int) ConflictBenchPoint {
	r := testing.Benchmark(func(b *testing.B) {
		cs := preloadSet(rule, live)
		// The churn key sits above the resident tags so it never collides
		// with a preloaded instantiation.
		w := []*wm.WME{{TimeTag: live + 1}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.InsertInstantiation(rule, w)
			cs.RemoveInstantiation(rule, w)
		}
	})
	return ConflictBenchPoint{
		Op: "churn", Live: live, Iterations: r.N, NsPerOp: r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
}

// benchConflictSelect measures Select against a set holding live
// resident instantiations with a warm cache: the steady state of the
// recognize-act loop, where at most a few partitions are dirty per cycle.
func benchConflictSelect(rule *rete.CompiledRule, live int) ConflictBenchPoint {
	r := testing.Benchmark(func(b *testing.B) {
		cs := preloadSet(rule, live)
		if cs.Select() == nil {
			b.Fatal("preloaded set selected nil")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cs.Select()
		}
	})
	return ConflictBenchPoint{
		Op: "select", Live: live, Iterations: r.N, NsPerOp: r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
}

// RunConflictBench runs the conflict-set sweep: churn and Select at
// every live-set size (default 1000, 10000).
func RunConflictBench(lives ...int) []ConflictBenchPoint {
	if len(lives) == 0 {
		lives = []int{1000, 10000}
	}
	rule := benchRule()
	var out []ConflictBenchPoint
	for _, live := range lives {
		out = append(out, benchConflictChurn(rule, live), benchConflictSelect(rule, live))
	}
	return out
}

// FormatConflictPoint renders one sweep row for psmbench's output.
func FormatConflictPoint(p ConflictBenchPoint) string {
	return fmt.Sprintf("%-7s %6d  %8d  %9d  %8d",
		p.Op, p.Live, p.NsPerOp, p.AllocsPerOp, p.BytesPerOp)
}
