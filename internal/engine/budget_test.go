package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/workload"
)

// budgetEngine builds a seqmatch-backed engine over src.
func budgetEngine(t *testing.T, src string) *engine.Engine {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := conflict.NewSet()
	m := seqmatch.New(net, seqmatch.VS2, 0, cs)
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	return e
}

// crossSrc drives a countdown while a never-firing cross-product rule
// (no shared variables between its first three condition elements, and
// a ghost class that never exists) turns every tick modification into a
// quadratic null scan. The planner cannot reorder this away — no order
// helps a cross product — so it is exactly the shape the match budget
// exists for.
const crossSrc = `
(literalize tick num)
(literalize left val)
(literalize right val)
(literalize ghost id)
(p cross
  (tick ^num <n>)
  (left ^val <a>)
  (right ^val <b>)
  (ghost ^id 1)
-->
  (halt))
(p drive
  (tick ^num {<n> > 0})
-->
  (modify 1 ^num (compute <n> - 1)))
(p finish
  (tick ^num 0)
-->
  (halt))
(make tick ^num 20)
`

func crossProgram() string {
	var b strings.Builder
	b.WriteString(crossSrc)
	for i := 0; i < 15; i++ {
		writeMake(&b, "left", i)
		writeMake(&b, "right", i)
	}
	return b.String()
}

func writeMake(b *strings.Builder, class string, v int) {
	fmt.Fprintf(b, "(make %s ^val %d)\n", class, v)
}

// TestMatchBudgetQuarantine checks that a rule whose joins blow the
// per-cycle examination budget is excised mid-run and the rest of the
// program keeps going to completion.
func TestMatchBudgetQuarantine(t *testing.T) {
	e := budgetEngine(t, crossProgram())
	res, err := e.Run(engine.Options{MaxCycles: 100, RecordFiring: true, CheckEvery: true, MatchBudget: 100})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Halted {
		t.Fatalf("run did not reach (halt); cycles=%d", res.Cycles)
	}
	q := e.Quarantined()
	if len(q) != 1 || q[0].Rule != "cross" {
		t.Fatalf("quarantined = %+v, want exactly [cross]", q)
	}
	if q[0].Examined <= 100 {
		t.Errorf("trip recorded %d examined, want > budget 100", q[0].Examined)
	}
	if e.EpochStats().BudgetTrips != 1 {
		t.Errorf("BudgetTrips = %d, want 1", e.EpochStats().BudgetTrips)
	}
	if e.Net.RuleByName("cross") != nil {
		t.Errorf("cross still present in the network after quarantine")
	}
	for _, f := range res.Firings {
		if f.Rule == "cross" {
			t.Fatalf("cross fired despite its ghost condition element")
		}
	}
}

// TestMatchBudgetLeavesInnocentRulesAlone runs the same program with a
// budget the cross product does not reach: nothing is quarantined and
// the firing sequence matches the unbudgeted run.
func TestMatchBudgetLeavesInnocentRulesAlone(t *testing.T) {
	want, err := budgetEngine(t, crossProgram()).Run(engine.Options{MaxCycles: 100, RecordFiring: true})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	e := budgetEngine(t, crossProgram())
	got, err := e.Run(engine.Options{MaxCycles: 100, RecordFiring: true, MatchBudget: 1 << 40})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(e.Quarantined()) != 0 {
		t.Fatalf("quarantined %+v under an unreachable budget", e.Quarantined())
	}
	if len(got.Firings) != len(want.Firings) {
		t.Fatalf("firing count %d, want %d", len(got.Firings), len(want.Firings))
	}
	for i := range want.Firings {
		if got.Firings[i].Rule != want.Firings[i].Rule {
			t.Fatalf("firing %d: got %s want %s", i, got.Firings[i].Rule, want.Firings[i].Rule)
		}
	}
}

// TestMatchBudgetQuarantineMidGroup: the budget excises the offending
// rule mid-run, while its live instantiations sit among the eat rule's
// in the conflict set and may hold a partition's cached best. The set
// must stay coherent through that: the run must keep selecting the
// remaining eat instantiations and drain working memory to completion.
func TestMatchBudgetQuarantineMidGroup(t *testing.T) {
	var b strings.Builder
	b.WriteString(`
(literalize item val)
(literalize junkl val)
(literalize junkr val)
(p eat
  (item ^val <v>)
-->
  (remove 1))
(p cross
  (item ^val <x>)
  (junkl ^val <a>)
  (junkr ^val <b>)
-->
  (remove 2))
`)
	// 30 items and 20 junkr make one cross firing (a junkl removal)
	// examine ~30 + 30*20 candidates — over budget — while one eat
	// firing (an item removal) examines ~8 + 8*20, under it.
	for i := 0; i < 30; i++ {
		writeMake(&b, "item", i)
	}
	for i := 0; i < 8; i++ {
		writeMake(&b, "junkl", i)
	}
	for i := 0; i < 20; i++ {
		writeMake(&b, "junkr", i)
	}
	e := budgetEngine(t, b.String())
	res, err := e.Run(engine.Options{
		MaxCycles: 500, RecordFiring: true, CheckEvery: true,
		MatchBudget: 200,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	q := e.Quarantined()
	if len(q) != 1 || q[0].Rule != "cross" {
		t.Fatalf("quarantined = %+v, want exactly [cross]", q)
	}
	// After the trip no cross instantiation may fire, and every item must
	// still be eaten: the post-excise conflict set kept serving eat.
	trip := q[0].Cycle
	eats := 0
	for _, f := range res.Firings {
		if f.Rule == "eat" {
			eats++
		}
		if f.Rule == "cross" && f.Cycle > trip {
			t.Fatalf("cross fired at cycle %d, after its quarantine at cycle %d", f.Cycle, trip)
		}
	}
	if eats != 30 {
		t.Fatalf("eat fired %d times, want 30 (one per item)", eats)
	}
	// Items all eaten; junkr untouched; junkl reduced only by pre-trip
	// cross firings.
	if res.WMSize < 20 || res.WMSize > 27 {
		t.Fatalf("end WM size %d, want within [20,27]", res.WMSize)
	}
}

// TestMatchBudgetContainsCrossProduct is the budget's gate on the
// no-equality-test kernel (workload.CrossProduct): crossp's condition
// elements share no variables, so no join order avoids its quadratic
// obj x obj scan. A budget below one probe's scan must trip and
// quarantine crossp on vs2 and on the parallel matcher at 1 and 4
// processes, and on vs2 the budgeted run must examine at least 10x fewer
// opposite-memory tokens than the unbudgeted one (measured ~400x).
func TestMatchBudgetContainsCrossProduct(t *testing.T) {
	const budget, minContainment = 300, 10
	src := workload.CrossProduct(24, 30)
	// run plays src to halt under the given budget (0 = none), on vs2 for
	// procs 0 and on the parallel matcher otherwise, and returns the
	// opposite tokens examined.
	run := func(procs int, limit int64) (*engine.Engine, int64) {
		prog, err := ops5.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		net, err := rete.Compile(prog)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		cs := conflict.NewSet()
		var m interface {
			engine.Matcher
			engine.JoinExaminer
		}
		if procs == 0 {
			m = seqmatch.New(net, seqmatch.VS2, 0, cs)
		} else {
			pm := parmatch.New(net, parmatch.Config{Procs: procs, Queues: 4}, cs)
			defer pm.Close()
			m = pm
		}
		e, err := engine.New(prog, net, cs, m, nil)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		if err := e.Init(); err != nil {
			t.Fatalf("init: %v", err)
		}
		res, err := e.Run(engine.Options{MaxCycles: 1000, MatchBudget: limit})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !res.Halted {
			t.Fatalf("run did not halt (%d cycles)", res.Cycles)
		}
		var examined int64
		for _, n := range m.JoinExamined() {
			examined += n
		}
		return e, examined
	}
	_, free := run(0, 0)
	for _, procs := range []int{0, 1, 4} {
		e, capped := run(procs, budget)
		q := e.Quarantined()
		if len(q) != 1 || q[0].Rule != "crossp" || e.EpochStats().BudgetTrips != 1 {
			t.Errorf("procs %d: quarantined %+v after %d trips, want crossp once",
				procs, q, e.EpochStats().BudgetTrips)
		}
		if procs != 0 {
			continue
		}
		gain := float64(free) / float64(capped)
		t.Logf("opposite tokens examined: unbudgeted %d, budgeted %d (%.1fx)", free, capped, gain)
		if capped == 0 || gain < minContainment {
			t.Errorf("cross-product containment %.2fx < %dx — the match budget is not containing the quadratic rule",
				gain, minContainment)
		}
	}
}
