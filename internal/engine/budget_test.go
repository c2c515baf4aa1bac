package engine_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
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

// TestReplanJoins checks the live re-planner: a rule compiled in source
// order is recompiled under measured working-memory cardinalities, and
// the most selective condition element leads the new order.
func TestReplanJoins(t *testing.T) {
	var b strings.Builder
	b.WriteString(`
(literalize aa val)
(literalize bb val)
(literalize cc val)
(p r
  (aa ^val <v>)
  (bb ^val <v>)
  (cc ^val <v>)
-->
  (halt))
`)
	// Cardinalities 12 / 5 / 1, but no value shared across all three
	// classes, so the rule never fires.
	for i := 0; i < 12; i++ {
		writeMake(&b, "aa", i+100)
	}
	for i := 0; i < 5; i++ {
		writeMake(&b, "bb", i+200)
	}
	writeMake(&b, "cc", 300)
	e := budgetEngine(t, b.String())
	if cr := e.Net.RuleByName("r"); cr.Order != nil {
		t.Fatalf("static compile produced order %v, want source order", cr.Order)
	}
	replanned, err := e.ReplanJoins()
	if err != nil {
		t.Fatalf("replan: %v", err)
	}
	if len(replanned) != 1 || replanned[0] != "r" {
		t.Fatalf("replanned = %v, want [r]", replanned)
	}
	cr := e.Net.RuleByName("r")
	want := []int{2, 1, 0} // cc (1 element) first, then bb (5), then aa (12)
	if len(cr.Order) != len(want) {
		t.Fatalf("order = %v, want %v", cr.Order, want)
	}
	for i := range want {
		if cr.Order[i] != want[i] {
			t.Fatalf("order = %v, want %v", cr.Order, want)
		}
	}
	// A second replan under unchanged working memory is a no-op.
	replanned, err = e.ReplanJoins()
	if err != nil {
		t.Fatalf("second replan: %v", err)
	}
	if len(replanned) != 0 {
		t.Fatalf("second replan recompiled %v, want nothing", replanned)
	}
}
