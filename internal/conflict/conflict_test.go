package conflict_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
)

// mkRule builds a minimal compiled rule with the given index and
// specificity for conflict-set tests.
func mkRule(idx, spec int, name string) *rete.CompiledRule {
	return &rete.CompiledRule{
		Rule:        &ops5.Rule{Name: name},
		Index:       idx,
		Specificity: spec,
	}
}

func mkWME(tag int) *wm.WME {
	return &wm.WME{TimeTag: tag, Fields: []wm.Value{wm.Sym(1)}}
}

func lexSet() *conflict.Set { return conflict.NewSet() }
func meaSet() *conflict.Set { return conflict.New(conflict.Config{Strategy: conflict.Mea}) }

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]conflict.Strategy{
		"": conflict.Lex, "lex": conflict.Lex, "mea": conflict.Mea,
	} {
		got, err := conflict.ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := conflict.ParseStrategy("dfs"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown strategy")
	}
}

func TestLEXPrefersRecency(t *testing.T) {
	cs := lexSet()
	old := mkRule(0, 5, "old")
	young := mkRule(1, 5, "young")
	cs.InsertInstantiation(old, []*wm.WME{mkWME(1), mkWME(2)})
	cs.InsertInstantiation(young, []*wm.WME{mkWME(1), mkWME(9)})
	got := cs.Select()
	if got == nil || got.Rule != young {
		t.Fatalf("LEX selected %v, want young", got)
	}
}

func TestLEXComparesSortedDescending(t *testing.T) {
	cs := lexSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	// a: tags {9, 1}; b: tags {9, 5}. First elements tie at 9; b wins on 5 > 1.
	cs.InsertInstantiation(a, []*wm.WME{mkWME(9), mkWME(1)})
	cs.InsertInstantiation(b, []*wm.WME{mkWME(5), mkWME(9)}) // order in wmes irrelevant
	if got := cs.Select(); got.Rule != b {
		t.Fatalf("selected %s, want b", got.Rule.Rule.Name)
	}
}

func TestLEXLongerDominatesOnPrefixTie(t *testing.T) {
	cs := lexSet()
	shorter := mkRule(0, 5, "short")
	longer := mkRule(1, 5, "long")
	cs.InsertInstantiation(shorter, []*wm.WME{mkWME(7)})
	cs.InsertInstantiation(longer, []*wm.WME{mkWME(7), mkWME(3)})
	if got := cs.Select(); got.Rule != longer {
		t.Fatalf("selected %s, want longer instantiation", got.Rule.Rule.Name)
	}
}

func TestLEXSpecificityBreaksTies(t *testing.T) {
	cs := lexSet()
	plain := mkRule(0, 2, "plain")
	specific := mkRule(1, 9, "specific")
	w := mkWME(4)
	cs.InsertInstantiation(plain, []*wm.WME{w})
	cs.InsertInstantiation(specific, []*wm.WME{w})
	if got := cs.Select(); got.Rule != specific {
		t.Fatalf("selected %s, want specific", got.Rule.Rule.Name)
	}
}

func TestMEAUsesFirstCE(t *testing.T) {
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	// a's first CE wme is newer (tag 8), but b has higher overall recency.
	insert := func(cs *conflict.Set) {
		cs.InsertInstantiation(a, []*wm.WME{mkWME(8), mkWME(2)})
		cs.InsertInstantiation(b, []*wm.WME{mkWME(3), mkWME(9)})
	}
	mea := meaSet()
	insert(mea)
	if got := mea.Select(); got.Rule != a {
		t.Fatalf("MEA selected %s, want a (first-CE recency)", got.Rule.Rule.Name)
	}
	lex := lexSet()
	insert(lex)
	if got := lex.Select(); got.Rule != b {
		t.Fatalf("LEX selected %s, want b", got.Rule.Rule.Name)
	}
}

// The MEA tie-break chain: equal first-CE tags fall through to LEX
// recency, then specificity, then rule order.
func TestMEATieFallsThroughToLEX(t *testing.T) {
	cs := meaSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	// First CEs tie at tag 7; b's remaining recency {7,9} beats {7,2}.
	cs.InsertInstantiation(a, []*wm.WME{mkWME(7), mkWME(2)})
	cs.InsertInstantiation(b, []*wm.WME{mkWME(7), mkWME(9)})
	if got := cs.Select(); got.Rule != b {
		t.Fatalf("MEA first-CE tie selected %s, want b (LEX fallback)", got.Rule.Rule.Name)
	}
}

func TestMEATieFallsThroughToSpecificity(t *testing.T) {
	cs := meaSet()
	plain := mkRule(0, 2, "plain")
	specific := mkRule(1, 9, "specific")
	// Identical WMEs: first-CE and LEX recency both tie.
	w := []*wm.WME{mkWME(6), mkWME(3)}
	cs.InsertInstantiation(plain, w)
	cs.InsertInstantiation(specific, w)
	if got := cs.Select(); got.Rule != specific {
		t.Fatalf("MEA recency tie selected %s, want specific", got.Rule.Rule.Name)
	}
}

func TestMEATieFallsThroughToRuleOrder(t *testing.T) {
	cs := meaSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	w := []*wm.WME{mkWME(6)}
	cs.InsertInstantiation(b, w)
	cs.InsertInstantiation(a, w)
	if got := cs.Select(); got.Rule != a {
		t.Fatalf("full MEA tie selected %s, want a (rule order)", got.Rule.Rule.Name)
	}
}

func TestUseStrategyInvalidatesCachedBests(t *testing.T) {
	cs := lexSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	cs.InsertInstantiation(a, []*wm.WME{mkWME(8), mkWME(2)})
	cs.InsertInstantiation(b, []*wm.WME{mkWME(3), mkWME(9)})
	if got := cs.Select(); got.Rule != b {
		t.Fatalf("LEX selected %s, want b", got.Rule.Rule.Name)
	}
	cs.UseStrategy(conflict.Mea)
	if got := cs.Select(); got.Rule != a {
		t.Fatalf("after UseStrategy(Mea) selected %s, want a", got.Rule.Rule.Name)
	}
}

// Refraction and fired compaction: a fired instantiation is never
// selected again, leaves the live index (Live) but stays in the set
// (Len, Fired) until its terminal minus retracts it.
func TestRefractionCompactsFired(t *testing.T) {
	cs := lexSet()
	r := mkRule(0, 5, "r")
	w := []*wm.WME{mkWME(1)}
	cs.InsertInstantiation(r, w)
	inst := cs.Select()
	cs.MarkFired(inst)
	if got := cs.Select(); got != nil {
		t.Fatalf("fired instantiation selected again: %v", got)
	}
	if cs.Live() != 0 || cs.Fired() != 1 || cs.Len() != 1 {
		t.Fatalf("after fire: live=%d fired=%d len=%d, want 0/1/1", cs.Live(), cs.Fired(), cs.Len())
	}
	// The WME retract eventually reaches the terminal: the fired entry
	// must still be findable, and removing it drains the set fully.
	cs.RemoveInstantiation(r, w)
	if cs.Live() != 0 || cs.Fired() != 0 || cs.Len() != 0 || !cs.Drained() {
		t.Fatalf("after retract: live=%d fired=%d len=%d drained=%v, want all zero/true",
			cs.Live(), cs.Fired(), cs.Len(), cs.Drained())
	}
}

// Long-running sessions fire many instantiations; the fired entries
// must not linger once their WMEs retract (the old set kept every
// fired instantiation forever).
func TestFiredSetDoesNotGrowUnbounded(t *testing.T) {
	cs := lexSet()
	r := mkRule(0, 5, "r")
	for i := 1; i <= 1000; i++ {
		w := []*wm.WME{mkWME(i)}
		cs.InsertInstantiation(r, w)
		cs.MarkFired(cs.Select())
		cs.RemoveInstantiation(r, w)
	}
	if cs.Len() != 0 || cs.Fired() != 0 {
		t.Fatalf("len=%d fired=%d after 1000 fire/retract rounds, want 0/0", cs.Len(), cs.Fired())
	}
}

func TestRemoveInstantiation(t *testing.T) {
	cs := lexSet()
	r := mkRule(0, 5, "r")
	w := []*wm.WME{mkWME(1), mkWME(2)}
	cs.InsertInstantiation(r, w)
	cs.RemoveInstantiation(r, w)
	if cs.Len() != 0 {
		t.Fatalf("Len = %d after remove", cs.Len())
	}
	if got := cs.Select(); got != nil {
		t.Fatalf("removed instantiation still selectable")
	}
}

func TestEarlyDeleteAnnihilatesWithInsert(t *testing.T) {
	cs := lexSet()
	r := mkRule(0, 5, "r")
	w := []*wm.WME{mkWME(1)}
	// Out-of-order terminal activations, as the parallel matcher produces.
	cs.RemoveInstantiation(r, w)
	if cs.Drained() {
		t.Fatal("pending delete should be parked")
	}
	cs.InsertInstantiation(r, w)
	if !cs.Drained() {
		t.Fatal("insert should annihilate the parked delete")
	}
	if cs.Len() != 0 {
		t.Fatalf("Len = %d, want 0", cs.Len())
	}
	if st := cs.StatsSnapshot(); st.Annihilations != 1 || st.Inserts != 1 || st.Deletes != 1 {
		t.Fatalf("stats = %+v, want 1 insert/delete/annihilation", st)
	}
}

func TestDeterministicFinalTieBreak(t *testing.T) {
	cs := lexSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	w := mkWME(3)
	cs.InsertInstantiation(b, []*wm.WME{w})
	cs.InsertInstantiation(a, []*wm.WME{w})
	first := cs.Select()
	for i := 0; i < 10; i++ {
		if got := cs.Select(); got != first {
			t.Fatal("Select is not deterministic under full ties")
		}
	}
	if first.Rule != a {
		t.Fatalf("tie should break to lower rule index, got %s", first.Rule.Rule.Name)
	}
}

// Removing the cached best must surface the runner-up on the next
// Select (lazy invalidation + rescan).
func TestSelectAfterBestRemoved(t *testing.T) {
	cs := lexSet()
	rules := make([]*rete.CompiledRule, 8)
	for i := range rules {
		rules[i] = mkRule(i, 5, fmt.Sprintf("r%d", i))
		cs.InsertInstantiation(rules[i], []*wm.WME{mkWME(i + 1)})
	}
	for i := len(rules) - 1; i >= 0; i-- {
		got := cs.Select()
		if got == nil || got.Rule != rules[i] {
			t.Fatalf("step %d selected %v, want r%d", i, got, i)
		}
		cs.RemoveInstantiation(rules[i], got.Wmes)
	}
	if cs.Select() != nil || cs.Len() != 0 {
		t.Fatal("set should be empty")
	}
}

func TestSnapshotIncludesFired(t *testing.T) {
	cs := lexSet()
	a := mkRule(0, 5, "a")
	b := mkRule(1, 5, "b")
	cs.InsertInstantiation(a, []*wm.WME{mkWME(1)})
	cs.InsertInstantiation(b, []*wm.WME{mkWME(2)})
	cs.MarkFired(cs.Select())
	snap := cs.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d entries, want 2 (live + fired)", len(snap))
	}
	fired := 0
	for _, inst := range snap {
		if inst.Fired {
			fired++
		}
	}
	if fired != 1 {
		t.Fatalf("snapshot has %d fired entries, want 1", fired)
	}
}

// Terminal plus/minus storm in arbitrary order: every (rule, wmes) key
// gets exactly one insert and one remove, shuffled, so a remove that
// comes first must park as a pending delete and annihilate with its
// insert, and one that comes second must cancel the live entry — either
// way the set ends empty and drained.
func TestPlusMinusStormAnyOrder(t *testing.T) {
	cs := lexSet()
	rules := [3]*rete.CompiledRule{
		mkRule(0, 1, "r0"), mkRule(1, 2, "r1"), mkRule(2, 3, "r2"),
	}
	type op struct {
		sign bool
		rule *rete.CompiledRule
		wmes []*wm.WME
	}
	const keys = 4000
	ops := make([]op, 0, 2*keys)
	for i := 0; i < keys; i++ {
		w := []*wm.WME{mkWME(i + 1), mkWME(i + 2)}
		ops = append(ops, op{true, rules[i%3], w}, op{false, rules[i%3], w})
	}
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for _, o := range ops {
		if o.sign {
			cs.InsertInstantiation(o.rule, o.wmes)
		} else {
			cs.RemoveInstantiation(o.rule, o.wmes)
		}
	}
	if !cs.Drained() {
		t.Fatal("pending deletes remain after the storm")
	}
	if cs.Len() != 0 || cs.Live() != 0 {
		t.Fatalf("len=%d live=%d after balanced storm, want 0", cs.Len(), cs.Live())
	}
	st := cs.StatsSnapshot()
	if st.Inserts != keys || st.Deletes != keys || st.Annihilations == 0 || st.Annihilations == keys {
		t.Fatalf("stats = %+v, want %d inserts and deletes and some but not all annihilated", st, keys)
	}
}

// Property: dominance is asymmetric — a and b can never dominate each
// other — across randomized instantiations under both strategies.
func TestDominanceAsymmetric(t *testing.T) {
	f := func(tagsA, tagsB []uint8, specA, specB uint8, mea bool) bool {
		st := conflict.Lex
		if mea {
			st = conflict.Mea
		}
		mkWmes := func(tags []uint8) []*wm.WME {
			wmes := make([]*wm.WME, 0, len(tags)%5+1)
			for i := 0; i <= len(tags)%5 && i < len(tags); i++ {
				wmes = append(wmes, mkWME(int(tags[i])+1))
			}
			if len(wmes) == 0 {
				wmes = append(wmes, mkWME(1))
			}
			return wmes
		}
		// Use a shared set so Select's dominance drives the comparison.
		cs := conflict.New(conflict.Config{Strategy: st})
		cs.InsertInstantiation(mkRule(0, int(specA), "a"), mkWmes(tagsA))
		cs.InsertInstantiation(mkRule(1, int(specB), "b"), mkWmes(tagsB))
		first := cs.Select()
		// Selecting repeatedly is stable (deterministic total preorder).
		for i := 0; i < 3; i++ {
			if cs.Select() != first {
				return false
			}
		}
		return first != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
