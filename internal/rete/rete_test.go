package rete_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
)

func compile(t *testing.T, src string) *rete.Network {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return net
}

// figure22 is the two-production example from the paper's Figure 2-2.
const figure22 = `
(literalize C1 attr1 attr2)
(literalize C2 attr1 attr2)
(literalize C3 attr1)
(literalize C4 attr1)
(p p1
  (C1 ^attr1 <x> ^attr2 12)
  (C2 ^attr1 15 ^attr2 <x>)
  - (C3 ^attr1 <x>)
-->
  (remove 2))
(p p2
  (C2 ^attr1 15 ^attr2 <y>)
  (C4 ^attr1 <y>)
-->
  (modify 1 ^attr1 12))
`

// TestFigure22Network checks the compiled network against the paper's
// figure: four constant-test chains (C1+attr2=12, C2+attr1=15 shared
// between both productions, C3, C4), three two-input nodes (one
// negated), two terminals.
func TestFigure22Network(t *testing.T) {
	net := compile(t, figure22)
	s := net.Summarize()
	if s.Chains != 4 {
		t.Errorf("alpha chains = %d, want 4 (C2 chain shared)", s.Chains)
	}
	if s.Joins != 3 {
		t.Errorf("two-input nodes = %d, want 3", s.Joins)
	}
	if s.NegatedJoins != 1 {
		t.Errorf("negated nodes = %d, want 1", s.NegatedJoins)
	}
	if s.Terminals != 2 {
		t.Errorf("terminals = %d, want 2", s.Terminals)
	}
	// The C2 chain must fan out to both productions' joins.
	var c2 *rete.AlphaChain
	for _, c := range net.Chains {
		if net.Prog.Symbols.Name(c.Class) == "C2" {
			c2 = c
		}
	}
	if c2 == nil || len(net.DestsOf(c2)) != 2 {
		t.Fatalf("C2 chain should feed two joins, got %+v", c2)
	}
	if net.ChainRefs(c2) != 2 {
		t.Errorf("C2 chain refs = %d, want 2 (used by both productions)", net.ChainRefs(c2))
	}
	var dump strings.Builder
	net.Dump(&dump)
	if !strings.Contains(dump.String(), "not") {
		t.Error("dump missing the negated node")
	}
}

// TestIdenticalPrefixShared verifies beta-level sharing: two rules with
// the same first two condition elements share the first join.
func TestIdenticalPrefixShared(t *testing.T) {
	net := compile(t, `
(p r1 (a ^x <v>) (b ^y <v>) (c ^z 1) --> (halt))
(p r2 (a ^x <v>) (b ^y <v>) (d ^w 2) --> (halt))
`)
	s := net.Summarize()
	// Shared: join(a,b). Distinct: join(ab,c), join(ab,d) = 3 total.
	if s.Joins != 3 {
		t.Errorf("joins = %d, want 3 (first join shared)", s.Joins)
	}
}

func TestDifferentTestsNotShared(t *testing.T) {
	net := compile(t, `
(p r1 (a ^x <v>) (b ^y <v>) --> (halt))
(p r2 (a ^x <v>) (b ^y <> <v>) --> (halt))
`)
	if s := net.Summarize(); s.Joins != 2 {
		t.Errorf("joins = %d, want 2 (different join tests)", s.Joins)
	}
}

func TestSingleCEProductionFeedsTerminalDirectly(t *testing.T) {
	net := compile(t, `(p r (a ^x 1) --> (halt))`)
	if s := net.Summarize(); s.Joins != 0 {
		t.Errorf("joins = %d, want 0", s.Joins)
	}
	dests := net.DestsOf(net.Chains[0])
	if len(dests) != 1 || dests[0].Terminal == nil {
		t.Fatal("alpha chain should feed the terminal directly")
	}
}

func TestIntraElementVariableTest(t *testing.T) {
	net := compile(t, `(p r (a ^x <v> ^y <v>) --> (halt))`)
	chain := net.Chains[0]
	found := false
	for _, ct := range chain.Tests {
		if ct.OtherField >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("repeated variable in one CE should compile to an intra-element test")
	}
}

func TestCEPosSkipsNegated(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) - (b ^y <v>) (c ^z <v>) --> (remove 3))
`)
	cr := net.Rules[0]
	want := []int{0, -1, 1}
	for i, w := range want {
		if cr.CEPos[i] != w {
			t.Errorf("CEPos[%d] = %d, want %d", i, cr.CEPos[i], w)
		}
	}
}

func TestBindingsPointAtFirstOccurrence(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) (b ^y <v> ^z <w>) --> (make c ^q <v> ^r <w>))
`)
	cr := net.Rules[0]
	if ref := cr.Bindings["v"]; ref.Pos != 0 {
		t.Errorf("<v> bound at pos %d, want 0", ref.Pos)
	}
	if ref := cr.Bindings["w"]; ref.Pos != 1 {
		t.Errorf("<w> bound at pos %d, want 1", ref.Pos)
	}
}

func TestEqVsOtherTestSplit(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) (b ^y <v> ^z > <v>) --> (halt))
`)
	j := net.Joins[0]
	if len(j.EqTests) != 1 || len(j.OtherTests) != 1 {
		t.Fatalf("eq=%d other=%d, want 1/1", len(j.EqTests), len(j.OtherTests))
	}
	if !j.HasEqTests() {
		t.Fatal("HasEqTests should be true")
	}
}

func TestCrossProductNodeHasNoEqTests(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) (b ^y <w>) --> (halt))
`)
	if net.Joins[0].HasEqTests() {
		t.Fatal("join of unrelated CEs must have no equality tests")
	}
}

// Property: for any pair of values bound to the same variable, left and
// right hashes of a join with one equality test must collide exactly
// when the values are equal-valued.
func TestJoinHashConsistency(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) (b ^y <v>) --> (halt))
`)
	j := net.Joins[0]
	slots := wm.NewSlots()
	f := func(n int64) bool {
		lw := &wm.WME{Fields: []wm.Value{wm.Sym(1), wm.Int(n)}}
		rw := &wm.WME{Fields: []wm.Value{wm.Sym(2), wm.Int(n)}}
		slots.Assign(lw)
		defer slots.Release(lw.Slot)
		return j.LeftHash(slots.View(), []uint32{lw.Slot}) == j.RightHash(rw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTestPair(t *testing.T) {
	net := compile(t, `
(p r (a ^x <v>) (b ^y <v> ^z > <v>) --> (halt))
`)
	j := net.Joins[0]
	mk := func(vals ...int64) *wm.WME {
		fs := []wm.Value{wm.Sym(1)}
		for _, v := range vals {
			fs = append(fs, wm.Int(v))
		}
		return &wm.WME{Fields: fs}
	}
	slots := wm.NewSlots()
	lw := mk(5)
	slots.Assign(lw)
	v, left := slots.View(), []uint32{lw.Slot}
	if !j.TestPair(v, left, mk(5, 9)) {
		t.Error("y=5=x and z=9>5 should pass")
	}
	if j.TestPair(v, left, mk(5, 3)) {
		t.Error("z=3 fails > test")
	}
	if j.TestPair(v, left, mk(6, 9)) {
		t.Error("y=6 fails equality")
	}
}

func TestRootDeliverCountsTests(t *testing.T) {
	net := compile(t, `
(literalize a x y)
(p r1 (a ^x 1 ^y 2) --> (halt))
(p r2 (a ^x 1 ^y 3) --> (halt))
`)
	w := &wm.WME{Fields: []wm.Value{wm.Sym(net.Prog.Symbols.Intern("a")), wm.Int(1), wm.Int(2)}}
	var hits int
	tests := net.RootDeliver(w, func(rete.AlphaDest) { hits++ })
	if hits != 1 {
		t.Errorf("deliveries = %d, want 1 (only r1 matches)", hits)
	}
	if tests < 3 {
		t.Errorf("tests evaluated = %d, want >= 3", tests)
	}
}

// TestRejectsOverlongTokens: a rule whose instantiations would hold more
// WMEs than the token store can record is a compile error, not a
// corrupt match.
func TestRejectsOverlongTokens(t *testing.T) {
	var b strings.Builder
	b.WriteString("(literalize a x)\n(p wide")
	for i := 0; i <= rete.MaxTokenLen; i++ {
		b.WriteString(" (a ^x <v>)")
	}
	b.WriteString(" --> (halt))")
	prog, err := ops5.Parse(b.String())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := rete.Compile(prog); err == nil || !strings.Contains(err.Error(), "positive condition elements") {
		t.Fatalf("compiling %d positive CEs: err = %v, want a limit error", rete.MaxTokenLen+1, err)
	}
}
