package rete_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ops5"
	"repro/internal/rete"
)

func dump(n *rete.Network) string {
	var b strings.Builder
	n.Dump(&b)
	return b.String()
}

// without returns rules minus the one named name, in order.
func without(rules []*rete.CompiledRule, name string) []*ops5.Rule {
	var out []*ops5.Rule
	for _, cr := range rules {
		if cr.Rule.Name != name {
			out = append(out, cr.Rule)
		}
	}
	return out
}

// TestIncrementalEqualsBatch is the central topology guarantee: growing
// a network one rule at a time through Recompile yields, at every step,
// a network whose dump — node IDs, fan-out, refcounts, sharing — is
// byte-identical to the whole-program compile of the same rules, with
// the epoch counting the steps.
func TestIncrementalEqualsBatch(t *testing.T) {
	sources := map[string]string{
		"figure22": figure22,
		"prefix-sharing": `
(p r1 (a ^x <v>) (b ^y <v>) (c ^z 1) --> (halt))
(p r2 (a ^x <v>) (b ^y <v>) (d ^w 2) --> (halt))
(p r3 (a ^x <v>) (b ^y <v>) (c ^z 1) (d ^w <v>) --> (halt))
`,
		"single-ce-and-negated": `
(p r1 (a ^x 1) --> (halt))
(p r2 (a ^x <v>) - (b ^y <v>) --> (halt))
(p r3 (a ^x <v>) (a ^x <v>) --> (halt))
`,
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			batch := compile(t, src)
			rules := batch.Prog.Rules
			net, err := rete.CompileRules(batch.Prog, nil, rete.PlanConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range rules {
				next, err := net.Recompile(rules[:i+1])
				if err != nil {
					t.Fatalf("Recompile(+%s): %v", r.Name, err)
				}
				if next.Epoch != net.Epoch+1 {
					t.Fatalf("epoch = %d, want %d", next.Epoch, net.Epoch+1)
				}
				net = next
			}
			got, want := dump(net), dump(batch)
			if got != want {
				t.Errorf("incremental dump differs from batch compile:\n--- incremental ---\n%s\n--- batch ---\n%s", got, want)
			}
		})
	}
}

// TestFigure22GoldenDump pins the compiled topology of the paper's
// Figure 2-2 network to a golden file, refcounts included.
func TestFigure22GoldenDump(t *testing.T) {
	net := compile(t, figure22)
	got := dump(net)
	golden := filepath.Join("testdata", "figure22.dump")
	want, err := os.ReadFile(golden)
	if err == nil && got == string(want) {
		return
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	t.Errorf("dump drifted from %s (set UPDATE_GOLDEN=1 to regenerate):\n%s", golden, got)
}

// TestRemoveRuleKeepsSharedNodes recompiles the figure 2-2 network
// without p1 and checks that the C2 chain both rules share survives
// with its refcount decremented, while p1-only nodes are gone.
func TestRemoveRuleKeepsSharedNodes(t *testing.T) {
	net := compile(t, figure22)
	next, err := net.Recompile(without(net.Rules, "p1"))
	if err != nil {
		t.Fatal(err)
	}
	// p1 owns: C1 chain, C3 chain, join(C1,C2), negated join; shared: C2 chain.
	s := next.Summarize()
	if s.Chains != 2 || s.Joins != 1 || s.Rules != 1 || s.Terminals != 1 {
		t.Errorf("after excise: %+v, want 2 chains / 1 join / 1 rule / 1 terminal", s)
	}
	var c2 *rete.AlphaChain
	for _, c := range next.Chains {
		if next.Prog.Symbols.Name(c.Class) == "C2" {
			c2 = c
		}
	}
	if c2 == nil {
		t.Fatal("shared C2 chain must survive the excise")
	}
	if next.ChainRefs(c2) != 1 {
		t.Errorf("C2 refs = %d, want 1 after excise", next.ChainRefs(c2))
	}
	// The old network is untouched: a matcher still on it keeps working.
	if s := net.Summarize(); s.Rules != 2 || s.Chains != 4 || s.Joins != 3 {
		t.Errorf("old network mutated by Recompile: %+v", s)
	}
}

// TestRemoveThenReaddRestoresTopology excises and re-adds a rule; the
// resulting network has the original's shape statistics and sharing,
// and its IDs stay dense.
func TestRemoveThenReaddRestoresTopology(t *testing.T) {
	net := compile(t, figure22)
	want := net.Summarize()
	p1 := net.Prog.RuleByName("p1")
	mid, err := net.Recompile(without(net.Rules, "p1"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := mid.Recompile(append(without(mid.Rules, "p1"), p1))
	if err != nil {
		t.Fatal(err)
	}
	got := back.Summarize()
	if got.Epoch != 2 {
		t.Errorf("epoch = %d, want 2", got.Epoch)
	}
	want.Epoch = got.Epoch
	if got != want {
		t.Errorf("re-added network shape %+v, want %+v", got, want)
	}
	if back.NumJoinIDs() != net.NumJoinIDs() {
		t.Errorf("join IDs = %d, want the original %d", back.NumJoinIDs(), net.NumJoinIDs())
	}
	for i, j := range back.Joins {
		if j.ID != i {
			t.Errorf("join %d has ID %d, want dense IDs", i, j.ID)
		}
	}
}

// TestSameChainTwiceRefcounts covers a rule using one alpha chain for
// two condition elements: the refcount counts both.
func TestSameChainTwiceRefcounts(t *testing.T) {
	src := `(p r (a ^x <v>) (a ^x <v>) --> (halt))`
	net := compile(t, src)
	if len(net.Chains) != 1 {
		t.Fatalf("chains = %d, want 1 (same pattern shared)", len(net.Chains))
	}
	if net.ChainRefs(net.Chains[0]) != 2 {
		t.Fatalf("chain refs = %d, want 2 (two CEs)", net.ChainRefs(net.Chains[0]))
	}
}
