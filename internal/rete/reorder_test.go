package rete_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/workload"
)

var reorderOn = rete.PlanConfig{Reorder: true}

func parseRule(t *testing.T, src string) (*ops5.Program, *ops5.Rule) {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(prog.Rules) == 0 {
		t.Fatal("no rules parsed")
	}
	return prog, prog.Rules[0]
}

func compilePlanned(t *testing.T, src string, pc rete.PlanConfig) *rete.Network {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.CompileWithPlan(prog, pc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return net
}

// TestPlanOrderSelectiveFirst: the planner moves the constant-rich
// (selective) condition element to the front and equality-joins the
// unselective ones behind it, keeping ties in source order.
func TestPlanOrderSelectiveFirst(t *testing.T) {
	_, r := parseRule(t, `
(literalize big x)
(literalize big2 x)
(literalize tiny a b x)
(p r (big ^x <v>) (big2 ^x <v>) (tiny ^a 1 ^b 2 ^x <v>) --> (halt))
`)
	got := rete.PlanOrder(r, reorderOn)
	want := []int{2, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanOrder = %v, want %v", got, want)
	}
	if rete.PlanOrder(r, rete.PlanConfig{}) != nil {
		t.Error("PlanOrder with reordering off should be nil")
	}
}

// TestPlanOrderNegatedAfterBinders: a negated CE moves as early as its
// source-bound variables allow, and never earlier.
func TestPlanOrderNegatedAfterBinders(t *testing.T) {
	_, r := parseRule(t, `
(literalize a x)
(literalize b y z)
(literalize c k x)
(p r (a ^x <v>) - (b ^y <v>) (c ^k 9 ^x <v>) --> (halt))
`)
	// c is the selective seed; it binds <v>, which makes the negated b
	// eligible immediately; a follows.
	got := rete.PlanOrder(r, reorderOn)
	want := []int{2, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PlanOrder = %v, want %v", got, want)
	}
}

// TestPlanOrderPreservesWildcards: a positive CE that would bind a
// free (locally scoped) variable of a not-yet-placed negated CE is
// deferred until the negated CE is in, because binding it first would
// turn the wildcard into a join test.
func TestPlanOrderPreservesWildcards(t *testing.T) {
	_, r := parseRule(t, `
(literalize a x)
(literalize b y z)
(literalize c z k)
(p r (a ^x <v>) - (b ^y <v> ^z <w>) (c ^z <w> ^k 1) --> (halt))
`)
	// c is selective (constant test) but binds <w>, wild in the negated
	// b; the only legal plan is the source order, reported as nil.
	if got := rete.PlanOrder(r, reorderOn); got != nil {
		t.Errorf("PlanOrder = %v, want nil (source order)", got)
	}
}

// TestPlanOrderDegenerateRules: rules the planner must leave alone.
func TestPlanOrderDegenerateRules(t *testing.T) {
	src := `
(literalize a x)
(literalize b y)
(literalize c z)
(p two (a ^x <v>) (b ^y <v>) --> (halt))
(p negfirst - (a ^x 1) (b ^y 2) (c ^z 3) --> (halt))
`
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, r := range prog.Rules {
		if got := rete.PlanOrder(r, reorderOn); got != nil {
			t.Errorf("PlanOrder(%s) = %v, want nil", r.Name, got)
		}
	}
}

// TestReorderedRuleKeepsSourceContracts: under a reordering compile the
// RHS-facing metadata (CEPos, Bindings, Specificity) must be identical
// to the source-order compile, and TokenPerm must be the permutation
// that maps network tokens back to source order.
func TestReorderedRuleKeepsSourceContracts(t *testing.T) {
	src := `
(literalize big x)
(literalize big2 x w)
(literalize tiny a b x)
(p r (big ^x <v>) (big2 ^x <v> ^w <u>) (tiny ^a 1 ^b 2 ^x <v>) --> (make big2 ^x <v> ^w <u>))
`
	srcNet := compilePlanned(t, src, rete.PlanConfig{})
	reNet := compilePlanned(t, src, reorderOn)
	s, r := srcNet.RuleByName("r"), reNet.RuleByName("r")
	if r.Order == nil || r.TokenPerm == nil {
		t.Fatalf("rule not reordered: Order=%v TokenPerm=%v", r.Order, r.TokenPerm)
	}
	if !reflect.DeepEqual(r.CEPos, s.CEPos) {
		t.Errorf("CEPos = %v, want source %v", r.CEPos, s.CEPos)
	}
	if !reflect.DeepEqual(r.Bindings, s.Bindings) {
		t.Errorf("Bindings = %v, want source %v", r.Bindings, s.Bindings)
	}
	if r.Specificity != s.Specificity {
		t.Errorf("Specificity = %d, want source %d", r.Specificity, s.Specificity)
	}
	// TokenPerm maps planned token positions to source token positions:
	// position i of the network token carries the CE placed i-th among
	// positives, which sits at source token position TokenPerm[i].
	seen := make([]bool, len(r.TokenPerm))
	for _, p := range r.TokenPerm {
		if p < 0 || p >= len(seen) || seen[p] {
			t.Fatalf("TokenPerm %v is not a permutation", r.TokenPerm)
		}
		seen[p] = true
	}
	// Order [2 0 1]: network position 0 holds tiny (source pos 2), etc.
	if want := []int{2, 0, 1}; !reflect.DeepEqual(r.TokenPerm, want) {
		t.Errorf("TokenPerm = %v, want %v", r.TokenPerm, want)
	}
}

// TestReorderGoldenDump pins the reordered compile of the paper's
// Figure 2-2 network: p1's negated C3 hoists ahead of the C2 join
// (its only bound variable comes from C1), p2 is too short to reorder.
func TestReorderGoldenDump(t *testing.T) {
	net := compilePlanned(t, figure22, reorderOn)
	got := dump(net)
	golden := filepath.Join("testdata", "figure22.reorder.dump")
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

// TestIncrementalEqualsBatchReordered: the incremental-equals-batch
// topology guarantee must hold under a reordering plan too — Recompile
// keeps the network's plan and the planner is deterministic.
func TestIncrementalEqualsBatchReordered(t *testing.T) {
	src := `
(literalize big x)
(literalize big2 x)
(literalize tiny a b x)
(literalize d y)
(p r1 (big ^x <v>) (big2 ^x <v>) (tiny ^a 1 ^b 2 ^x <v>) --> (halt))
(p r2 (big ^x <v>) (big2 ^x <v>) (tiny ^a 1 ^b 2 ^x <v>) (d ^y <v>) --> (halt))
(p r3 (tiny ^a 1 ^b 2 ^x <v>) - (d ^y <v>) (big ^x <v>) --> (halt))
`
	batch := compilePlanned(t, src, reorderOn)
	rules := batch.Prog.Rules
	net, err := rete.CompileRules(batch.Prog, nil, reorderOn)
	if err != nil {
		t.Fatalf("compile empty base: %v", err)
	}
	for i, r := range rules {
		next, err := net.Recompile(rules[:i+1])
		if err != nil {
			t.Fatalf("Recompile(+%s): %v", r.Name, err)
		}
		net = next
	}
	if got, want := dump(net), dump(batch); got != want {
		t.Errorf("incremental reordered dump differs from batch:\n--- incremental ---\n%s\n--- batch ---\n%s", got, want)
	}
}

// TestPlannerSkewGain is the planner's gate on the skewed-value join
// kernel (workload.SkewJoin). In source order the item x part join on
// one shared ^grp value comes first, so every conf modification walks
// all items x parts beta tokens; the planner puts the constant-tested
// conf first, after which that join sees at most one left token. On
// vs2 the source-order compile must examine at least 5x the
// opposite-memory tokens the planned one does (measured ~14x), and
// both must fire the same trace.
func TestPlannerSkewGain(t *testing.T) {
	const minGain = 5
	src := workload.SkewJoin(64, 40)
	run := func(pc rete.PlanConfig) (firings string, examined int64) {
		prog, err := ops5.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		net, err := rete.CompileWithPlan(prog, pc)
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
		res, err := e.Run(engine.Options{MaxCycles: 1000, RecordFiring: true})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if !res.Halted {
			t.Fatalf("run did not halt (%d cycles)", res.Cycles)
		}
		for _, n := range m.JoinExamined() {
			examined += n
		}
		return fmt.Sprint(res.Firings), examined
	}
	srcFirings, srcExamined := run(rete.PlanConfig{})
	planFirings, planExamined := run(reorderOn)
	if planFirings != srcFirings {
		t.Fatalf("planned order fired %s, source order %s", planFirings, srcFirings)
	}
	gain := float64(srcExamined) / float64(planExamined)
	t.Logf("opposite tokens examined: source %d, planned %d (%.1fx)", srcExamined, planExamined, gain)
	if planExamined == 0 || gain < minGain {
		t.Errorf("skew gain %.2fx < %dx — the planner is not beating source order on the skewed join", gain, minGain)
	}
}
