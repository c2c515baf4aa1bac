package tables

import (
	"fmt"
	"sort"
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

// bigmemDiffSrc is an engine-runnable version of the bigmem kernel: n
// account/transaction pairs consumed through the single equality join,
// with a control element adding a third condition so the rule is
// eligible for reordering.
func bigmemDiffSrc(n int) string {
	var b strings.Builder
	b.WriteString(`; bigmem differential: pair off accts and txns through one eq join.
(literalize ctl on)
(literalize acct id)
(literalize txn id)
(p pay
  (ctl ^on yes)
  (acct ^id <i>)
  (txn ^id <i>)
-->
  (remove 3))
(p done
  (ctl ^on yes)
  - (txn)
-->
  (halt))
(make ctl ^on yes)
`)
	for v := 1; v <= n; v++ {
		fmt.Fprintf(&b, "(make acct ^id %d)\n(make txn ^id %d)\n", v, v)
	}
	return b.String()
}

// sweepSrc generates the Sweep workload: a context element plus n
// items, one pure-removal rule that clears them, and a halt rule that
// fires once the last item is gone — a negated CE whose blockers leave
// one per cycle.
func sweepSrc(items int) string {
	var b strings.Builder
	b.WriteString("; Sweep: removal storm.\n")
	b.WriteString("(literalize ctx phase)\n(literalize item n)\n")
	b.WriteString(`(p sweep
  (ctx ^phase go)
  (item ^n <n>)
-->
  (remove 2))
(p done
  (ctx ^phase go)
- (item ^n <nn>)
-->
  (halt))
(make ctx ^phase go)
`)
	for i := 1; i <= items; i++ {
		fmt.Fprintf(&b, "(make item ^n %d)\n", i)
	}
	return b.String()
}

// reorderFingerprint runs spec on one backend under one compile mode
// and returns a canonical transcript: every firing with its time tags,
// the final WM (tag + fields, sorted), the next time tag, and the
// program's write output. Any semantic divergence between join orders
// shows up as a fingerprint mismatch.
func reorderFingerprint(t *testing.T, spec Spec, backend string, reorder bool) string {
	t.Helper()
	prog, err := ops5.Parse(spec.Src)
	if err != nil {
		t.Fatalf("%s: parse: %v", spec.Name, err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: reorder})
	if err != nil {
		t.Fatalf("%s: compile (reorder=%v): %v", spec.Name, reorder, err)
	}
	var m engine.Matcher
	var cs *conflict.Set
	switch backend {
	case "vs1", "vs2":
		variant := seqmatch.VS1
		if backend == "vs2" {
			variant = seqmatch.VS2
		}
		cs = conflict.NewSet()
		m = seqmatch.New(net, variant, 0, cs)
	case "parallel":
		cs = conflict.NewSet()
		pm := parmatch.New(net, parmatch.Config{
			Procs: 4, Queues: 2, Scheme: parmatch.SchemeSimple,
		}, cs)
		defer pm.Close()
		m = pm
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	var out strings.Builder
	e, err := engine.New(prog, net, cs, m, &out)
	if err != nil {
		t.Fatalf("%s: engine: %v", spec.Name, err)
	}
	if err := e.Init(); err != nil {
		t.Fatalf("%s: init: %v", spec.Name, err)
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles, RecordFiring: true})
	if err != nil {
		t.Fatalf("%s/%s (reorder=%v): run: %v", spec.Name, backend, reorder, err)
	}
	if !res.Halted {
		t.Fatalf("%s/%s (reorder=%v): did not halt in %d cycles", spec.Name, backend, reorder, res.Cycles)
	}
	var b strings.Builder
	for _, f := range res.Firings {
		fmt.Fprintf(&b, "fire %s @%d %v\n", f.Rule, f.Cycle, f.TimeTags)
	}
	snap := e.CaptureState()
	wmes := make([]string, len(snap.Wmes))
	for i, w := range snap.Wmes {
		wmes[i] = fmt.Sprintf("wm %d %v", w.Tag, w.Fields)
	}
	sort.Strings(wmes)
	b.WriteString(strings.Join(wmes, "\n"))
	fmt.Fprintf(&b, "\nnexttag %d\nout %q\n", snap.NextTag, out.String())
	return b.String()
}

// TestReorderDifferential is the `make reorder-differential` gate:
// every workload compiled with the join-order planner must produce
// byte-identical firing traces (rules + time tags + cycles), final
// working memory and program output as the source-order compile, on
// every matcher backend. This is the
// semantic contract of the planner's TokenPerm remapping — reordering
// may change how much work the match does, never what it computes.
func TestReorderDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("reorder differential sweep is slow")
	}
	specs := []Spec{
		{Name: "Tourney", Src: workload.Tourney(8)},
		{Name: "Weaver", Src: workload.Weaver(4, 7)},
		{Name: "Sweep", Src: sweepSrc(200)},
		{Name: "bigmem", Src: bigmemDiffSrc(64)},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			for _, backend := range []string{"vs1", "vs2", "parallel"} {
				backend := backend
				t.Run(backend, func(t *testing.T) {
					ref := reorderFingerprint(t, spec, backend, false)
					got := reorderFingerprint(t, spec, backend, true)
					if got == ref {
						return
					}
					refLines, gotLines := strings.Split(ref, "\n"), strings.Split(got, "\n")
					for i := range refLines {
						line := "<missing>"
						if i < len(gotLines) {
							line = gotLines[i]
						}
						if refLines[i] != line {
							t.Fatalf("reorder diverges from source order at line %d:\n source  %q\n reorder %q",
								i, refLines[i], line)
						}
					}
					t.Fatalf("reorder transcript longer than source order: %d vs %d lines",
						len(gotLines), len(refLines))
				})
			}
		})
	}
}
