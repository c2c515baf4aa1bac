package tables

// The reproduction's golden checks. TestReorderDifferential pins what
// each program computes, and TestGoldenTables pins the counts behind
// the paper's tables. Both are edited by hand: a change that moves a
// pin on purpose edits the constant below or the testdata/*.golden file
// and says why in CHANGES.md. There is no regenerate flag, so no run of
// the tests can move a pin.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/lispemu"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/wm"
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

// pairsSrc pairs off items in both orders. The instantiations (x, y)
// and (y, x) of one pair have the same time tags, rule and specificity,
// so only LEX's final tie-break — ascending tags, first difference
// wins — picks which order fires; the other is then blocked. None of
// the paper programs ever reaches that tie-break.
const pairsSrc = `; Pairs: LEX ties broken by tag order.
(literalize start)
(literalize item n)
(literalize pair a b)
(p pair
  (item ^n <x>)
  (item ^n {<y> <> <x>})
  - (pair ^a <y> ^b <x>)
-->
  (make pair ^a <x> ^b <y>)
  (write <x> <y> (crlf)))
(p done
  (start)
-->
  (halt))
(make start)
(make item ^n 1)
(make item ^n 2)
(make item ^n 3)
(make item ^n 4)
`

// reactorAccept is the operator script of REACTOR's LOCA run: incident
// id, five instrument readings (queried most-recent fact first:
// hpis-flow, sg-level, pcs-pressure, containment-pressure,
// containment-radiation), then the log line (acceptline) swallows whole.
const reactorAccept = "case-42 10 55 30 60 80 all systems nominal"

// goldenTraces pins each program's fingerprint (reorderFingerprint) by
// its SHA-256. Weaver, Rubik and Tourney are Programs(0.2)'s. REACTOR
// (src empty: examples/reactor/reactor.ops) runs on reactorAccept; its
// fingerprint holds the diagnosis output and the audit-trail and
// operator-log vector WMEs.
var goldenTraces = []struct {
	name, src, accept, digest string
}{
	{"Weaver", workload.Weaver(4, 9), "",
		"f525af691a5525bb97c48d0252e94950213064af307a88ebed2b72d1188f9726"},
	{"Rubik", workload.Rubik(12), "",
		"196dcdaa8dcb7d41d8693c35eb2fc49dc300e0d2b66640209bbdbddec32c84a0"},
	{"Tourney", workload.Tourney(3), "",
		"6d38d86795cd99553b62d21b1a3c48140ebddd18cbc33635fd8d4b0306b2018f"},
	{"Monkeys", workload.Monkeys(), "",
		"fae6c823e19a65073235a2c205cbd3789400a949b7b994ffe96227b52251002c"},
	{"REACTOR", "", reactorAccept,
		"615eb75f88934731cc295a1599a3dfaab6fe79e220a9d18002e224a10b928ee8"},
	{"Sweep", sweepSrc(200), "",
		"1976646832ee2d3336cf88498a63adfa91f599b7086139a53413d623f18135dc"},
	{"Pairs", pairsSrc, "",
		"7a5339e2450b3161f15d233e5fa92272255763cb873452916246ac6fb7476f5e"},
	{"bigmem", bigmemDiffSrc(64), "",
		"fc8e8a138e58b76bec384227751bc436c9f30336a781fee92448dd3d696ca974"},
}

// traceBackends are the matchers every golden trace is checked on. The
// parallel matcher runs three configurations: simple line locks with 1
// and 4 processes, MRSW locks with 2.
var traceBackends = []struct {
	name string
	par  []parmatch.Config
}{
	{name: "lisp"},
	{name: "vs1"},
	{name: "vs2"},
	{name: "parallel", par: []parmatch.Config{
		{Procs: 1, Queues: 1, Scheme: parmatch.SchemeSimple},
		{Procs: 2, Queues: 2, Scheme: parmatch.SchemeMRSW},
		{Procs: 4, Queues: 2, Scheme: parmatch.SchemeSimple},
	}},
}

// reorderFingerprint runs src on one backend under one compile mode
// and returns a canonical transcript: every firing with its cycle and
// time tags, the final WM (tag + printed element, sorted), the next
// time tag, and the program's write output. accept, when not empty, is
// the (accept) input: space-separated numbers and symbols.
func reorderFingerprint(t *testing.T, src, accept, backend string, pc parmatch.Config, reorder bool) string {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: reorder})
	if err != nil {
		t.Fatalf("compile (reorder=%v): %v", reorder, err)
	}
	cs := conflict.NewSet()
	var m engine.Matcher
	switch backend {
	case "lisp":
		m = lispemu.New(prog, net, cs)
	case "vs1":
		m = seqmatch.New(net, seqmatch.VS1, 0, cs)
	case "vs2":
		m = seqmatch.New(net, seqmatch.VS2, 0, cs)
	case "parallel":
		pm := parmatch.New(net, pc, cs)
		defer pm.Close()
		m = pm
	default:
		t.Fatalf("unknown backend %q", backend)
	}
	var out strings.Builder
	e, err := engine.New(prog, net, cs, m, &out)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if accept != "" {
		q := engine.NewQueueIO(prog.Symbols, true)
		for _, f := range strings.Fields(accept) {
			if n, err := strconv.ParseInt(f, 10, 64); err == nil {
				q.Supply(wm.Int(n))
			} else {
				q.Supply(wm.Sym(prog.Symbols.Intern(f)))
			}
		}
		e.IO = q
	}
	if err := e.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles, RecordFiring: true})
	if err != nil {
		t.Fatalf("run (reorder=%v): %v", reorder, err)
	}
	if !res.Halted {
		t.Fatalf("reorder=%v: did not halt in %d cycles", reorder, res.Cycles)
	}
	var b strings.Builder
	for _, f := range res.Firings {
		fmt.Fprintf(&b, "fire %s @%d %v\n", f.Rule, f.Cycle, f.TimeTags)
	}
	var wmes []string
	for _, w := range e.WM.Snapshot() {
		wmes = append(wmes, fmt.Sprintf("wm %d %s", w.TimeTag, w.String(prog.Symbols, prog.AttrName)))
	}
	sort.Strings(wmes)
	b.WriteString(strings.Join(wmes, "\n"))
	fmt.Fprintf(&b, "\nnexttag %d\nout %q\n", e.WM.NextTag(), out.String())
	return b.String()
}

// TestReorderDifferential holds every backend to the golden traces:
// lisp, vs1, vs2 and the parallel matcher in each of its
// configurations, under the source-order and the planned compile, must
// each reproduce the pinned fingerprint — the same firings, time tags,
// working memory and output as the sequential semantics the pin
// recorded. Reordering may change how much work the match does, never
// what it computes. A mismatch names the first line that differs from
// vs2's source-order transcript. The programs run in parallel.
func TestReorderDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces are slow")
	}
	for _, g := range goldenTraces {
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			if g.src == "" {
				src, err := os.ReadFile("../../examples/reactor/reactor.ops")
				if err != nil {
					t.Fatal(err)
				}
				g.src = string(src)
			}
			ref := reorderFingerprint(t, g.src, g.accept, "vs2", parmatch.Config{}, false)
			for _, b := range traceBackends {
				t.Run(b.name, func(t *testing.T) {
					configs := b.par
					if configs == nil {
						configs = []parmatch.Config{{}}
					}
					for _, pc := range configs {
						for _, reorder := range []bool{false, true} {
							got := ref
							if b.name != "vs2" || reorder {
								got = reorderFingerprint(t, g.src, g.accept, b.name, pc, reorder)
							}
							sum := sha256.Sum256([]byte(got))
							if d := hex.EncodeToString(sum[:]); d != g.digest {
								t.Errorf("procs=%d locks=%v reorder=%v: digest %s, pinned %s%s",
									pc.Procs, pc.Scheme, reorder, d, g.digest, firstDiff(got, ref, "vs2 source order"))
							}
						}
					}
				})
			}
		})
	}
}

// firstDiff describes the first line where got differs from ref, which
// it calls refName, or nothing when they agree.
func firstDiff(got, ref, refName string) string {
	if got == ref {
		return ""
	}
	gl, rl := strings.Split(got, "\n"), strings.Split(ref, "\n")
	for i := 0; ; i++ {
		g, r := "<end>", "<end>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(rl) {
			r = rl[i]
		}
		if g != r {
			return fmt.Sprintf("\nfirst difference from %s, line %d:\n got  %q\n want %q", refName, i+1, g, r)
		}
	}
}

// checkGolden compares got, each line's trailing blanks trimmed, with
// testdata/name.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(got, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " ")
	}
	got = strings.Join(lines, "\n")
	if d := firstDiff(got, string(want), "the golden"); d != "" {
		t.Errorf("testdata/%s no longer matches; a deliberate change edits it by hand.%s\n--- got:\n%s",
			name, d, got)
	}
}

// The scale-0.2 simulation grid and ablations, run once and shared by
// TestSimTableSmall, TestAblationsSmall and TestGoldenTables.
var (
	smallSim       = sync.OnceValues(func() (*SimResults, error) { return RunSimAll(Programs(0.2)) })
	smallAblations = sync.OnceValues(func() ([]AblationRow, error) { return RunAblations(Programs(0.2)) })
)

// seqCounts renders the integer counters behind Tables 4-1..4-4. It
// reads no time.Duration, so it renders the same on any host: WM
// changes, activations per backend and the interpreter's counted work
// (4-1, 4-4), and per side the tokens examined over the activations or
// deletes they are averaged over (4-2, 4-3).
func seqCounts(sr *SeqResults) string {
	work := &Table{ID: "4-1/4-4", Title: "counted work",
		Header: []string{"PROGRAM", "WM-changes", "vs1 acts", "vs2 acts", "lisp acts", "lisp interp ops"}}
	scans := &Table{ID: "4-2/4-3", Title: "tokens examined / activations with a non-empty opposite memory, or deletes",
		Header: []string{"PROGRAM", "matcher", "left opp", "right opp", "left same", "right same"}}
	ratio := func(num, den int64) string { return fmt.Sprintf("%d/%d", num, den) }
	for _, spec := range sr.Specs {
		v1, v2, l := sr.VS1[spec.Name], sr.VS2[spec.Name], sr.Lisp[spec.Name]
		work.Rows = append(work.Rows, []string{spec.Name, fmt.Sprint(v2.Rec.M.WMChanges),
			fmt.Sprint(v1.Activations), fmt.Sprint(v2.Activations), fmt.Sprint(l.Activations), fmt.Sprint(l.InterpOps)})
		for _, r := range []*SeqRun{v1, v2} {
			m := &r.Rec.M
			scans.Rows = append(scans.Rows, []string{spec.Name, r.Variant,
				ratio(m.OppExaminedLeft, m.OppNonEmptyLeft), ratio(m.OppExaminedRight, m.OppNonEmptyRight),
				ratio(m.SameExaminedLeft, m.DeletesLeft), ratio(m.SameExaminedRight, m.DeletesRight)})
		}
	}
	return work.Render() + "\n" + scans.Render()
}

// TestGoldenTables pins the paper's tables at scale 0.2: the counters
// behind Tables 4-1..4-4 (seq_counts.golden), the simulated Tables
// 4-5..4-9 as psmbench renders them (sim_tables.golden), and the
// extension Tables A-1 and A-2 (ablations.golden). Every pinned column
// is a count or a simulated figure; no wall-clock column is rendered.
// It runs in parallel with TestSeqTablesShape.
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("the simulation grid is slow")
	}
	t.Parallel()
	sr, err := RunSeqAll(Programs(0.2), true)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "seq_counts.golden", seqCounts(sr))

	sim, err := smallSim()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range []*Table{Table45(sim), Table46(sim), Table47(sim), Table48(sim), Table49(sim)} {
		b.WriteString(tab.Render() + "\n")
	}
	checkGolden(t, "sim_tables.golden", b.String())

	rows, err := smallAblations()
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := ControlOverlapTable(Programs(0.2))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ablations.golden", AblationTable(Programs(0.2), rows).Render()+"\n"+overlap.Render())
}
