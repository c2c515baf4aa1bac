package engine_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/wm"
)

// backends enumerates the matcher backends retraction must agree across.
var backends = []struct {
	name string
	make func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func())
}{
	{"vs1", func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
		return seqmatch.New(net, seqmatch.VS1, 0, cs), func() {}
	}},
	{"vs2", func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
		return seqmatch.New(net, seqmatch.VS2, 0, cs), func() {}
	}},
	{"parallel", func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
		m := parmatch.New(net, parmatch.Config{Procs: 4}, cs)
		return m, m.Close
	}},
}

// retractSrc makes retraction observable both ways: removing a txn
// withdraws a pending pay instantiation and, through the negated CE,
// enables an idle one for the same account.
const retractSrc = `
(literalize acct id)
(literalize txn id)
(literalize note kind id)
(p pay (acct ^id <i>) (txn ^id <i>) --> (make note ^kind paid ^id <i>))
(p idle (acct ^id <i>) - (txn ^id <i>) - (note ^id <i>) --> (make note ^kind idle ^id <i>))
`

// retractRun is everything a tag-list retraction must reproduce.
type retractRun struct {
	removed  []int    // RetractBatch's return
	submits  []string // matcher submits seen by WMListener, in order
	firings  []string // the run after the retraction
	wm       []string // final working memory, tags and text
	oneGone  bool     // Retract of a live tag
	oneAgain bool     // Retract of the same tag again
	oneNever bool     // Retract of a tag that never existed
}

// retractEngine builds an engine on one backend holding accts 1..n
// (tags 1..n) and txns 1..n (tags n+1..2n), not yet run.
func retractEngine(t *testing.T, mk func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()), n int) (*engine.Engine, func()) {
	t.Helper()
	prog, err := ops5.Parse(retractSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := conflict.NewSet()
	m, closer := mk(net, cs)
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	var batch [][]wm.Value
	for _, class := range []string{"acct", "txn"} {
		cid := prog.Symbols.Intern(class)
		for i := 1; i <= n; i++ {
			fs := make([]wm.Value, prog.ClassOf(cid).NumFields())
			fs[0] = wm.Sym(cid)
			fs[1] = wm.Int(int64(i))
			batch = append(batch, fs)
		}
	}
	if _, err := e.AssertBatch(batch); err != nil {
		t.Fatalf("assert: %v", err)
	}
	return e, closer
}

// TestRetractByTagSemantics pins what the tag-indexed RetractBatch and
// Retract must keep from the snapshot-scanning ones they replace:
// unknown, duplicate and already-removed tags are skipped, the returned
// slice and the matcher submits follow request order (not tag order),
// and the firings and working memory that result are identical on every
// backend. The expected removed slice comes from a plain model of the
// contract, not from the code under test.
func TestRetractByTagSemantics(t *testing.T) {
	const n = 12
	txn := func(i int) int { return n + i }
	// Out of order, with an unknown tag, a zero, a negative, a duplicate,
	// and a tag (txn 2) a single Retract removed just before.
	request := []int{txn(9), 9999, txn(3), 0, txn(9), 4, -7, txn(2), txn(1), 4}

	model := map[int]bool{}
	for tag := 1; tag <= 2*n; tag++ {
		model[tag] = true
	}
	delete(model, txn(2))
	var wantRemoved []int
	for _, tag := range request {
		if model[tag] {
			delete(model, tag)
			wantRemoved = append(wantRemoved, tag)
		}
	}

	var ref *retractRun
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			e, closer := retractEngine(t, b.make, n)
			defer closer()
			got := &retractRun{}
			var err error
			if got.oneGone, err = e.Retract(txn(2)); err != nil {
				t.Fatalf("retract live tag: %v", err)
			}
			if got.oneAgain, err = e.Retract(txn(2)); err != nil {
				t.Fatalf("retract removed tag: %v", err)
			}
			if got.oneNever, err = e.Retract(4242); err != nil {
				t.Fatalf("retract unknown tag: %v", err)
			}
			if !got.oneGone || got.oneAgain || got.oneNever {
				t.Fatalf("Retract live/again/never = %v/%v/%v, want true/false/false", got.oneGone, got.oneAgain, got.oneNever)
			}

			e.WMListener = func(sign bool, w *wm.WME) {
				got.submits = append(got.submits, fmt.Sprintf("%v %d", sign, w.TimeTag))
			}
			if got.removed, err = e.RetractBatch(request); err != nil {
				t.Fatalf("retract batch: %v", err)
			}
			e.WMListener = nil
			if !reflect.DeepEqual(got.removed, wantRemoved) {
				t.Fatalf("removed = %v, want %v (request order, skips dropped)", got.removed, wantRemoved)
			}
			var wantSubmits []string
			for _, tag := range wantRemoved {
				wantSubmits = append(wantSubmits, fmt.Sprintf("false %d", tag))
			}
			if !reflect.DeepEqual(got.submits, wantSubmits) {
				t.Fatalf("matcher submits = %v, want %v", got.submits, wantSubmits)
			}
			if empty, err := e.RetractBatch(nil); err != nil || len(empty) != 0 {
				t.Fatalf("empty retract batch = %v, %v", empty, err)
			}

			res, err := e.Run(engine.Options{RecordFiring: true, MaxCycles: 200})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			for _, f := range res.Firings {
				got.firings = append(got.firings, fmt.Sprintf("%d %s %v", f.Cycle, f.Rule, f.TimeTags))
			}
			got.wm = snapshotWM(e)

			// Against the model: every surviving acct/txn, nothing retracted.
			for tag := 1; tag <= 2*n; tag++ {
				if live := e.WM.Get(tag) != nil; live != model[tag] {
					t.Errorf("tag %d live = %v, want %v", tag, live, model[tag])
				}
			}
			// acct 4 is gone; accts 1, 2, 3 and 9 lost their txn and idle;
			// the other seven pay.
			paid, idle := 0, 0
			for _, line := range got.wm {
				if strings.Contains(line, "^kind paid") {
					paid++
				} else if strings.Contains(line, "^kind idle") {
					idle++
				}
			}
			if paid != 7 || idle != 4 {
				t.Errorf("paid/idle notes = %d/%d, want 7/4\n%s", paid, idle, strings.Join(got.wm, "\n"))
			}

			if ref == nil {
				ref = got
				return
			}
			if !reflect.DeepEqual(got.firings, ref.firings) {
				t.Errorf("firings diverge from %s:\n got %v\nwant %v", backends[0].name, got.firings, ref.firings)
			}
			if !reflect.DeepEqual(got.wm, ref.wm) {
				t.Errorf("WM diverges from %s:\n got %v\nwant %v", backends[0].name, got.wm, ref.wm)
			}
		})
	}
}

// TestRetractOnForkLeavesTemplate forks a settled engine the way the
// server does (cloned WM index and conflict set, a thawed matcher image,
// taken as it is or after a template pin's re-slot; WME objects shared)
// and retracts on the fork: the tag lookup must go through the
// fork's own index, so the template keeps every element, still matches
// them, and can retract the same tags itself afterwards.
func TestRetractOnForkLeavesTemplate(t *testing.T) {
	for _, pin := range []bool{false, true} {
		t.Run(fmt.Sprintf("pin=%v", pin), func(t *testing.T) {
			const n = 6
			tpl, closer := retractEngine(t, func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
				return seqmatch.New(net, seqmatch.VS2, 0, cs), func() {}
			}, n)
			defer closer()
			before := snapshotWM(tpl)

			sm := tpl.Matcher.(*seqmatch.Matcher)
			if pin {
				sm.Reslot()
			}
			cs := tpl.CS.Clone()
			fork := tpl.CloneWith(tpl.WM.Clone(), cs, sm.Freeze().Thaw(cs, nil), nil)
			tags := []int{n + 2, 3, n + 5}
			removed, err := fork.RetractBatch(tags)
			if err != nil {
				t.Fatalf("fork retract: %v", err)
			}
			if !reflect.DeepEqual(removed, tags) {
				t.Fatalf("fork removed %v, want %v", removed, tags)
			}
			if got := fork.WM.Len(); got != 2*n-len(tags) {
				t.Fatalf("fork WM size %d, want %d", got, 2*n-len(tags))
			}
			if got := snapshotWM(tpl); !reflect.DeepEqual(got, before) {
				t.Fatalf("template WM changed by a retract on its fork:\n got %v\nwant %v", got, before)
			}
			for _, tag := range tags {
				if tpl.WM.Get(tag) == nil {
					t.Fatalf("template lost tag %d", tag)
				}
			}
			if got := tpl.CS.Len(); got != n {
				t.Fatalf("template conflict set has %d instantiations, want %d", got, n)
			}
			// acct 3 and txns 2, 5 are gone from the fork: pay for 1, 4, 6.
			if got := fork.CS.Len(); got != 5 {
				t.Fatalf("fork conflict set has %d instantiations, want 5 (3 pay + 2 idle)", got)
			}
			again, err := tpl.RetractBatch(tags)
			if err != nil || !reflect.DeepEqual(again, tags) {
				t.Fatalf("template retract of the same tags = %v, %v; want %v", again, err, tags)
			}
		})
	}
}

func snapshotWM(e *engine.Engine) []string {
	var out []string
	for _, w := range e.WM.Snapshot() {
		out = append(out, fmt.Sprintf("%d %s", w.TimeTag, w.String(e.Prog.Symbols, e.Prog.AttrName)))
	}
	return out
}
