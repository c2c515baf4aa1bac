package engine_test

import (
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/wm"
)

// acceptMixSrc interleaves input-consuming rules with chains that run
// between the reads.
const acceptMixSrc = `
(literalize reading n v)
(literalize slot n)
(literalize done n)
(p read-slot
  (slot ^n <n>)
-->
  (make reading ^n <n> ^v (accept))
  (remove 1))
(p settle
  (reading ^n <n> ^v <v>)
-->
  (make done ^n <n>)
  (remove 1))
(make slot ^n 1)
(make slot ^n 2)
(make slot ^n 3)
`

// freshSuspendingEngine wires an engine whose QueueIO does NOT fall
// back to end-of-file: an empty queue suspends the run. init false
// leaves the engine empty, the starting point RestoreState expects.
func freshSuspendingEngine(t *testing.T, src string, init bool) (*engine.Engine, *engine.QueueIO) {
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
	q := engine.NewQueueIO(prog.Symbols, false)
	e.IO = q
	if init {
		if err := e.Init(); err != nil {
			t.Fatalf("init: %v", err)
		}
	}
	return e, q
}

func buildSuspendingEngine(t *testing.T, src string) (*engine.Engine, *engine.QueueIO) {
	t.Helper()
	return freshSuspendingEngine(t, src, true)
}

// TestRunSuspendsAwaitingInput: with no end-of-file fallback, a
// dominant instantiation that reads input parks the run (the
// instantiation stays unfired in the conflict set) and a later Run
// resumes exactly there once values arrive.
func TestRunSuspendsAwaitingInput(t *testing.T) {
	e, _ := buildSuspendingEngine(t, acceptMixSrc)
	res, err := e.Run(engine.Options{MaxCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AwaitingInput || res.Cycles != 0 {
		t.Fatalf("first run: %+v", res)
	}
	// One value releases one read-slot (and its settle chain); the next
	// read-slot suspends again.
	if err := e.SupplyInput([]wm.Value{wm.Int(10)}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Run(engine.Options{MaxCycles: 50, RecordFiring: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AwaitingInput {
		t.Fatalf("second run should suspend again: %+v", res)
	}
	// The rest of the script drains the remaining slots.
	if err := e.SupplyInput([]wm.Value{wm.Int(20), wm.Int(30)}); err != nil {
		t.Fatal(err)
	}
	res, err = e.Run(engine.Options{MaxCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.AwaitingInput {
		t.Fatalf("final run still suspended: %+v", res)
	}
	var done int
	for _, w := range e.WM.Snapshot() {
		if strings.HasPrefix(w.String(e.Prog.Symbols, e.Prog.AttrName), "(done") {
			done++
		}
	}
	if done != 3 {
		t.Fatalf("done = %d, want 3", done)
	}
}

// TestQueueIOPendingIsolation: Pending returns a copy, so snapshot and
// rollback code can never observe (or cause) half-consumed mutation of
// the live queue through a shared backing array.
func TestQueueIOPendingIsolation(t *testing.T) {
	e, q := buildSuspendingEngine(t, acceptMixSrc)
	if err := e.SupplyInput([]wm.Value{wm.Int(10), wm.Int(20), wm.Int(30)}); err != nil {
		t.Fatal(err)
	}
	snap := q.Pending()
	snap[0] = wm.Int(999) // must not write through to the queue
	if got := q.Pending()[0]; got != wm.Int(10) {
		t.Fatalf("queue observed external mutation: %v", got)
	}
	// Capture state with the queue full, drain part of it, then restore
	// the snapshot into a fresh engine: the pending input must rewind
	// with working memory.
	st := e.CaptureState()
	res, err := e.Run(engine.Options{MaxCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles != 2 || q.Len() == 3 {
		t.Fatalf("mid-run state: cycles=%d pending=%d", res.Cycles, q.Len())
	}
	e2, q2 := freshSuspendingEngine(t, acceptMixSrc, false)
	if err := e2.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 3 || q2.Pending()[0] != wm.Int(10) {
		t.Fatalf("restore did not rewind the input queue: len=%d", q2.Len())
	}
	// The restored engine replays the whole script identically.
	res, err = e2.Run(engine.Options{MaxCycles: 50})
	if err != nil {
		t.Fatal(err)
	}
	if res.AwaitingInput || res.Cycles != 6 {
		t.Fatalf("restored run: %+v", res)
	}
}

// TestMEARecencyWithVectorWMEs: vector-attribute WMEs participate in
// conflict resolution like any other element — under MEA the newer
// vector WME wins the tie on the non-goal condition elements.
func TestMEARecencyWithVectorWMEs(t *testing.T) {
	src := `
(strategy mea)
(literalize goal name)
(literalize vec elt)
(vector-attribute elt)
(p pick
  (goal ^name go)
  (vec ^elt a <x>)
-->
  (write picked <x> (crlf))
  (halt))
(make goal ^name go)
(make vec ^elt a b)
(make vec ^elt a c)
`
	e, out := buildEngine(t, src, nil)
	res, err := e.Run(engine.Options{MaxCycles: 5, RecordFiring: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || !strings.HasPrefix(out.String(), "picked c") {
		t.Fatalf("halted=%v output=%q", res.Halted, out.String())
	}
}
