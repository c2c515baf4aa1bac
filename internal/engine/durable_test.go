package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/wm"
)

// restoreSrc fires see twice, halts on the second, and leaves see's
// first instantiation live and unfired.
const restoreSrc = `
(literalize item n)
(literalize seen n)
(p see (item ^n <n>) --> (make seen ^n <n>))
(p stop (seen ^n 2) --> (halt))
(make item ^n 1)
(make item ^n 2)
(make item ^n 3)
`

// TestRestoreStateReproducesCapture pins RestoreState to the state it
// was given: a snapshot with every field set — a runtime program change,
// fired keys, pending accept input, the halt flag, and a tag counter
// above every live tag — restores on a fresh engine to the same captured
// state and the same counter.
func TestRestoreStateReproducesCapture(t *testing.T) {
	e, _ := buildSuspendingEngine(t, restoreSrc)
	if _, err := e.Run(engine.Options{MaxCycles: 10}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddRules("(p recall (seen ^n <n>) --> (write <n>))"); err != nil {
		t.Fatal(err)
	}
	if err := e.SupplyInput([]wm.Value{wm.Int(7), wm.Int(8)}); err != nil {
		t.Fatal(err)
	}
	// Removing the newest WME leaves the tag counter above every live tag.
	newest := e.WM.NextTag() - 1
	if ok, err := e.Retract(newest); err != nil || !ok {
		t.Fatalf("retract %d: ok=%v err=%v", newest, ok, err)
	}

	st := e.CaptureState()
	maxTag := 0
	for _, w := range st.Wmes {
		maxTag = max(maxTag, w.Tag)
	}
	if len(st.Program) == 0 || len(st.Fired) == 0 || len(st.Pending) == 0 || !st.Halted || st.NextTag <= maxTag+1 {
		t.Fatalf("source snapshot leaves a field unset: program=%d fired=%d pending=%d halted=%v next=%d max=%d",
			len(st.Program), len(st.Fired), len(st.Pending), st.Halted, st.NextTag, maxTag)
	}
	want, err := st.Hash()
	if err != nil {
		t.Fatal(err)
	}

	r, _ := freshSuspendingEngine(t, restoreSrc, false)
	if err := r.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	got, err := r.CaptureState().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("restored state hash %x, captured %x", got[:8], want[:8])
	}
	if n := r.WM.NextTag(); n != st.NextTag {
		t.Errorf("restored NextTag %d, captured %d", n, st.NextTag)
	}
}
