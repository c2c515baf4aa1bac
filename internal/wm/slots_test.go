package wm_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wm"
)

func add(m *wm.Memory, v int64) *wm.WME { return m.Add([]wm.Value{wm.Sym(1), wm.Int(v)}) }

// TestSlotLifetime: slots are dense; a removed element keeps its slot
// until Release, so nothing can reuse it while a matcher may still name
// it; a released slot is the next one assigned; and Clone keeps the
// numbering, then lets the two memories diverge.
func TestSlotLifetime(t *testing.T) {
	m := wm.NewMemory()
	var ws []*wm.WME
	for i := 0; i < 2000; i++ { // past one chunk of the table
		w := add(m, int64(i))
		if w.Slot != uint32(i) {
			t.Fatalf("element %d got slot %d, want %d (dense)", i, w.Slot, i)
		}
		ws = append(ws, w)
	}
	if !m.Remove(ws[3]) || !m.Remove(ws[1500]) {
		t.Fatal("remove failed")
	}
	if m.IsLive(3) || m.Slots().Get(3) != ws[3] {
		t.Fatal("a removed, unreleased slot must still resolve to its element and not count as live")
	}
	if w := add(m, 1); w.Slot != 2000 {
		t.Fatalf("add while slots 3 and 1500 await release got slot %d, want 2000", w.Slot)
	}
	c := m.Clone()
	m.Release()
	if m.Slots().Get(3) != nil || m.Slots().Get(1500) != nil {
		t.Fatal("Release left the slots assigned")
	}
	if w := add(m, 2); w.Slot != 1500 {
		t.Fatalf("first add after release got slot %d, want 1500 (newest released)", w.Slot)
	}
	if w := add(m, 3); w.Slot != 3 {
		t.Fatalf("second add after release got slot %d, want 3", w.Slot)
	}

	// The clone was taken before the release: same numbering, and the
	// original's release and reuse did not reach it.
	for i, w := range ws {
		if got := c.Slots().Get(uint32(i)); got != w {
			t.Fatalf("clone slot %d holds %v, want the template's element", i, got)
		}
	}
	c.Release()
	if w := add(c, 4); w.Slot != 1500 {
		t.Fatalf("clone reuses slot %d first, want 1500", w.Slot)
	}
	if m.Slots().Get(1500).Fields[1].Num != 2 {
		t.Fatal("a clone's reuse wrote through to the original's table")
	}
}

// TestSlotsReadWhileWritten: match processes resolve slots while the
// control process assigns, removes and releases others and the table
// grows chunk by chunk. Readers resolve elements the writer published
// to them and never releases; under the race detector this is the check
// that the read path needs no lock.
func TestSlotsReadWhileWritten(t *testing.T) {
	m := wm.NewMemory()
	const pinned = 64
	var pins [pinned * 40]*wm.WME
	var published atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				n := published.Load()
				if n == 0 {
					continue
				}
				w := pins[(int64(i)*7+int64(r))%n]
				if got := m.Slots().View().Get(w.Slot); got != w {
					t.Errorf("reader %d: slot %d resolved to %v, want %v", r, w.Slot, got, w)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 40; round++ {
		// Churn: assign, retire and release a block, growing the table.
		var churn []*wm.WME
		for i := 0; i < 300; i++ {
			churn = append(churn, add(m, int64(i)))
		}
		for _, w := range churn[:200] {
			m.Remove(w)
		}
		m.Release()
		for i := 0; i < pinned; i++ {
			pins[round*pinned+i] = add(m, -1)
		}
		published.Store(int64((round + 1) * pinned))
	}
	stop.Store(true)
	wg.Wait()
}
