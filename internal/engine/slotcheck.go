package engine

import "fmt"

// slotWalker is implemented by matchers that can enumerate the WME slots
// their token store names: every stored token and parked early delete.
type slotWalker interface {
	ForEachSlot(fn func(slot uint32))
}

// CheckSlots is the slot-safety oracle: it fails if the matcher's token
// store names a slot whose element is not in the live working memory —
// a slot released, or about to be reused, while a token still holds it.
// Call it drained. Matchers that do not store slots pass trivially.
func (e *Engine) CheckSlots() error {
	sw, ok := e.Matcher.(slotWalker)
	if !ok {
		return nil
	}
	var bad, n int
	first := uint32(0)
	sw.ForEachSlot(func(s uint32) {
		n++
		if !e.WM.IsLive(s) {
			if bad == 0 {
				first = s
			}
			bad++
		}
	})
	if bad > 0 {
		return fmt.Errorf("engine: %d of %d stored slots name no live element (first: slot %d)", bad, n, first)
	}
	return nil
}
