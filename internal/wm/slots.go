package wm

import "sync/atomic"

// slotChunkBits sizes the slot table's chunks: 1 024 pointers (8 KB).
const (
	slotChunkBits = 10
	slotChunk     = 1 << slotChunkBits
)

// slotChunkArr is one chunk of the slot table.
type slotChunkArr [slotChunk]*WME

// Slots gives every WME a dense 32-bit slot and maps slots back to
// elements. The match addresses a WME by its slot only: a token is a
// span of slots, so the token store holds no pointers and the garbage
// collector never scans it. Join tests and hashes resolve a slot through
// Get or a SlotView.
//
// The table is chunked, and the chunk directory is republished whole
// (an atomic pointer) when it grows, so readers take no lock: a match
// process may resolve slots while the control process assigns new ones.
// Writers (Assign, Release) must be serialized by the owner — Memory's
// lock, or a single goroutine. A released slot is reused by a later
// Assign, so the owner releases a slot only once no stored or in-flight
// token can still name it: after the matcher has drained the removal.
type Slots struct {
	dir  atomic.Pointer[[]*slotChunkArr]
	n    uint32   // slots issued so far (the high-water mark)
	free []uint32 // released slots, reused newest first
}

// NewSlots returns an empty slot table.
func NewSlots() *Slots {
	s := &Slots{}
	s.dir.Store(new([]*slotChunkArr))
	return s
}

// Assign gives w a slot — the most recently released one, or the next
// never issued — and records w there. Memory.Add and AddTagged call it;
// so does anything that builds WMEs outside a Memory and hands them to
// a matcher.
func (s *Slots) Assign(w *WME) {
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = s.n
		s.n++
		dir := *s.dir.Load()
		if int(i>>slotChunkBits) == len(dir) {
			grown := append(dir[:len(dir):len(dir)], new(slotChunkArr))
			s.dir.Store(&grown)
			dir = grown
		}
	}
	(*s.dir.Load())[i>>slotChunkBits][i&(slotChunk-1)] = w
	w.Slot = i
}

// Release frees slot i for reuse and forgets its element.
func (s *Slots) Release(i uint32) {
	(*s.dir.Load())[i>>slotChunkBits][i&(slotChunk-1)] = nil
	s.free = append(s.free, i)
}

// Get returns the element in slot i, nil for a released slot.
func (s *Slots) Get(i uint32) *WME { return s.View().Get(i) }

// Issued reports how many slots have ever been issued: every slot is
// below it.
func (s *Slots) Issued() uint32 { return s.n }

// View returns the current chunk directory. It resolves every slot
// assigned before the call; a reader that may meet later slots takes a
// fresh view.
func (s *Slots) View() SlotView { return SlotView(*s.dir.Load()) }

// Clone returns an independent table with the same slot numbering: the
// slot of every element, the issued count and the free list are copied
// verbatim, so a forked session's token store, copied from its
// template's, names the same elements in both.
func (s *Slots) Clone() *Slots {
	src := *s.dir.Load()
	dir := make([]*slotChunkArr, len(src))
	for i, c := range src {
		cp := *c
		dir[i] = &cp
	}
	c := &Slots{n: s.n, free: append([]uint32(nil), s.free...)}
	c.dir.Store(&dir)
	return c
}

// SlotView is a snapshot of a slot table's chunk directory: it resolves
// the slots assigned before it was taken without touching the table's
// atomic again.
type SlotView []*slotChunkArr

// Get returns the element in slot i.
func (v SlotView) Get(i uint32) *WME { return v[i>>slotChunkBits][i&(slotChunk-1)] }

// Resolve returns the elements of tok, a span of slots, in dst's storage.
func (v SlotView) Resolve(dst []*WME, tok []uint32) []*WME {
	dst = dst[:0]
	for _, s := range tok {
		dst = append(dst, v.Get(s))
	}
	return dst
}
