package wm

import (
	"cmp"
	"slices"
	"strings"
	"sync"

	"repro/internal/symbols"
)

// WME is a working-memory element: a class symbol plus a fixed vector of
// attribute values. Field 0 always holds the class symbol; literalize
// declarations map attribute names to indices 1..n at compile time, so
// the matchers index fields directly instead of looking attributes up by
// name (the optimization the paper's C implementation gets from compiled
// field offsets).
//
// Slot is the element's index in its memory's slot table (Slots), the
// name the match's tokens use for it.
type WME struct {
	TimeTag int
	Fields  []Value
	Slot    uint32
}

// Class returns the class symbol of the element.
func (w *WME) Class() symbols.ID { return w.Fields[0].Sym }

// Field returns the value at index i, or Nil for indices beyond the
// stored vector (OPS5 semantics: unset attributes are nil).
func (w *WME) Field(i int) Value {
	if i < 0 || i >= len(w.Fields) {
		return Nil
	}
	return w.Fields[i]
}

// String renders the element like OPS5 does: class followed by the
// non-nil attribute values in field order, e.g. (block ^id b1 ^color red).
// Continuation fields of a vector attribute (attrNames returns "") print
// their values bare after the vector's own ^attr, e.g. (trace ^elt a b c).
func (w *WME) String(tab *symbols.Table, attrNames func(class symbols.ID, field int) string) string {
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(tab.Name(w.Class()))
	for i := 1; i < len(w.Fields); i++ {
		if w.Fields[i].Kind == KindNil {
			continue
		}
		if name := attrNames(w.Class(), i); name != "" {
			b.WriteString(" ^")
			b.WriteString(name)
		}
		b.WriteByte(' ')
		b.WriteString(w.Fields[i].String(tab))
	}
	b.WriteByte(')')
	return b.String()
}

// Memory is the working-memory store. It assigns time tags and slots
// and tracks live elements. Only the control process mutates it, but
// readers (trace dumps, tests) may inspect it concurrently, so it
// carries a mutex.
//
// Remove takes an element out of the live set but keeps its slot: the
// matcher still names the element while it processes the removal.
// The owner calls Release once the matcher has drained, which frees
// every slot retired since the last call.
type Memory struct {
	mu      sync.RWMutex
	nextTag int
	live    map[int]*WME // keyed by time tag
	slots   *Slots
	retired []uint32 // slots of removed elements awaiting Release
}

// NewMemory returns an empty working memory.
func NewMemory() *Memory {
	return &Memory{nextTag: 1, live: make(map[int]*WME), slots: NewSlots()}
}

// Slots returns the memory's slot table, which a matcher resolves its
// tokens through.
func (m *Memory) Slots() *Slots { return m.slots }

// Add stamps fields with the next time tag and records the element.
func (m *Memory) Add(fields []Value) *WME {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &WME{TimeTag: m.nextTag, Fields: fields}
	m.nextTag++
	m.live[w.TimeTag] = w
	m.slots.Assign(w)
	return w
}

// AddTagged records an element under a caller-supplied time tag — the
// restore path of the durability layer, which must reproduce the exact
// tags of a logged or snapshotted session. The tag counter advances
// past the highest restored tag so post-recovery adds never collide.
func (m *Memory) AddTagged(tag int, fields []Value) *WME {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &WME{TimeTag: tag, Fields: fields}
	m.live[tag] = w
	m.slots.Assign(w)
	if tag >= m.nextTag {
		m.nextTag = tag + 1
	}
	return w
}

// Get returns the live element with the given time tag, or nil.
func (m *Memory) Get(tag int) *WME {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.live[tag]
}

// NextTag reports the tag the next Add will assign.
func (m *Memory) NextTag() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nextTag
}

// SetNextTag forces the tag counter (restore only; n must exceed every
// live tag).
func (m *Memory) SetNextTag(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n > m.nextTag {
		m.nextTag = n
	}
}

// Clone returns an independent store holding the same elements. WMEs
// are immutable once created (modify is remove + add), so the clone
// shares the element objects and copies only the indexes — the
// copy-on-write working-memory half of template-session forking. The
// slot table is copied verbatim, so a matcher cloned alongside keeps
// resolving every token it copied.
func (m *Memory) Clone() *Memory {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := &Memory{
		nextTag: m.nextTag,
		live:    make(map[int]*WME, len(m.live)),
		slots:   m.slots.Clone(),
		retired: append([]uint32(nil), m.retired...),
	}
	for tag, w := range m.live {
		c.live[tag] = w
	}
	return c
}

// Remove deletes the element from the store. It reports whether the
// element was present (removing twice is a caller bug surfaced in tests).
// The element keeps its slot until the next Release.
func (m *Memory) Remove(w *WME) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[w.TimeTag]; !ok {
		return false
	}
	delete(m.live, w.TimeTag)
	m.retired = append(m.retired, w.Slot)
	return true
}

// Release frees the slots of every element removed since the last
// call. Call it only once the matcher has drained those removals: no
// stored or in-flight token may still name them.
func (m *Memory) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.retired {
		m.slots.Release(s)
	}
	m.retired = m.retired[:0]
}

// IsLive reports whether slot i holds an element of the live set — the
// check the slot-safety oracles apply to every slot the token store
// names.
func (m *Memory) IsLive(i uint32) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if i >= m.slots.Issued() {
		return false
	}
	w := m.slots.Get(i)
	return w != nil && m.live[w.TimeTag] == w
}

// Len reports the number of live elements.
func (m *Memory) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.live)
}

// Snapshot returns the live elements ordered by time tag.
func (m *Memory) Snapshot() []*WME {
	out := m.Live()
	slices.SortFunc(out, func(a, b *WME) int { return cmp.Compare(a.TimeTag, b.TimeTag) })
	return out
}

// Live returns the live elements in no particular order.
func (m *Memory) Live() []*WME {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]*WME, 0, len(m.live))
	for _, w := range m.live {
		out = append(out, w)
	}
	return out
}
