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
type WME struct {
	TimeTag int
	Fields  []Value
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

// Memory is the working-memory store. It assigns time tags and tracks
// live elements. Only the control process mutates it, but readers (trace
// dumps, tests) may inspect it concurrently, so it carries a mutex.
type Memory struct {
	mu      sync.RWMutex
	nextTag int
	live    map[int]*WME // keyed by time tag
}

// NewMemory returns an empty working memory.
func NewMemory() *Memory {
	return &Memory{nextTag: 1, live: make(map[int]*WME)}
}

// Add stamps fields with the next time tag and records the element.
func (m *Memory) Add(fields []Value) *WME {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &WME{TimeTag: m.nextTag, Fields: fields}
	m.nextTag++
	m.live[w.TimeTag] = w
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
// shares the element objects and copies only the index — the
// copy-on-write working-memory half of template-session forking.
func (m *Memory) Clone() *Memory {
	m.mu.RLock()
	defer m.mu.RUnlock()
	c := &Memory{nextTag: m.nextTag, live: make(map[int]*WME, len(m.live))}
	for tag, w := range m.live {
		c.live[tag] = w
	}
	return c
}

// Remove deletes the element from the store. It reports whether the
// element was present (removing twice is a caller bug surfaced in tests).
func (m *Memory) Remove(w *WME) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[w.TimeTag]; !ok {
		return false
	}
	delete(m.live, w.TimeTag)
	return true
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
