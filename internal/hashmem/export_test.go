package hashmem

import "unsafe"

// Layout facts the black-box tests pin.

// LineSize is the size of one line of the table's line array.
const LineSize = unsafe.Sizeof(Line{})

// OverflowSlots reports the size of the line's overflow sub-index.
func (l *Line) OverflowSlots() int { return int(l.slots) }

// InlineHolds reports whether the line's inline run is keyed to join
// node id and hash.
func (l *Line) InlineHolds(id int, hash uint64) bool { return l.first.is(uint32(id)+1, hash) }
