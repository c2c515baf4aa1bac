package hashmem

import "unsafe"

// Layout facts the black-box tests pin.

// LineSize is the size of one line of the table's line array.
const LineSize = unsafe.Sizeof(Line{})

// OverflowSlots reports the size of the line's overflow sub-index.
func (l *Line) OverflowSlots() int { return int(l.slots) }

// Inline reports whether the ref resolved to l's inline run.
func (r Ref) Inline(l *Line) bool { return r.r == &l.first }
