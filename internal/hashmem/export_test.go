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

// Shape reports the frozen table's line count, the lines it stores and
// the store words it holds.
func (f *Frozen) Shape() (lines, stored, words int) { return f.nLines, len(f.lines), len(f.words) }

// Bytes is the frozen form's payload size: what an image holding it
// keeps beyond a few header words.
func (f *Frozen) Bytes() int {
	return 4*len(f.at) + int(LineSize)*len(f.lines) + 4*len(f.words)
}

// Shares reports whether t took o's line array and o's store segments.
func (t *Table) Shares(o *Table) (lines, segments bool) {
	td, od := *t.st.dir.Load(), *o.st.dir.Load()
	return &t.Lines[0] == &o.Lines[0], len(td) > 0 && len(od) > 0 && td[0] == od[0]
}

// Segments reports how many segments t's store holds.
func (t *Table) Segments() int { return len(*t.st.dir.Load()) }

// SwapSegments swaps the first two segments of t's store directory, so
// they no longer form one array. t's words are then at the wrong
// indices: only a dead table is fit to be swapped, as a spare.
func (t *Table) SwapSegments() {
	dir := *t.st.dir.Load()
	dir[0], dir[1] = dir[1], dir[0]
}
