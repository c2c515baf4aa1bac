package hashmem

import (
	"repro/internal/rete"
)

// cloneMinLines floors a segregated clone's line count: enough lines to
// keep early growth off the fork's critical path without paying for the
// template's peak-sized array.
const cloneMinLines = 1024

// Clone returns an independent deep copy of the table for a forked
// session. Entry objects are copied — their negation counts diverge per
// session — while token slices and WME pointers are shared: both are
// immutable once emitted (modify is remove + add), which is what makes
// forking a structure copy instead of a re-match. The copies come from
// one slab sized for the whole table.
//
// Segregated (adaptive) tables are re-slotted on clone into the smallest
// line array holding at most one live entry per line, instead of
// duplicating the template's peak-sized array: at that load nearly every
// line keeps its one run inline, so a fork's activations stay off the
// overflow sub-index, and the clone re-grows adaptively as its working
// memory climbs. Per-run entry order is preserved. Fixed layouts
// (per-node vs1, legacy list) keep their exact geometry and list order,
// so a clone's scan behaviour (and the LIFO delete discipline) is
// indistinguishable from the original's. The caller must hold the table
// quiescent (a settled template).
func (t *Table) Clone() *Table {
	live := t.entries.Load()
	cp := &Pools{next: int(live + t.parked.Load())}
	if t.seg {
		n := cloneMinLines
		for int64(n) < live && n < growMaxLines {
			n <<= 1
		}
		nt := New(n)
		nt.resizes = t.resizes
		nt.rehashed = t.rehashed
		t.rehashInto(nt, cp)
		return nt
	}
	nt := &Table{
		Lines:  make([]Line, len(t.Lines)),
		mask:   t.mask,
		Hashed: t.Hashed,
	}
	nt.entries.Store(live)
	nt.parked.Store(t.parked.Load())
	nt.maxDepth.Store(t.maxDepth.Load())
	for i := range t.Lines {
		l := &t.Lines[i]
		nt.Lines[i].live = l.live
		if l.ext == nil {
			continue
		}
		nx := nt.Lines[i].x()
		for s := range l.ext.Mem {
			nx.Mem[s] = cloneList(&l.ext.Mem[s], cp)
			nx.XDel[s] = cloneList(&l.ext.XDel[s], cp)
		}
	}
	return nt
}

// cloneList copies a linked entry list preserving order.
func cloneList(l *rete.EntryList, cp *Pools) rete.EntryList {
	head, n := carryList(l.Head, cp)
	return rete.EntryList{Head: head, Len: n}
}
