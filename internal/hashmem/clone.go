package hashmem

import (
	"repro/internal/rete"
)

// cloneMinLines floors a compacted clone's line count. Matches the
// adaptive layout's smallest useful table: enough lines to keep early
// growth off the fork's critical path without paying for the
// template's peak-sized array.
const cloneMinLines = 1024

// Clone returns an independent deep copy of the table for a forked
// session. Entry objects are copied — their negation counts diverge per
// session — while token slices and WME pointers are shared: both are
// immutable once emitted (modify is remove + add), which is what makes
// forking a structure copy instead of a re-match.
//
// Segregated (adaptive) tables compact on clone: entries are re-slotted
// into the smallest line array the adaptive growth policy would accept
// for the current live count, instead of duplicating the template's
// peak-sized array. Per-run entry order is preserved — a run's entries
// share (node, hash), so line-order iteration appends them in their
// original order — and the clone simply re-grows adaptively as its
// working memory climbs. Fixed layouts (per-node vs1, legacy list) keep
// their exact geometry; there list order is preserved so a clone's scan
// behaviour (and the LIFO delete discipline) is indistinguishable from
// the original's. The caller must hold the table quiescent (a settled
// template).
func (t *Table) Clone() *Table {
	if t.seg {
		return t.cloneCompact()
	}
	nt := &Table{
		Lines:  make([]Line, len(t.Lines)),
		mask:   t.mask,
		Hashed: t.Hashed,
		seg:    t.seg,
	}
	nt.entries.Store(t.entries.Load())
	nt.parked.Store(t.parked.Load())
	nt.maxDepth.Store(t.maxDepth.Load())
	nt.resizes = t.resizes
	nt.rehashed = t.rehashed
	for i := range t.Lines {
		l := &t.Lines[i]
		nl := &nt.Lines[i]
		nl.used = l.used
		nl.live = l.live
		if l.runs != nil {
			nl.runs = make([]run, len(l.runs))
			for ri := range l.runs {
				r := &l.runs[ri]
				nr := &nl.runs[ri]
				nr.node, nr.hash = r.node, r.hash
				for s := 0; s < 2; s++ {
					if len(r.mem[s]) == 0 {
						continue
					}
					mem := make([]*rete.Entry, len(r.mem[s]))
					for ei, e := range r.mem[s] {
						mem[ei] = cloneEntry(e)
					}
					nr.mem[s] = mem
				}
			}
		}
		for s := 0; s < 2; s++ {
			nl.Mem[s] = cloneList(&l.Mem[s])
			nl.XDel[s] = cloneList(&l.XDel[s])
		}
	}
	return nt
}

// cloneCompact deep-copies a segregated table into a right-sized one,
// re-slotting cloned entries by their stored hash exactly as Grow does.
func (t *Table) cloneCompact() *Table {
	live := t.entries.Load()
	n := cloneMinLines
	for int64(n)*growTargetLoad < live && n < growMaxLines {
		n <<= 1
	}
	if n > len(t.Lines) {
		n = len(t.Lines)
	}
	nt := New(n)
	nt.Hashed = t.Hashed
	nt.resizes = t.resizes
	nt.rehashed = t.rehashed
	var moved, parked, maxDepth int64
	for i := range t.Lines {
		l := &t.Lines[i]
		for ri := range l.runs {
			r := &l.runs[ri]
			if r.node == nil {
				continue
			}
			for s := 0; s < 2; s++ {
				for _, e := range r.mem[s] {
					c := cloneEntry(e)
					dl := &nt.Lines[c.Hash&nt.mask]
					dr := dl.findRun(c.Node, c.Hash, true)
					dr.mem[s] = append(dr.mem[s], c)
					dl.live++
					if int64(dl.live) > maxDepth {
						maxDepth = int64(dl.live)
					}
					moved++
				}
			}
		}
		for s := 0; s < 2; s++ {
			for e := l.XDel[s].Head; e != nil; e = e.Next {
				nt.Lines[e.Hash&nt.mask].XDel[s].Push(cloneEntry(e))
				parked++
			}
		}
	}
	nt.entries.Store(moved)
	nt.parked.Store(parked)
	nt.maxDepth.Store(maxDepth)
	return nt
}

func cloneEntry(e *rete.Entry) *rete.Entry {
	c := &rete.Entry{Node: e.Node, Side: e.Side, Hash: e.Hash, Wmes: e.Wmes}
	c.NegCount.Store(e.NegCount.Load())
	return c
}

// cloneList copies a linked entry list preserving order (Push prepends,
// so entries are appended tail-first from a collected slice).
func cloneList(l *rete.EntryList) rete.EntryList {
	if l.Head == nil {
		return rete.EntryList{}
	}
	var entries []*rete.Entry
	for e := l.Head; e != nil; e = e.Next {
		entries = append(entries, e)
	}
	var out rete.EntryList
	for i := len(entries) - 1; i >= 0; i-- {
		out.Push(cloneEntry(entries[i]))
	}
	return out
}
