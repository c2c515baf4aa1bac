package hashmem

// cloneMinLines floors a segregated clone's line count: enough lines to
// keep early growth off the fork's critical path without paying for the
// template's peak-sized array.
const cloneMinLines = 1024

// Clone returns an independent deep copy of the table for a forked
// session. The store is copied wholesale — its segments hold no
// pointers, so the copy is a block copy with every index, token and
// negation count intact, and the fork's counts diverge from the
// template's from there.
//
// Segregated (adaptive) tables are re-slotted on clone into the smallest
// line array holding at most one live entry per line, instead of
// duplicating the template's peak-sized array: at that load nearly every
// line keeps its one run inline, so a fork's activations stay off the
// overflow sub-index, and the clone re-grows adaptively as its working
// memory climbs. Re-slotting moves run heads only; per-run entry order
// is preserved. Fixed layouts (per-node vs1, legacy list) keep their
// exact geometry and list order, so a clone's scan behaviour (and the
// LIFO delete discipline) is indistinguishable from the original's. The
// caller must hold the table quiescent (a settled template).
func (t *Table) Clone() *Table {
	st := t.st.clone()
	if t.seg {
		live := t.entries.Load()
		n := cloneMinLines
		for int64(n) < live && n < growMaxLines {
			n <<= 1
		}
		nt := newHashed(n, st)
		nt.seg = true
		nt.resizes = t.resizes
		nt.rehashed = t.rehashed
		t.rehashInto(nt, &Pools{})
		return nt
	}
	nt := &Table{
		Lines:  append([]Line(nil), t.Lines...),
		mask:   t.mask,
		Hashed: t.Hashed,
		st:     st,
	}
	nt.entries.Store(t.entries.Load())
	nt.parked.Store(t.parked.Load())
	nt.maxDepth.Store(t.maxDepth.Load())
	return nt
}
