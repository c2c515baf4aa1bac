// Package hashmem implements the paper's token storage: two large hash
// tables (left and right) holding the tokens of every two-input node's
// memories, organized in "lines". A line is the pair of same-index
// buckets from the left and right tables together with their
// extra-deletes lists; processing a single node activation touches
// exactly one line (paper footnote 4), which is what the per-line locks
// of the parallel matchers protect.
//
// A token is a span of WME slots (wm.Slots). A stored token lives inline
// in its memory entry, and entries, runs, lines and sub-indexes refer to
// one another by 32-bit index into a word store the table owns, so
// nothing here holds a Go pointer the garbage collector would trace
// (store.go). Three storage layouts share the machinery and the one
// entry type:
//
//   - New builds the node-segregated layout: within a line, tokens live
//     in per-(node, hash) runs, so searches and deletes touch only
//     same-node, same-hash candidates instead of every colliding token.
//     A run is two intrusive lists (left and right, newest first) chained
//     through the entries' next links; a line carries its first run
//     inline and reaches any further ones through a small open-addressed
//     sub-index, so a one-run line costs one line read, and no
//     activation stores anything but its entry. These tables are also
//     adaptive: the owner grows them at a drained point once the load
//     factor climbs (GrowTarget/Grow), so production-scale working
//     memories never degrade a line into a linear scan.
//   - NewLegacy builds the paper's original fixed-size layout — each
//     line is a pair of singly-linked token lists scanned linearly with
//     a node filter. It is the naive reference the differential tests
//     and benchmarks compare the segregated layout against, and the
//     deterministic Multimax simulator keeps it so the paper's scan
//     counts stay exact.
//   - NewPerNode is the vs1 list-based organization: one private
//     list-layout line per join node and no hashing, which reproduces
//     the linear-scan behaviour of Table 4-1's vs1 column.
//
// Segregating a line by full 64-bit hash is semantically safe because a
// join's left and right hashes fold the same equality-test values: two
// tokens whose hashes differ cannot satisfy the node's equality tests,
// so confining the opposite-memory search to the matching run can never
// miss a pair (non-equality predicates are still applied inside the
// run). A node with no equality tests hashes every token identically
// and its whole memory lands in one run, which is exactly the per-node
// scan such a cross product requires.
package hashmem

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/rete"
	"repro/internal/stats"
	"repro/internal/wm"
)

// run is one (node, hash) equivalence class of a segregated line: every
// entry on its two lists shares the node and the full 64-bit token hash.
// The lists are intrusive (entry.next), newest first — the paper's stack
// discipline, so a delete scans in pure LIFO order and an activation
// allocates nothing but its entry. A run is five words with no pointer:
// the line holds its first one inline, further ones sit in an overflow
// sub-index in the store. node is the join ID plus one, 0 for an unkeyed
// slot.
type run struct {
	hlo, hhi uint32
	node     uint32
	mem      [2]uint32 // list heads, indexed by rete.Side
}

const runWords = uint32(5)

func (r *run) empty() bool  { return r.mem[0] == 0 && r.mem[1] == 0 }
func (r *run) hash() uint64 { return uint64(r.hhi)<<32 | uint64(r.hlo) }
func (r *run) is(node uint32, hash uint64) bool {
	return r.node == node && r.hlo == uint32(hash) && r.hhi == uint32(hash>>32)
}
func (r *run) key(node uint32, hash uint64) {
	r.node, r.hlo, r.hhi = node, uint32(hash), uint32(hash>>32)
}

// Line is a pair of corresponding left/right buckets plus the parked
// early deletes for each side, in 44 bytes with no pointer. A segregated
// line holds its first run inline — an activation on a one-run line
// touches the line and the entry, nothing else — and reaches further runs
// through an open-addressed sub-index of slots runs at store index runs.
// The list layouts (vs1, legacy) keep every node's tokens on first.mem.
type Line struct {
	first run
	xdel  [2]uint32 // conjugate minus tokens that arrived early, per side
	runs  uint32    // store index of the overflow sub-index (0: none yet)
	slots int32     // overflow slots, a power of two
	used  int32     // overflow slots holding a key (live or emptied)
	live  int32     // live entries in the line (line depth)
}

// Table is a set of lines over one token store. With Hashed true, lines
// are selected by token hash (vs2 and the parallel matchers); otherwise
// one line per join node (vs1).
type Table struct {
	Lines  []Line
	mask   uint64
	Hashed bool
	seg    bool // node-segregated run layout (New); false for the list layouts
	st     *store

	// entries counts live tokens across the table, parked the early
	// deletes sitting on xdel lists, and maxDepth is the high-water line
	// depth; all three are updated under the per-line locks but read
	// table-wide, hence atomic. entries is only as fresh as the last
	// FoldLive: an activation counts its insert or delete in its Pools,
	// privately, so the one word every process would write on every
	// activation is written once per drain instead. parked is exact —
	// every xdel push and removal adjusts it — so CheckDrained is a load,
	// not a walk. The resize counters are owned by whoever performs Grow
	// (the control process, drained).
	entries  atomic.Int64
	parked   atomic.Int64
	maxDepth atomic.Int64
	resizes  int64
	rehashed int64
}

// Adaptive-growth policy for segregated tables: grow once the mean line
// holds more than growLoadFactor live entries, to the smallest power of
// two bringing the mean back to growTargetLoad, and never past
// growMaxLines. The trigger/target pair is deliberately lazy: the
// runs keep intra-line scans short whatever the depth, so the table only
// needs enough lines to keep locks uncontended — growing a live table to
// load ≤ 1 stalls the request that trips it for no scan benefit.
const (
	growLoadFactor = 16
	growTargetLoad = 4
	growMaxLines   = 1 << 21
)

// New returns an adaptive node-segregated table with at least nLines
// lines, rounded up to a power of two.
func New(nLines int) *Table {
	t := newHashed(nLines, newStore())
	t.seg = true
	return t
}

// NewLegacy returns a fixed-size table in the paper's original layout:
// linked-list lines scanned linearly with a per-entry node filter. It
// never grows.
func NewLegacy(nLines int) *Table {
	return newHashed(nLines, newStore())
}

func newHashed(nLines int, st *store) *Table {
	n := 1
	for n < nLines {
		n <<= 1
	}
	return &Table{Lines: make([]Line, n), mask: uint64(n - 1), Hashed: true, st: st}
}

// NewPerNode returns a vs1-style table with one private line per join
// node.
func NewPerNode(numJoins int) *Table {
	if numJoins == 0 {
		numJoins = 1
	}
	return &Table{Lines: make([]Line, numJoins), st: newStore()}
}

// Segregated reports whether the table uses the node-segregated run
// layout (and therefore grows adaptively).
func (t *Table) Segregated() bool { return t.seg }

// LineIndex picks the line for an activation of node j with token hash h.
func (t *Table) LineIndex(j *rete.JoinNode, h uint64) int {
	if t.Hashed {
		return int(h & t.mask)
	}
	return j.ID
}

// fibMul redistributes a key across the whole word (Fibonacci hashing):
// the sub-index slot comes from the product's HIGH bits, because every
// hash in a line shares its low bits — they selected the line.
const fibMul = 0x9E3779B97F4A7C15

// slotOf returns the probe start for hash in a sub-index of size n
// (power of two).
func slotOf(hash uint64, n int) int {
	return int((hash * fibMul) >> (64 - uint(bits.TrailingZeros(uint(n)))))
}

// Ref carries what UpdateOwn resolved for the paired SearchOpposite: the
// head of the opposite-side list the activation must examine, read while
// the line's modification lock was held. The MRSW scheme lets the search
// run outside that lock, and that is sound because the opposite side of
// a line is frozen while this side holds it: nothing can link into or
// out of the list the head starts, whatever same-side activations do to
// the run index meanwhile.
type Ref struct{ opp uint32 }

// findRun returns the line's run for (node, hash), node being the join
// ID plus one, optionally creating it.
// The inline run is tried first; the overflow sub-index is open-addressed
// with linear probing, and its emptied runs keep their key and are reused
// on an exact match, so deletion never needs tombstone repair. A new key
// takes the inline slot whenever that is empty — a key therefore lives
// in one place only — and an overflow slot otherwise. Creating may grow
// the sub-index, with words from p.
func (l *Line) findRun(v view, node uint32, hash uint64, create bool, p *Pools) *run {
	f := &l.first
	if f.is(node, hash) {
		return f
	}
	var slot *run // the free overflow slot the probe ended on
	if l.runs != 0 {
		// A quarter of the slots is always free, so the probe terminates.
		for n, i := int(l.slots), slotOf(hash, int(l.slots)); ; i++ {
			r := v.runAt(l.runs + uint32(i&(n-1))*runWords)
			if r.node == 0 {
				slot = r
				break
			}
			if r.is(node, hash) {
				return r
			}
		}
	}
	if !create {
		return nil
	}
	if f.empty() {
		f.key(node, hash)
		return f
	}
	if slot == nil || l.used+1 > l.slots-l.slots/4 {
		slot = l.growRuns(p, hash)
	}
	slot.key(node, hash)
	l.used++
	return slot
}

// freeSlot returns the first free slot on hash's probe sequence of the
// sub-index of n runs at base.
func freeSlot(v view, base uint32, n int, hash uint64) *run {
	for i := slotOf(hash, n); ; i++ {
		if r := v.runAt(base + uint32(i&(n-1))*runWords); r.node == 0 {
			return r
		}
	}
}

// growRuns doubles the overflow sub-index, dropping emptied runs
// (compaction happens here rather than on every delete), and returns the
// free slot hash probes to. The old sub-index is left as it was: a
// concurrent search holds only a list head, never a run, so nothing
// reads it again. Its words are not reused.
func (l *Line) growRuns(p *Pools, hash uint64) *run {
	n := max(4, 2*int(l.slots))
	base := p.words(uint32(n) * runWords) // fresh words, all zero: every slot free
	v := p.st.view()
	used := int32(0)
	for i := 0; i < int(l.slots); i++ {
		if r := v.runAt(l.runs + uint32(i)*runWords); r.node != 0 && !r.empty() {
			*freeSlot(v, base, n, r.hash()) = *r
			used++
		}
	}
	l.runs, l.slots, l.used = base, int32(n), used
	return freeSlot(v, base, n, hash)
}

// forEachRun calls fn for every keyed run of a segregated line.
func (l *Line) forEachRun(v view, fn func(*run)) {
	if l.first.node != 0 {
		fn(&l.first)
	}
	base, n := l.runs, uint32(l.slots)
	for i := uint32(0); i < n; i++ {
		if r := v.runAt(base + i*runWords); r.node != 0 {
			fn(r)
		}
	}
}

// lists calls fn with a pointer to the head of every token list of the
// line: the runs' lists for a segregated line, the two shared lists for a
// list-layout one. Parked lists are not included.
func (t *Table) lists(v view, l *Line, fn func(side rete.Side, head *uint32)) {
	if !t.seg {
		fn(rete.Left, &l.first.mem[rete.Left])
		fn(rete.Right, &l.first.mem[rete.Right])
		return
	}
	l.forEachRun(v, func(r *run) {
		fn(rete.Left, &r.mem[rete.Left])
		fn(rete.Right, &r.mem[rete.Right])
	})
}

// removeTok unlinks the first entry of the list at *head holding tok for
// (j, side), scanning newest first, and returns it with the number of
// entries examined (the paper's "tokens examined in same memory for
// deletes"). The stored hash and node are compared before the token, so
// the slot comparison only runs on genuine candidates; every entry of a
// run passes those, and a list-layout line filters on them. Lists may
// hold duplicate tokens, and one removal takes out exactly one.
func removeTok(v view, head *uint32, meta uint32, hash uint64, tok []uint32) (uint32, int) {
	scanned := 0
	for p := head; *p != 0; {
		i := *p
		e := v.ent(i)
		scanned++
		if e.meta == meta && e.hash() == hash && slices.Equal(v.tok(i, len(tok)), tok) {
			*p, e.next = e.next, 0
			return i, scanned
		}
		p = &e.next
	}
	return 0, scanned
}

// push links entry i at the head of the list at *head.
func push(v view, head *uint32, i uint32) {
	v.ent(i).next, *head = *head, i
}

// Recorder accumulates the sequential-matcher statistics of Tables
// 4-1..4-3. NodeCount tracks per-(side, node) live token counts so the
// "opposite memory non-empty" convention of Table 4-2 can be applied
// identically for list and hash memories. NodeExamined accumulates the
// opposite-memory candidates every activation of a node examined
// (unconditionally — it measures work done, not the paper's
// non-empty-only convention); the engine's per-rule match budget reads
// per-cycle deltas of it.
type Recorder struct {
	M            stats.Match
	NodeCount    [2][]int64
	NodeExamined []int64
}

// NewRecorder sizes the per-node counters for a network.
func NewRecorder(numJoins int) *Recorder {
	r := &Recorder{}
	r.NodeCount[0] = make([]int64, numJoins)
	r.NodeCount[1] = make([]int64, numJoins)
	r.NodeExamined = make([]int64, numJoins)
	return r
}

// Emit receives one output token of a node activation, a span of slots
// from the activating process's arena. Positive nodes emit extended
// tokens (left token + right slot); negated nodes re-emit the left token.
type Emit func(sign bool, tok []uint32)

// FoldLive moves the live-entry delta p's owner has accumulated into
// the table's gauge. The owner must be out of the table: matchers call
// it at drained points, before anything reads the gauge (GrowTarget,
// MemStats, Reslot, Freeze, Rebind) or recounts it (Grow).
func (t *Table) FoldLive(p *Pools) {
	if p.live != 0 {
		t.entries.Add(p.live)
		p.live = 0
	}
}

// StepResult reports what an activation did, for cost accounting by the
// Multimax simulator.
type StepResult struct {
	Proceeded   bool // false: annihilated with a conjugate or parked
	Parked      bool // early delete parked on the extra-deletes list
	Annihilated bool // plus met a parked minus
	OwnScanned  int  // entries scanned in own memory (delete search)
	OppExamined int  // candidate tokens examined in the opposite memory
	Pairs       int  // matching pairs / negation transitions emitted
}

// UpdateOwn performs the first half of a coalesced-node activation on
// line idx: it stores the token in, or deletes it from, the node's own
// memory, applying the conjugate-pair protocol. In the MRSW locking
// scheme this is the part that runs under the modification lock. It
// returns the affected entry (the freshly stored one, or the removed one
// whose NegCount a negated-node caller still needs and must then free)
// and the Ref the matching SearchOpposite call must be handed. tok is
// copied in: the caller's span may be recycled once the activation is
// done.
func (t *Table) UpdateOwn(idx int, j *rete.JoinNode, side rete.Side, sign bool, tok []uint32, hash uint64, rec *Recorder, pools *Pools) (uint32, Ref, StepResult) {
	pools.bind(t.st)
	line := &t.Lines[idx]
	v := t.st.view()
	meta := packMeta(j.ID, len(tok), side)
	var res StepResult
	var ref Ref
	if sign {
		// A plus annihilates with a parked early minus for the same token.
		if line.xdel[side] != 0 {
			if e, _ := removeTok(v, &line.xdel[side], meta, hash, tok); e != 0 {
				t.parked.Add(-1)
				pools.FreeEntry(e)
				res.Annihilated = true
				return 0, ref, res
			}
		}
		e, v := pools.newEntry(v, j, side, hash, tok)
		lists := &line.first
		if t.seg {
			lists = line.findRun(v, uint32(j.ID)+1, hash, true, pools)
		}
		push(v, &lists.mem[side], e)
		ref.opp = lists.mem[side^1]
		line.live++
		pools.live++
		t.noteDepth(int64(line.live))
		if rec != nil {
			rec.NodeCount[side][j.ID]++
		}
		res.Proceeded = true
		return e, ref, res
	}
	var e uint32
	if t.seg {
		if r := line.findRun(v, uint32(j.ID)+1, hash, false, pools); r != nil {
			e, res.OwnScanned = removeTok(v, &r.mem[side], meta, hash, tok)
			ref.opp = r.mem[side^1]
		}
	} else {
		e, res.OwnScanned = removeTok(v, &line.first.mem[side], meta, hash, tok)
		ref.opp = line.first.mem[side^1]
	}
	if e == 0 {
		// Early delete: park it and do not otherwise process the token.
		pe, v := pools.newEntry(v, j, side, hash, tok)
		push(v, &line.xdel[side], pe)
		t.parked.Add(1)
		res.Parked = true
		return 0, Ref{}, res
	}
	line.live--
	pools.live--
	if rec != nil {
		rec.NodeCount[side][j.ID]--
	}
	res.Proceeded = true
	return e, ref, res
}

// noteDepth maintains the depth high-water mark after one insert under
// the line lock, a plain load-then-CAS: almost every insert takes only
// the load and branch.
func (t *Table) noteDepth(d int64) {
	for {
		cur := t.maxDepth.Load()
		if d <= cur {
			return
		}
		if t.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// SearchOpposite performs the second half of an activation: comparing
// the token against the opposite list ref points at and emitting the
// resulting tokens, fresh spans from pools' arena. For negated nodes it
// maintains the join counts of entry (UpdateOwn's result) or of the left
// entries a right activation matches. In the MRSW scheme this part runs
// without the modification lock for positive nodes; negated right-side
// activations update left counts atomically. Join tests resolve slots
// through pools.Slots.
//
// A list-layout line mixes the tokens of every node that hashes to it,
// so the walk filters on (node, side); a run holds one node's tokens
// only and every entry passes — one loop serves both, with identical
// examined counts.
func (t *Table) SearchOpposite(ref Ref, j *rete.JoinNode, side rete.Side, sign bool, tok []uint32, entry uint32, rec *Recorder, pools *Pools, emit Emit) StepResult {
	var res StepResult
	v := t.st.view()
	sv := pools.Slots
	opp := side ^ 1
	if j.Negated {
		t.searchNegated(v, ref.opp, j, side, sign, tok, entry, &res, pools, emit)
	} else {
		oppLen := 1
		if opp == rete.Left {
			oppLen = j.LeftLen
		}
		want := packMeta(j.ID, oppLen, opp)
		var rw *wm.WME // a right activation's WME, resolved once
		if side == rete.Right {
			rw = sv.Get(tok[0])
		}
		for i := ref.opp; i != 0; {
			e := v.ent(i)
			if e.meta != want {
				i = e.next
				continue // hash collision with another node's tokens
			}
			res.OppExamined++
			left, right, w := tok, uint32(0), rw
			if side == rete.Left {
				right = v.tok(i, 1)[0]
				w = sv.Get(right)
			} else {
				left, right = v.tok(i, oppLen), tok[0]
			}
			if j.TestPair(sv, left, w) {
				res.Pairs++
				child := pools.Token(len(left) + 1)
				copy(child, left)
				child[len(left)] = right
				emit(sign, child)
			}
			i = e.next
		}
	}
	if rec != nil {
		recordSearch(rec, j, side, &res)
	}
	return res
}

// searchNegated maintains the negation counts of a negated node against
// the opposite list starting at head.
func (t *Table) searchNegated(v view, head uint32, j *rete.JoinNode, side rete.Side, sign bool, tok []uint32, entry uint32, res *StepResult, pools *Pools, emit Emit) {
	sv := pools.Slots
	if side == rete.Left {
		if sign {
			// Count the matching right WMEs; pass the token through when
			// there are none.
			want := packMeta(j.ID, 1, rete.Right)
			var count int32
			for i := head; i != 0; {
				e := v.ent(i)
				if e.meta == want {
					res.OppExamined++
					if j.TestPair(sv, tok, sv.Get(v.tok(i, 1)[0])) {
						count++
					}
				}
				i = e.next
			}
			v.ent(entry).neg.Store(count)
			if count == 0 {
				res.Pairs++
				emit(true, tok)
			}
			return
		}
		// Deleting a left token that had passed (count 0) retracts it.
		if v.ent(entry).neg.Load() == 0 {
			res.Pairs++
			emit(false, tok)
		}
		return
	}
	// Right-side activation: adjust the counts of matching left tokens.
	// A passing or retracted left token is emitted as a copy: the stored
	// one may be deleted and its entry reused while the copy is in flight.
	w := sv.Get(tok[0])
	want := packMeta(j.ID, j.LeftLen, rete.Left)
	for i := head; i != 0; {
		e := v.ent(i)
		if e.meta != want {
			i = e.next
			continue
		}
		res.OppExamined++
		left := v.tok(i, j.LeftLen)
		if j.TestPair(sv, left, w) {
			var flip bool
			if sign {
				flip = e.neg.Add(1) == 1
			} else {
				flip = e.neg.Add(-1) == 0
			}
			if flip {
				res.Pairs++
				emit(!sign, copyTok(pools, left))
			}
		}
		i = e.next
	}
}

// copyTok returns an arena copy of tok.
func copyTok(p *Pools, tok []uint32) []uint32 {
	c := p.Token(len(tok))
	copy(c, tok)
	return c
}

func recordSearch(rec *Recorder, j *rete.JoinNode, side rete.Side, res *StepResult) {
	rec.NodeExamined[j.ID] += int64(res.OppExamined)
	opp := side ^ 1
	nonEmpty := rec.NodeCount[opp][j.ID] > 0
	if side == rete.Left {
		rec.M.LeftActs++
		if nonEmpty {
			rec.M.OppNonEmptyLeft++
			rec.M.OppExaminedLeft += int64(res.OppExamined)
		}
	} else {
		rec.M.RightActs++
		if nonEmpty {
			rec.M.OppNonEmptyRight++
			rec.M.OppExaminedRight += int64(res.OppExamined)
		}
	}
	rec.M.Pairs += int64(res.Pairs)
}

// RecordDelete accounts a delete's own-memory scan (Table 4-3).
func RecordDelete(rec *Recorder, side rete.Side, res *StepResult) {
	if rec == nil {
		return
	}
	if side == rete.Left {
		rec.M.DeletesLeft++
		rec.M.SameExaminedLeft += int64(res.OwnScanned)
	} else {
		rec.M.DeletesRight++
		rec.M.SameExaminedRight += int64(res.OwnScanned)
	}
}

// GrowTarget returns the line count an adaptive table should grow to at
// the next drained point, or 0 when no growth is due. Only segregated
// tables grow: the legacy layout is deliberately fixed (it is the
// degradation baseline) and per-node tables have no hashing to rebuild.
func (t *Table) GrowTarget() int {
	if !t.seg {
		return 0
	}
	n := len(t.Lines)
	if n >= growMaxLines {
		return 0
	}
	live := t.entries.Load()
	if live <= int64(n)*growLoadFactor {
		return 0
	}
	target := n
	for int64(target)*growTargetLoad < live && target < growMaxLines {
		target <<= 1
	}
	return target
}

// Grow returns a new table with nLines lines holding every live entry
// and parked early delete of t, over the same store: entries keep their
// indices and are never copied. A run's tokens share one hash, so a run
// moves whole: its two list heads are re-slotted and the entries behind
// them are only counted — per-run order, and with it every later scan
// count, is preserved. Sub-indexes of the new lines take words from p.
// The caller must hold t exclusively (sequential matchers between
// submits; the parallel control process drained) and must republish the
// lock arrays alongside the table so footnote 4's one-lock-per-line
// discipline holds at the new size. t is dead afterwards.
func (t *Table) Grow(nLines int, p *Pools) *Table {
	nt := newHashed(nLines, t.st)
	nt.seg = true
	moved := t.rehashInto(nt, p)
	nt.resizes = t.resizes + 1
	nt.rehashed = t.rehashed + moved
	return nt
}

// rehashInto fills the empty segregated table nt with t's runs and
// parked deletes re-slotted by hash, and sets nt's gauges; it returns the
// live entries carried over. Distinct runs of t stay distinct in nt, so
// every destination run starts empty and takes its lists in order. Over
// t's own store (Grow) a list moves whole, by its head; over a store of
// nt's own (Reslot) every entry is copied into it in list order, and the
// words t no longer reaches stay behind with t's store.
func (t *Table) rehashInto(nt *Table, p *Pools) (moved int64) {
	p.bind(nt.st)
	tv := t.st.view()
	copying := nt.st != t.st
	carry := func(head uint32) (uint32, int) { return head, listLen(tv, head) }
	if copying {
		carry = func(head uint32) (uint32, int) { return p.copyList(tv, head) }
	}
	var parked, maxDepth int64
	for i := range t.Lines {
		l := &t.Lines[i]
		l.forEachRun(tv, func(r *run) {
			if r.empty() {
				return
			}
			h := r.hash()
			dl := &nt.Lines[h&nt.mask]
			dr := dl.findRun(nt.st.view(), r.node, h, true, p)
			for s := range r.mem {
				head, n := carry(r.mem[s])
				dr.mem[s] = head
				dl.live += int32(n)
				moved += int64(n)
			}
			maxDepth = max(maxDepth, int64(dl.live))
		})
		for s := range l.xdel {
			for e := l.xdel[s]; e != 0; {
				next := tv.ent(e).next
				if copying {
					e = p.copyEntry(tv, e)
				}
				v := nt.st.view()
				push(v, &nt.Lines[v.ent(e).hash()&nt.mask].xdel[s], e)
				parked++
				e = next
			}
		}
	}
	nt.entries.Store(moved)
	nt.parked.Store(parked)
	nt.maxDepth.Store(maxDepth)
	return moved
}

func listLen(v view, head uint32) (n int) {
	for i := head; i != 0; i = v.ent(i).next {
		n++
	}
	return n
}

// MemStats snapshots the table's memory gauges and resize counters for
// /metrics and the benchmarks. Exact while the table is quiescent (the
// same condition under which the matchers read their other counters).
func (t *Table) MemStats() stats.Memory {
	return stats.Memory{
		Lines:        int64(len(t.Lines)),
		Entries:      t.entries.Load(),
		MaxLineDepth: t.maxDepth.Load(),
		Resizes:      t.resizes,
		Rehashed:     t.rehashed,
	}
}

// SizeByNode tallies the live tokens per (node, side) across the whole
// table — the introspection behind the REPL's matches command.
func (t *Table) SizeByNode(numJoins int) [][2]int {
	out := make([][2]int, numJoins)
	v := t.st.view()
	for i := range t.Lines {
		t.lists(v, &t.Lines[i], func(side rete.Side, head *uint32) {
			for e := *head; e != 0; e = v.ent(e).next {
				out[v.ent(e).node()][side]++
			}
		})
	}
	return out
}

// ForEachSlot calls fn with every slot a stored token or parked early
// delete of the table names — what the slot-safety oracles check against
// the live working memory. The table must be quiescent.
func (t *Table) ForEachSlot(fn func(slot uint32)) {
	v := t.st.view()
	each := func(head uint32) {
		for e := head; e != 0; e = v.ent(e).next {
			for _, s := range v.tok(e, v.ent(e).tokLen()) {
				fn(s)
			}
		}
	}
	for i := range t.Lines {
		l := &t.Lines[i]
		t.lists(v, l, func(_ rete.Side, head *uint32) { each(*head) })
		each(l.xdel[0])
		each(l.xdel[1])
	}
}

// CheckDrained verifies the conjugate-pair invariant: after a match
// phase completes, no parked early deletes may remain. A leftover entry
// means an add/delete pair was lost — always a matcher bug. The check
// is the exact parked count, so it costs one load whatever the table
// size; only a violation walks the lines, to name the culprit.
func (t *Table) CheckDrained() error {
	n := t.parked.Load()
	if n == 0 {
		return nil
	}
	v := t.st.view()
	for i := range t.Lines {
		for s := rete.Left; s <= rete.Right; s++ {
			if e := t.Lines[i].xdel[s]; e != 0 {
				return fmt.Errorf("line %d: unmatched early delete for node %d (%s side, token len %d)",
					i, v.ent(e).node(), s, v.ent(e).tokLen())
			}
		}
	}
	return fmt.Errorf("parked-delete count is %d but every extra-deletes list is empty", n)
}

// Parked reports how many early deletes are parked on the table's
// extra-deletes lists. Exact while the table is quiescent.
func (t *Table) Parked() int64 { return t.parked.Load() }

// WalkParked counts the parked early deletes by walking every
// extra-deletes list — the cross-check of Parked's exact count. The
// table must be quiescent.
func (t *Table) WalkParked() (n int64) {
	v := t.st.view()
	for i := range t.Lines {
		for _, head := range t.Lines[i].xdel {
			n += int64(listLen(v, head))
		}
	}
	return n
}

// Rebind readies the table for a network of numJoins joins: a per-node
// (vs1) table gets one line per join; a hashed one picks lines by token
// hash and keeps its lines. The table must hold no entry and no parked
// delete — node IDs name different joins in the new network — and its
// owner must hold it alone with every live delta folded.
func (t *Table) Rebind(numJoins int) error {
	if n, p := t.entries.Load(), t.parked.Load(); n != 0 || p != 0 {
		return fmt.Errorf("hashmem: rebind with %d entries and %d parked deletes left", n, p)
	}
	if !t.Hashed {
		t.Lines = make([]Line, max(numJoins, 1))
	}
	return nil
}

// ResetNodes sizes the per-node counters for a network of numJoins
// joins, all zero. The totals in M carry on.
func (r *Recorder) ResetNodes(numJoins int) {
	m := r.M
	*r = *NewRecorder(numJoins)
	r.M = m
}
