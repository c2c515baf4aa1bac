// Package hashmem implements the paper's token storage: two large hash
// tables (left and right) holding the tokens of every two-input node's
// memories, organized in "lines". A line is the pair of same-index
// buckets from the left and right tables together with their
// extra-deletes lists; processing a single node activation touches
// exactly one line (paper footnote 4), which is what the per-line locks
// of the parallel matchers protect.
//
// Three storage layouts share the machinery:
//
//   - New builds the node-segregated layout: within a line, tokens live
//     in per-(node, hash) runs, so searches and deletes touch only
//     same-node, same-hash candidates instead of every colliding token.
//     A run is two intrusive lists (left and right, newest first) chained
//     through Entry.Next; a line carries its first run inline and reaches
//     any further ones through a small open-addressed sub-index, so a
//     one-run line costs one cache line and no allocation, and no
//     activation allocates anything but its entry. These tables are also
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
	"sync/atomic"
	"unsafe"

	"repro/internal/rete"
	"repro/internal/stats"
	"repro/internal/wm"
)

// run is one (node, hash) equivalence class of a segregated line: every
// entry on its two lists shares the node and the full 64-bit token hash.
// The lists are intrusive (Entry.Next), newest first — the paper's
// stack discipline, so a delete scans in pure LIFO order and an
// activation allocates nothing but its entry.
type run struct {
	node *rete.JoinNode
	hash uint64
	mem  [2]*rete.Entry // list heads, indexed by rete.Side
}

func (r *run) empty() bool { return r.mem[0] == nil && r.mem[1] == nil }

// Line is a pair of corresponding left/right buckets plus the parked
// early deletes for each side: one cache line. A segregated line holds
// its first run inline — an activation on a one-run line touches the
// line and the entry, nothing else — and reaches further runs through an
// open-addressed sub-index of slots run values starting at runs (a bare
// pointer and a count rather than a slice header, to fit). What no
// segregated activation needs sits behind ext. Both are allocated on
// first use.
type Line struct {
	first run
	runs  *run
	ext   *lineExt
	live  int32 // live entries in the line (line depth)
	used  int32 // overflow slots holding a key (live or emptied)
	slots int32 // overflow slots, a power of two (0: none yet)
}

// lineExt is the rarely-needed part of a line: the token lists of the
// list layouts (vs1, legacy) and the parked conjugate minuses of every
// layout (few and short-lived).
type lineExt struct {
	Mem  [2]rete.EntryList // list layouts: indexed by rete.Side
	XDel [2]rete.EntryList // conjugate minus tokens that arrived early
}

// overflow returns the line's overflow sub-index, nil when it has none.
func (l *Line) overflow() []run {
	if l.runs == nil {
		return nil
	}
	return unsafe.Slice(l.runs, l.slots)
}

// x returns the line's extension, allocating it on first use.
func (l *Line) x() *lineExt {
	if l.ext == nil {
		l.ext = new(lineExt)
	}
	return l.ext
}

// ParkedHead returns the newest early delete parked on the line for
// side, nil when there is none; the rest follow through Entry.Next.
func (l *Line) ParkedHead(side rete.Side) *rete.Entry {
	if l.ext == nil {
		return nil
	}
	return l.ext.XDel[side].Head
}

// Table is a set of lines. With Hashed true, lines are selected by token
// hash (vs2 and the parallel matchers); otherwise one line per join node
// (vs1).
type Table struct {
	Lines  []Line
	mask   uint64
	Hashed bool
	seg    bool // node-segregated run layout (New); false for the list layouts

	// entries counts live tokens across the table, parked the early
	// deletes sitting on XDel lists, and maxDepth is the high-water line
	// depth; all three are updated under the per-line locks but read
	// table-wide, hence atomic. entries is only as fresh as the last
	// FoldLive: an activation that brings a Pools counts its insert or
	// delete there, privately, so the one word every process would write
	// on every activation is written once per drain instead. parked is
	// exact — every XDel push and unlink adjusts it — so CheckDrained is a
	// load, not a walk. The resize counters are owned by whoever performs
	// Grow (the control process, drained).
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
	t := newHashed(nLines)
	t.seg = true
	return t
}

// NewLegacy returns a fixed-size table in the paper's original layout:
// linked-list lines scanned linearly with a per-entry node filter. It
// never grows.
func NewLegacy(nLines int) *Table {
	return newHashed(nLines)
}

func newHashed(nLines int) *Table {
	n := 1
	for n < nLines {
		n <<= 1
	}
	return &Table{Lines: make([]Line, n), mask: uint64(n - 1), Hashed: true}
}

// NewPerNode returns a vs1-style table with one private line per join
// node.
func NewPerNode(numJoins int) *Table {
	if numJoins == 0 {
		numJoins = 1
	}
	return &Table{Lines: make([]Line, numJoins)}
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

// Ref is an opaque handle to the (node, hash) run an activation landed
// in, resolved by UpdateOwn while the line's modification lock is held.
// SearchOpposite consumes it instead of re-probing, so the run index —
// which same-side inserts mutate — is only ever touched under that lock.
// Two rules keep a Ref sound without one: it is read once, for the
// opposite-side list head only, by the SearchOpposite paired with the
// UpdateOwn that made it; and a run slot is re-keyed only when both its
// lists are empty, which cannot happen to a list a reader is walking
// (its side is frozen while the reader's side holds the line), so a
// re-keyed or outgrown slot still shows that reader exactly the
// opposite list it came for. Zero for list-layout tables.
type Ref struct{ r *run }

// findRun returns the line's run for (j, hash), optionally creating it.
// The inline run is tried first; the overflow sub-index is open-addressed
// with linear probing, and its emptied runs keep their key and are reused
// on an exact match, so deletion never needs tombstone repair. A new key
// takes the inline slot whenever that is empty — a key therefore lives
// in one place only — and an overflow slot otherwise.
func (l *Line) findRun(j *rete.JoinNode, hash uint64, create bool) *run {
	f := &l.first
	if f.node == j && f.hash == hash {
		return f
	}
	var slot *run // the free overflow slot the probe ended on
	if runs := l.overflow(); runs != nil {
		// A quarter of the slots is always free, so the probe terminates.
		for n, i := len(runs), slotOf(hash, len(runs)); ; i++ {
			r := &runs[i&(n-1)]
			if r.node == nil {
				slot = r
				break
			}
			if r.node == j && r.hash == hash {
				return r
			}
		}
	}
	if !create {
		return nil
	}
	if f.empty() {
		f.node, f.hash = j, hash
		return f
	}
	if slot == nil || l.used+1 > l.slots-l.slots/4 {
		slot = freeSlot(l.growRuns(), hash)
	}
	slot.node, slot.hash = j, hash
	l.used++
	return slot
}

// freeSlot returns the first free slot on hash's probe sequence.
func freeSlot(runs []run, hash uint64) *run {
	for n, i := len(runs), slotOf(hash, len(runs)); ; i++ {
		if r := &runs[i&(n-1)]; r.node == nil {
			return r
		}
	}
}

// growRuns doubles the overflow sub-index, dropping emptied runs
// (compaction happens here rather than on every delete), and returns
// it. Run values are copied, so a Ref into the old array stays readable.
func (l *Line) growRuns() []run {
	old := l.overflow()
	runs := make([]run, max(4, 2*len(old)))
	l.runs, l.slots, l.used = &runs[0], int32(len(runs)), 0
	for i := range old {
		if r := &old[i]; r.node != nil && !r.empty() {
			*freeSlot(runs, r.hash) = *r
			l.used++
		}
	}
	return runs
}

// remove unlinks one entry for wmes from the run's side list, scanning
// newest-first. All entries in a run already share the node and hash, so
// only the token comparison remains.
func (r *run) remove(side rete.Side, wmes []*wm.WME) (e *rete.Entry, scanned int) {
	for p := &r.mem[side]; *p != nil; p = &(*p).Next {
		scanned++
		if e = *p; rete.SameWmes(e.Wmes, wmes) {
			*p, e.Next = e.Next, nil
			return e, scanned
		}
	}
	return nil, scanned
}

// forEachRun calls fn for every keyed run of a segregated line. The
// overflow array is read once, so fn may insert into the line (epoch
// replay does): the runs it has yet to visit stay where they were.
func (l *Line) forEachRun(fn func(*run)) {
	if l.first.node != nil {
		fn(&l.first)
	}
	runs := l.overflow()
	for i := range runs {
		if runs[i].node != nil {
			fn(&runs[i])
		}
	}
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

// Emit receives one output token of a node activation. Positive nodes
// emit extended tokens (left token + right WME); negated nodes re-emit
// the left token itself.
type Emit func(sign bool, wmes []*wm.WME)

// Pools is a per-worker allocation cache for the match hot path: an
// arena for the token slices built per matching pair, and memory entries
// carved from slabs and recycled when a delete unlinks them. Each matcher
// process owns one (no synchronization); a nil *Pools falls back to
// plain allocation, which the Multimax simulator keeps for its
// deterministic replay.
//
// Token slices deliberately do NOT recycle: an output token fans out
// to every successor and terminal of a node and is retained by node
// memories and the conflict set, so its lifetime escapes the task that
// built it. The arena instead amortizes those allocations to one large
// chunk per tokenChunk pointers; entries, whose lifetime is exactly
// bracketed by insert and delete under the line lock, do recycle —
// every one of them, through an intrusive free list with no cap, so a
// session's entry memory is its peak live token count and nothing is
// handed back to the collector one entry at a time.
type Pools struct {
	tok  []*wm.WME
	slab []rete.Entry // unissued entries of the newest slab
	next int          // size of the slab after that
	free *rete.Entry  // recycled entries, chained through Next
	live int64        // inserts minus deletes since the last FoldLive
}

// FoldLive moves the live-entry delta p's owner has accumulated into
// the table's gauge. The owner must be out of the table: matchers call
// it at drained points, before anything reads the gauge (GrowTarget,
// MemStats, Clone) or recounts it (Grow, ExciseNodes).
func (t *Table) FoldLive(p *Pools) {
	if p.live != 0 {
		t.entries.Add(p.live)
		p.live = 0
	}
}

// noteLive counts one insert (+1) or delete (-1): in the caller's pools
// when it has them, straight into the shared gauge otherwise.
func (t *Table) noteLive(p *Pools, d int64) {
	if p != nil {
		p.live += d
	} else {
		t.entries.Add(d)
	}
}

// tokenChunk is the token arena's chunk size in pointers. Entry slabs
// start at entrySlabMin entries and double up to entrySlabMax, so a
// short-lived session pays for a handful of entries and a large one
// for one allocation per entrySlabMax.
const (
	tokenChunk   = 4096
	entrySlabMin = 16
	entrySlabMax = 1024
)

// MakeToken returns a zeroed token slice of length n with no spare
// capacity (appending to an emitted token must never alias another).
func (p *Pools) MakeToken(n int) []*wm.WME {
	if p == nil {
		return make([]*wm.WME, n)
	}
	if len(p.tok) < n {
		c := tokenChunk
		if n > c {
			c = n
		}
		p.tok = make([]*wm.WME, c)
	}
	s := p.tok[0:n:n]
	p.tok = p.tok[n:]
	return s
}

// newEntry builds a memory entry: a recycled one when there is one, the
// next of the current slab otherwise.
func (p *Pools) newEntry(j *rete.JoinNode, side rete.Side, hash uint64, wmes []*wm.WME) *rete.Entry {
	if p == nil {
		return &rete.Entry{Node: j, Side: side, Hash: hash, Wmes: wmes}
	}
	e := p.free
	if e != nil {
		p.free, e.Next = e.Next, nil
	} else {
		if len(p.slab) == 0 {
			p.slab = make([]rete.Entry, max(p.next, entrySlabMin))
			p.next = min(2*len(p.slab), entrySlabMax)
		}
		e, p.slab = &p.slab[0], p.slab[1:]
	}
	e.Node, e.Side, e.Hash, e.Wmes = j, side, hash, wmes
	return e
}

// FreeEntry recycles an unlinked entry. Callers own the entry
// exclusively at that point: Remove unlinked it under the line lock and
// no other process can reach it. The caller must be done reading
// NegCount (negated-node deletes read it inside SearchOpposite).
func (p *Pools) FreeEntry(e *rete.Entry) {
	if p == nil || e == nil {
		return
	}
	e.Node, e.Wmes = nil, nil
	e.NegCount.Store(0)
	e.Next, p.free = p.free, e
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
// line idx: it adds the token to, or deletes it from, the node's own
// memory, applying the conjugate-pair protocol. In the MRSW locking
// scheme this is the part that runs under the modification lock. It
// returns the affected entry (the freshly inserted one, or the removed
// one whose NegCount a negated-node caller still needs) and, for
// segregated tables, the Ref the matching SearchOpposite call must be
// handed. The Ref is always resolved for a Proceeded activation.
func (t *Table) UpdateOwn(idx int, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, hash uint64, rec *Recorder, pools *Pools) (*rete.Entry, Ref, StepResult) {
	line := &t.Lines[idx]
	var res StepResult
	var ref Ref
	if sign {
		// A plus annihilates with a parked early minus for the same token.
		if x := line.ext; x != nil {
			if e, _ := x.XDel[side].Remove(j, side, hash, wmes); e != nil {
				t.parked.Add(-1)
				pools.FreeEntry(e)
				res.Annihilated = true
				return nil, ref, res
			}
		}
		e := pools.newEntry(j, side, hash, wmes)
		if t.seg {
			r := line.findRun(j, hash, true)
			e.Next, r.mem[side] = r.mem[side], e
			ref.r = r
		} else {
			line.x().Mem[side].Push(e)
		}
		line.live++
		t.noteLive(pools, 1)
		t.noteDepth(int64(line.live))
		if rec != nil {
			rec.NodeCount[side][j.ID]++
		}
		res.Proceeded = true
		return e, ref, res
	}
	var e *rete.Entry
	if t.seg {
		if r := line.findRun(j, hash, false); r != nil {
			e, res.OwnScanned = r.remove(side, wmes)
			ref.r = r
		}
	} else if x := line.ext; x != nil {
		e, res.OwnScanned = x.Mem[side].Remove(j, side, hash, wmes)
	}
	if e == nil {
		// Early delete: park it and do not otherwise process the token.
		line.x().XDel[side].Push(pools.newEntry(j, side, hash, wmes))
		t.parked.Add(1)
		res.Parked = true
		return nil, Ref{}, res
	}
	line.live--
	t.noteLive(pools, -1)
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

// SearchOpposite performs the second half of an activation on line idx:
// comparing the token against the opposite memory of the same line and
// emitting the resulting tokens. For negated nodes it maintains the
// join counts. entry and ref are UpdateOwn's results (the entry for
// negated-node count handling, the ref so segregated tables never probe
// the run index outside the modification lock). In the MRSW scheme this
// part runs without the modification lock for positive nodes; negated
// right-side activations update left counts atomically.
//
// Every layout walks an intrusive list from oppHead. A list-layout line
// mixes the tokens of every node that hashes to it, so the walk filters
// on (node, side); a run holds one node's tokens only and every entry
// passes — one loop serves both, with identical examined counts.
func (t *Table) SearchOpposite(idx int, ref Ref, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, entry *rete.Entry, rec *Recorder, pools *Pools, emit Emit) StepResult {
	var res StepResult
	opp := side ^ 1
	if j.Negated {
		searchNegated(t.oppHead(idx, ref, opp), j, side, sign, wmes, entry, &res, emit)
	} else {
		for e := t.oppHead(idx, ref, opp); e != nil; e = e.Next {
			if e.Node != j || e.Side != opp {
				continue // hash collision with another node's tokens
			}
			res.OppExamined++
			var left []*wm.WME
			var right *wm.WME
			if side == rete.Left {
				left, right = wmes, e.Wmes[0]
			} else {
				left, right = e.Wmes, wmes[0]
			}
			if !j.TestPair(left, right) {
				continue
			}
			res.Pairs++
			child := pools.MakeToken(len(left) + 1)
			copy(child, left)
			child[len(left)] = right
			emit(sign, child)
		}
	}
	if rec != nil {
		recordSearch(rec, j, side, &res)
	}
	return res
}

// oppHead returns the head of the list holding the opp-side tokens an
// activation must examine: the ref's run in a segregated table (a right
// WME can only match left tokens whose hash equals its own, so nothing
// outside the run matters), the line's whole opp list otherwise.
func (t *Table) oppHead(idx int, ref Ref, opp rete.Side) *rete.Entry {
	if t.seg {
		if ref.r == nil {
			return nil
		}
		return ref.r.mem[opp]
	}
	if x := t.Lines[idx].ext; x != nil {
		return x.Mem[opp].Head
	}
	return nil
}

// searchNegated maintains the negation counts of a negated node against
// the opposite list starting at head.
func searchNegated(head *rete.Entry, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, entry *rete.Entry, res *StepResult, emit Emit) {
	if side == rete.Left {
		if sign {
			// Count the matching right WMEs; pass the token through when
			// there are none.
			var count int32
			for e := head; e != nil; e = e.Next {
				if e.Node != j || e.Side != rete.Right {
					continue
				}
				res.OppExamined++
				if j.TestPair(wmes, e.Wmes[0]) {
					count++
				}
			}
			entry.NegCount.Store(count)
			if count == 0 {
				res.Pairs++
				emit(true, wmes)
			}
			return
		}
		// Deleting a left token that had passed (count 0) retracts it.
		if entry.NegCount.Load() == 0 {
			res.Pairs++
			emit(false, wmes)
		}
		return
	}
	// Right-side activation: adjust the counts of matching left tokens.
	w := wmes[0]
	for e := head; e != nil; e = e.Next {
		if e.Node != j || e.Side != rete.Left {
			continue
		}
		res.OppExamined++
		if !j.TestPair(e.Wmes, w) {
			continue
		}
		if sign {
			if e.NegCount.Add(1) == 1 {
				res.Pairs++
				emit(false, e.Wmes)
			}
		} else {
			if e.NegCount.Add(-1) == 0 {
				res.Pairs++
				emit(true, e.Wmes)
			}
		}
	}
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
// and parked early delete of t. A run's tokens share one hash, so a run
// moves whole: its two list heads are re-slotted and the entries behind
// them are never touched beyond being counted — per-run order, and with
// it every later scan count, is preserved. The caller must hold t
// exclusively (sequential matchers between submits; the parallel control
// process drained) and must republish the lock arrays alongside the
// table so footnote 4's one-lock-per-line discipline holds at the new
// size. Entry objects move — they are never copied — so live *Entry
// pointers (negation counts) stay valid.
func (t *Table) Grow(nLines int) *Table {
	nt := New(nLines)
	moved := t.rehashInto(nt, nil)
	nt.resizes = t.resizes + 1
	nt.rehashed = t.rehashed + moved
	return nt
}

// rehashInto fills the empty segregated table nt with t's runs and
// parked deletes, re-slotted by hash, and sets nt's gauges; it returns
// the live entries carried over. With cp nil the entries themselves move
// (Grow: t is dead afterwards); otherwise nt gets copies drawn from cp
// (Clone: t is left untouched). Distinct runs of t stay distinct in nt,
// so every destination run starts empty and takes its lists in order.
func (t *Table) rehashInto(nt *Table, cp *Pools) (moved int64) {
	var parked, maxDepth int64
	for i := range t.Lines {
		l := &t.Lines[i]
		l.forEachRun(func(r *run) {
			if r.empty() {
				return
			}
			dl := &nt.Lines[r.hash&nt.mask]
			dr := dl.findRun(r.node, r.hash, true)
			for s := range r.mem {
				var n int
				dr.mem[s], n = carryList(r.mem[s], cp)
				dl.live += int32(n)
				moved += int64(n)
			}
			maxDepth = max(maxDepth, int64(dl.live))
		})
		if l.ext == nil {
			continue
		}
		for s := range l.ext.XDel {
			for e := l.ext.XDel[s].Head; e != nil; {
				next := e.Next
				if cp != nil {
					e = cp.copyEntry(e)
				}
				nt.Lines[e.Hash&nt.mask].x().XDel[s].Push(e)
				parked++
				e = next
			}
			if cp == nil {
				l.ext.XDel[s] = rete.EntryList{}
			}
		}
	}
	nt.entries.Store(moved)
	nt.parked.Store(parked)
	nt.maxDepth.Store(maxDepth)
	return moved
}

// carryList returns the list starting at head with its length: the list
// itself when cp is nil, an order-preserving copy with entries drawn
// from cp otherwise.
func carryList(head *rete.Entry, cp *Pools) (*rete.Entry, int) {
	if cp == nil {
		return head, listLen(head)
	}
	var out *rete.Entry
	tail, n := &out, 0
	for e := head; e != nil; e = e.Next {
		c := cp.copyEntry(e)
		*tail, tail = c, &c.Next
		n++
	}
	return out, n
}

// copyEntry returns a copy of e drawn from p, unlinked. The copy shares
// the token slice and WME pointers — both immutable once emitted — and
// starts from the original's negation count.
func (p *Pools) copyEntry(e *rete.Entry) *rete.Entry {
	c := p.newEntry(e.Node, e.Side, e.Hash, e.Wmes)
	c.NegCount.Store(e.NegCount.Load())
	return c
}

func listLen(head *rete.Entry) (n int) {
	for e := head; e != nil; e = e.Next {
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
	for i := range t.Lines {
		l := &t.Lines[i]
		l.forEachRun(func(r *run) {
			for s := range r.mem {
				out[r.node.ID][s] += listLen(r.mem[s])
			}
		})
		if l.ext == nil {
			continue
		}
		for s := range l.ext.Mem {
			for e := l.ext.Mem[s].Head; e != nil; e = e.Next {
				out[e.Node.ID][s]++
			}
		}
	}
	return out
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
	for i := range t.Lines {
		for s := rete.Left; s <= rete.Right; s++ {
			if e := t.Lines[i].ParkedHead(s); e != nil {
				return fmt.Errorf("line %d: unmatched early delete for node %d (%s side, token len %d)",
					i, e.Node.ID, s, len(e.Wmes))
			}
		}
	}
	return fmt.Errorf("parked-delete count is %d but every extra-deletes list is empty", n)
}

// Parked reports how many early deletes are parked on the table's
// extra-deletes lists. Exact while the table is quiescent.
func (t *Table) Parked() int64 { return t.parked.Load() }

// EnsureNodes grows a per-node (vs1) table so node IDs up to
// numJoins-1 have a private line, preserving existing lines. Hashed
// tables need no growth (lines are picked by token hash, not node ID);
// matchers call this when adopting a network epoch with new joins.
func (t *Table) EnsureNodes(numJoins int) {
	if t.Hashed || numJoins <= len(t.Lines) {
		return
	}
	lines := make([]Line, numJoins)
	copy(lines, t.Lines)
	t.Lines = lines
}

// EnsureNodes grows the per-node counters for a network epoch with new
// joins.
func (r *Recorder) EnsureNodes(numJoins int) {
	for s := 0; s < 2; s++ {
		if numJoins > len(r.NodeCount[s]) {
			grown := make([]int64, numJoins)
			copy(grown, r.NodeCount[s])
			r.NodeCount[s] = grown
		}
	}
	if numJoins > len(r.NodeExamined) {
		grown := make([]int64, numJoins)
		copy(grown, r.NodeExamined)
		r.NodeExamined = grown
	}
}

// ExciseNodes unlinks every memory entry and parked early delete
// belonging to a dead node (keyed by node ID) and reports how many
// entries were dropped. rec, when non-nil, has the dead nodes' token
// counts zeroed. The caller must hold the table exclusively (sequential
// matchers between activations; the parallel matcher drained).
func (t *Table) ExciseNodes(dead map[int]bool, rec *Recorder) (removed int) {
	if len(dead) == 0 {
		return 0
	}
	for i := range t.Lines {
		l := &t.Lines[i]
		// A dead run keeps its key (overflow probe sequences stay intact;
		// the next sub-index growth compacts it away) and drops its lists.
		l.forEachRun(func(r *run) {
			if !dead[r.node.ID] {
				return
			}
			for s := range r.mem {
				n := listLen(r.mem[s])
				l.live -= int32(n)
				removed += n
				r.mem[s] = nil
			}
		})
		if l.ext == nil {
			continue
		}
		for s := range l.ext.Mem {
			n := exciseList(&l.ext.Mem[s], dead)
			l.live -= int32(n)
			removed += n
			x := exciseList(&l.ext.XDel[s], dead)
			t.parked.Add(int64(-x))
			removed += x
		}
	}
	// removed includes parked XDel entries, which never counted toward
	// the live gauge; recompute exactly.
	var live int64
	for i := range t.Lines {
		live += int64(t.Lines[i].live)
	}
	t.entries.Store(live)
	if rec != nil {
		for id := range dead {
			for s := 0; s < 2; s++ {
				if id < len(rec.NodeCount[s]) {
					rec.NodeCount[s][id] = 0
				}
			}
			if id < len(rec.NodeExamined) {
				rec.NodeExamined[id] = 0
			}
		}
	}
	return removed
}

func exciseList(l *rete.EntryList, dead map[int]bool) (removed int) {
	var prev *rete.Entry
	for cur := l.Head; cur != nil; {
		next := cur.Next
		if dead[cur.Node.ID] {
			if prev == nil {
				l.Head = next
			} else {
				prev.Next = next
			}
			cur.Next = nil
			l.Len--
			removed++
		} else {
			prev = cur
		}
		cur = next
	}
	return removed
}

// ForEachOutput re-derives the historical output tokens of join j from
// its stored memories and calls fn for each: for a positive node every
// matching (left token, right WME) pair in the same line, for a negated
// node every left token whose negation count is zero. Replay uses this
// to seed newly attached successors and terminals of a pre-existing
// join with the tokens it has already emitted. Correct on hashed tables
// because both sides of a matching pair fold the same equality-test
// values into their hash and therefore share a line — and, in the
// segregated layout, a run. The caller must hold the table exclusively.
func (t *Table) ForEachOutput(j *rete.JoinNode, pools *Pools, fn func(wmes []*wm.WME)) {
	lines := t.Lines
	if !t.Hashed {
		lines = t.Lines[j.ID : j.ID+1]
	}
	for i := range lines {
		l := &lines[i]
		l.forEachRun(func(r *run) {
			if r.node == j {
				forEachPair(j, r.mem[rete.Left], r.mem[rete.Right], pools, fn)
			}
		})
		if x := l.ext; x != nil {
			forEachPair(j, x.Mem[rete.Left].Head, x.Mem[rete.Right].Head, pools, fn)
		}
	}
}

// forEachPair calls fn for every output token j's entries on the two
// lists stand for, skipping entries of other nodes.
func forEachPair(j *rete.JoinNode, left, right *rete.Entry, pools *Pools, fn func(wmes []*wm.WME)) {
	for le := left; le != nil; le = le.Next {
		if le.Node != j || le.Side != rete.Left {
			continue
		}
		if j.Negated {
			if le.NegCount.Load() == 0 {
				fn(le.Wmes)
			}
			continue
		}
		for re := right; re != nil; re = re.Next {
			if re.Node != j || re.Side != rete.Right {
				continue
			}
			if !j.TestPair(le.Wmes, re.Wmes[0]) {
				continue
			}
			child := pools.MakeToken(len(le.Wmes) + 1)
			copy(child, le.Wmes)
			child[len(le.Wmes)] = re.Wmes[0]
			fn(child)
		}
	}
}
