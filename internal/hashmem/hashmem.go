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
//   - New builds the node-segregated layout: within a line, entries live
//     in per-(node, hash) runs reached through a small open-addressed
//     sub-index, so searches and deletes touch only same-node, same-hash
//     candidates instead of every colliding token. Runs are dense slices
//     kept compact by swap-remove. These tables are also adaptive: the
//     owner grows them at a drained point once the load factor climbs
//     (GrowTarget/Grow), so production-scale working memories never
//     degrade a line into a linear scan.
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

	"repro/internal/rete"
	"repro/internal/stats"
	"repro/internal/wm"
)

// run is one (node, hash) equivalence class of a segregated line: every
// entry in mem shares the node and the full 64-bit token hash. A run
// whose slices are both empty stays in the sub-index as a reusable key
// slot so open-addressed probe sequences remain intact.
type run struct {
	node *rete.JoinNode
	hash uint64
	mem  [2][]*rete.Entry // indexed by rete.Side
}

// Line is a pair of corresponding left/right buckets plus the parked
// early deletes for each side. List-layout tables (vs1, legacy) store
// tokens on the Mem lists; segregated tables store them in runs. XDel
// is an intrusive list in every layout: parked conjugate minuses are
// few and short-lived.
type Line struct {
	Mem  [2]rete.EntryList // list layouts: indexed by rete.Side
	XDel [2]rete.EntryList // conjugate minus tokens that arrived early

	runs []run // segregated layout: open-addressed by (node, hash)
	used int   // sub-index slots holding a key (live or emptied)
	live int   // live entries across runs (line depth)
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
// sub-index keeps intra-line scans short whatever the depth, so the
// table only needs enough lines to keep locks uncontended and runs off
// any single line — growing to load ≤ 1 would balloon the line array
// past cache for no scan benefit.
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
// SearchOpposite consumes it instead of re-probing, so the open-addressed
// sub-index — which same-side inserts mutate — is only ever touched
// under that lock; the run struct itself stays valid across concurrent
// sub-index growth (growth copies run values, and the opposite-side
// slice this activation reads cannot be mutated while its side holds
// the line). Zero for list-layout tables.
type Ref struct{ r *run }

// findRun returns the line's run for (j, hash), optionally creating it.
// The sub-index is open-addressed with linear probing; emptied runs keep
// their key and are reused on an exact match, so deletion never needs
// tombstone repair.
func (l *Line) findRun(j *rete.JoinNode, hash uint64, create bool) *run {
	if l.runs == nil {
		if !create {
			return nil
		}
		l.runs = make([]run, 4)
	}
	n := len(l.runs)
	i := slotOf(hash, n)
	for probes := 0; probes < n; probes++ {
		r := &l.runs[i&(n-1)]
		if r.node == nil {
			if !create {
				return nil
			}
			if l.used+1 > n-n/4 { // keep a quarter of the slots empty
				l.growRuns()
				return l.findRun(j, hash, create)
			}
			r.node, r.hash = j, hash
			l.used++
			return r
		}
		if r.node == j && r.hash == hash {
			return r
		}
		i++
	}
	if !create {
		return nil
	}
	l.growRuns()
	return l.findRun(j, hash, create)
}

// growRuns doubles the sub-index, dropping emptied runs (compaction
// happens here rather than on every delete).
func (l *Line) growRuns() {
	old := l.runs
	n := len(old) * 2
	if n == 0 {
		n = 4
	}
	l.runs = make([]run, n)
	l.used = 0
	for i := range old {
		r := &old[i]
		if r.node == nil || (len(r.mem[0]) == 0 && len(r.mem[1]) == 0) {
			continue
		}
		j := slotOf(r.hash, n)
		for {
			dst := &l.runs[j&(n-1)]
			if dst.node == nil {
				*dst = *r
				l.used++
				break
			}
			j++
		}
	}
}

// removeFromRun takes one entry for wmes out of the run's side slice,
// scanning newest-first (the LIFO discipline of the list layout) and
// swap-removing to keep the run dense. All entries in a run already
// share the node and hash, so only the token comparison remains.
func (r *run) removeFromRun(side rete.Side, wmes []*wm.WME) (*rete.Entry, int) {
	s := r.mem[side]
	for i := len(s) - 1; i >= 0; i-- {
		if rete.SameWmes(s[i].Wmes, wmes) {
			e := s[i]
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			r.mem[side] = s[:last]
			return e, len(s) - i
		}
	}
	return nil, len(s)
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
// arena for the token slices built per matching pair, and a free list
// of memory entries recycled when a delete unlinks them. Each matcher
// process owns one (no synchronization); a nil *Pools falls back to
// plain allocation, which the Multimax simulator keeps for its
// deterministic replay.
//
// Token slices deliberately do NOT recycle: an output token fans out
// to every successor and terminal of a node and is retained by node
// memories and the conflict set, so its lifetime escapes the task that
// built it. The arena instead amortizes those allocations to one large
// chunk per tokenChunk pointers; entries, whose lifetime is exactly
// bracketed by insert and delete under the line lock, do recycle.
type Pools struct {
	tok     []*wm.WME
	entries []*rete.Entry
	live    int64 // inserts minus deletes since the last FoldLive
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

const (
	tokenChunk   = 4096
	entryPoolCap = 1024
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

// newEntry builds a memory entry, reusing a recycled one when possible.
func (p *Pools) newEntry(j *rete.JoinNode, side rete.Side, hash uint64, wmes []*wm.WME) *rete.Entry {
	if p == nil || len(p.entries) == 0 {
		return &rete.Entry{Node: j, Side: side, Hash: hash, Wmes: wmes}
	}
	n := len(p.entries) - 1
	e := p.entries[n]
	p.entries[n] = nil
	p.entries = p.entries[:n]
	e.Node, e.Side, e.Hash, e.Wmes = j, side, hash, wmes
	return e
}

// FreeEntry recycles an unlinked entry. Callers own the entry
// exclusively at that point: Remove unlinked it under the line lock and
// no other process can reach it. The caller must be done reading
// NegCount (negated-node deletes read it inside SearchOpposite).
func (p *Pools) FreeEntry(e *rete.Entry) {
	if p == nil || e == nil || len(p.entries) >= entryPoolCap {
		return
	}
	e.Node, e.Wmes, e.Next = nil, nil, nil
	e.NegCount.Store(0)
	p.entries = append(p.entries, e)
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
		if e, _ := line.XDel[side].Remove(j, side, hash, wmes); e != nil {
			t.parked.Add(-1)
			pools.FreeEntry(e)
			res.Annihilated = true
			return nil, ref, res
		}
		e := pools.newEntry(j, side, hash, wmes)
		if t.seg {
			r := line.findRun(j, hash, true)
			r.mem[side] = append(r.mem[side], e)
			ref.r = r
		} else {
			line.Mem[side].Push(e)
		}
		line.live++
		t.noteLive(pools, 1)
		t.noteDepth(line.live)
		if rec != nil {
			rec.NodeCount[side][j.ID]++
		}
		res.Proceeded = true
		return e, ref, res
	}
	var e *rete.Entry
	var scanned int
	if t.seg {
		if r := line.findRun(j, hash, false); r != nil {
			e, scanned = r.removeFromRun(side, wmes)
			ref.r = r
		}
	} else {
		e, scanned = line.Mem[side].Remove(j, side, hash, wmes)
	}
	res.OwnScanned = scanned
	if e == nil {
		// Early delete: park it and do not otherwise process the token.
		line.XDel[side].Push(pools.newEntry(j, side, hash, wmes))
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
func (t *Table) noteDepth(depth int) {
	d := int64(depth)
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
// the sub-index outside the modification lock). In the MRSW scheme this
// part runs without the modification lock for positive nodes; negated
// right-side activations update left counts atomically.
func (t *Table) SearchOpposite(idx int, ref Ref, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, entry *rete.Entry, rec *Recorder, pools *Pools, emit Emit) StepResult {
	var res StepResult
	if j.Negated {
		if t.seg {
			searchNegatedRun(ref.r, j, side, sign, wmes, entry, &res, emit)
		} else {
			searchNegatedList(&t.Lines[idx], j, side, sign, wmes, entry, &res, emit)
		}
	} else if t.seg {
		opp := side ^ 1
		if r := ref.r; r != nil {
			for _, e := range r.mem[opp] {
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
	} else {
		line := &t.Lines[idx]
		opp := side ^ 1
		for e := line.Mem[opp].Head; e != nil; e = e.Next {
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

// searchNegatedRun maintains negation counts within the (node, hash)
// run: a right WME can only match left tokens whose hash equals its
// own, so count updates never need to look outside the run.
func searchNegatedRun(r *run, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, entry *rete.Entry, res *StepResult, emit Emit) {
	if side == rete.Left {
		if sign {
			var count int32
			if r != nil {
				for _, e := range r.mem[rete.Right] {
					res.OppExamined++
					if j.TestPair(wmes, e.Wmes[0]) {
						count++
					}
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
	if r == nil {
		return
	}
	w := wmes[0]
	for _, e := range r.mem[rete.Left] {
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

func searchNegatedList(line *Line, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, entry *rete.Entry, res *StepResult, emit Emit) {
	if side == rete.Left {
		if sign {
			// Count the matching right WMEs; pass the token through when
			// there are none.
			var count int32
			for e := line.Mem[rete.Right].Head; e != nil; e = e.Next {
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
	for e := line.Mem[rete.Left].Head; e != nil; e = e.Next {
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
// and parked early delete of t, re-slotted by its stored 64-bit hash.
// The caller must hold t exclusively (sequential matchers between
// submits; the parallel control process drained) and must republish the
// lock arrays alongside the table so footnote 4's one-lock-per-line
// discipline holds at the new size. Entry objects move — they are never
// copied — so live *Entry pointers (negation counts) stay valid.
func (t *Table) Grow(nLines int) *Table {
	nt := New(nLines)
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
					dl := &nt.Lines[e.Hash&nt.mask]
					dr := dl.findRun(e.Node, e.Hash, true)
					dr.mem[s] = append(dr.mem[s], e)
					dl.live++
					if int64(dl.live) > maxDepth {
						maxDepth = int64(dl.live)
					}
					moved++
				}
			}
		}
		for s := 0; s < 2; s++ {
			for e := l.XDel[s].Head; e != nil; {
				next := e.Next
				e.Next = nil
				nt.Lines[e.Hash&nt.mask].XDel[s].Push(e)
				parked++
				e = next
			}
			l.XDel[s] = rete.EntryList{}
		}
	}
	nt.entries.Store(moved)
	nt.parked.Store(parked)
	nt.maxDepth.Store(maxDepth)
	nt.resizes = t.resizes + 1
	nt.rehashed = t.rehashed + moved
	return nt
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
		for s := 0; s < 2; s++ {
			for e := l.Mem[s].Head; e != nil; e = e.Next {
				out[e.Node.ID][s]++
			}
		}
		for ri := range l.runs {
			r := &l.runs[ri]
			if r.node == nil {
				continue
			}
			for s := 0; s < 2; s++ {
				out[r.node.ID][s] += len(r.mem[s])
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
		l := &t.Lines[i]
		for s := 0; s < 2; s++ {
			if e := l.XDel[s].Head; e != nil {
				return fmt.Errorf("line %d: unmatched early delete for node %d (%s side, token len %d)",
					i, e.Node.ID, rete.Side(s), len(e.Wmes))
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
		for s := 0; s < 2; s++ {
			n := exciseList(&l.Mem[s], dead)
			l.live -= n
			removed += n
			x := exciseList(&l.XDel[s], dead)
			t.parked.Add(int64(-x))
			removed += x
		}
		for ri := range l.runs {
			r := &l.runs[ri]
			if r.node == nil || !dead[r.node.ID] {
				continue
			}
			// Keep the keyed slot so probe sequences stay intact; the next
			// sub-index growth compacts it away.
			for s := 0; s < 2; s++ {
				n := len(r.mem[s])
				l.live -= n
				removed += n
				r.mem[s] = nil
			}
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
	if t.seg {
		for i := range t.Lines {
			l := &t.Lines[i]
			for ri := range l.runs {
				r := &l.runs[ri]
				if r.node != j {
					continue
				}
				for _, le := range r.mem[rete.Left] {
					if j.Negated {
						if le.NegCount.Load() == 0 {
							fn(le.Wmes)
						}
						continue
					}
					for _, re := range r.mem[rete.Right] {
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
		}
		return
	}
	lines := t.Lines
	if !t.Hashed {
		lines = t.Lines[j.ID : j.ID+1]
	}
	for i := range lines {
		l := &lines[i]
		for le := l.Mem[rete.Left].Head; le != nil; le = le.Next {
			if le.Node != j || le.Side != rete.Left {
				continue
			}
			if j.Negated {
				if le.NegCount.Load() == 0 {
					fn(le.Wmes)
				}
				continue
			}
			for re := l.Mem[rete.Right].Head; re != nil; re = re.Next {
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
}
