// Package conflict implements the OPS5 conflict set and the LEX and MEA
// conflict-resolution strategies, including refraction.
//
// The set is one of the shared resources of the paper's Figure 3-1. Here
// it is not shared: every caller runs it on one goroutine — the
// sequential matchers report terminal activations inline, and the
// parallel matcher's processes buffer theirs for the control process to
// apply at the drained point — so it takes no locks. Instantiations are
// keyed by a hash of (rule index, WME time tags), so insert, remove,
// refraction lookup and pending-delete annihilation are all O(1)
// expected bucket operations.
//
// Selection is incremental: the set is split into a fixed number of
// partitions by key, each caching its dominant unfired instantiation,
// maintained on insert and lazily invalidated when the cached best is
// removed or fired, so Select is a tournament over the partition heads
// (plus a rescan of the rare dirty partition) instead of a scan of the
// whole set. Fired instantiations are compacted out of the live index at
// MarkFired — they stay findable for the terminal minus that eventually
// retracts them (the conjugate-pair protocol requires it) but never cost
// selection time again. Instantiation objects recycle through
// per-partition free lists, hashmem.Pools-style, except objects that
// were handed out via Select or Snapshot, which are left to the garbage
// collector because the caller may still hold them.
package conflict

import (
	"slices"

	"repro/internal/rete"
	"repro/internal/stats"
	"repro/internal/wm"
)

// Instantiation is one satisfied production: the rule plus the ordered
// WMEs matching its positive condition elements. Wmes is the
// instantiation's own storage, copied from the matcher's token and
// reused when the object recycles.
type Instantiation struct {
	Rule *rete.CompiledRule
	Wmes []*wm.WME
	// recency holds the WME time tags sorted descending, the key LEX
	// compares lexicographically. Dropped at MarkFired: fired
	// instantiations never compete in selection again.
	recency []int
	Fired   bool

	hash uint64 // full instantiation key; partition index is hash & (partitions-1)
	next *Instantiation
	// leaked marks objects handed out via Select or Snapshot. They are
	// never recycled onto a free list: the caller may still read them.
	leaked bool
	// wbuf and rbuf back Wmes and recency for tokens of up to four WMEs,
	// so a new instantiation is one allocation.
	wbuf [4]*wm.WME
	rbuf [4]int
}

// partitions is the number of selection partitions, a power of two. One
// partition would make every Select after a removal of the cached best
// rescan the whole live set: on a Weaver(20, 9) session that is 25x the
// instantiations examined and a fifth more session time.
const partitions = 32

// freeListCap bounds each partition's instantiation free list.
const freeListCap = 256

// Config configures a Set.
type Config struct {
	// Strategy is the conflict-resolution discipline (default Lex). The
	// engine re-resolves it from the program at load time via
	// UseStrategy, so most callers can leave it zero.
	Strategy Strategy
}

// partition holds bucket chains for live (unfired), fired and
// parked-delete instantiations of one key range, the cached dominant
// unfired entry and a free list.
type partition struct {
	live    map[uint64]*Instantiation
	fired   map[uint64]*Instantiation
	pending map[uint64]*Instantiation
	nLive   int

	// best is the dominant unfired instantiation of this partition, nil
	// when it has none. dirty marks it stale (the cached best was removed
	// or fired); the next Select recomputes it.
	best  *Instantiation
	dirty bool

	free  *Instantiation
	nFree int
}

// Set is the conflict set. It implements rete.TerminalSink.
type Set struct {
	parts    [partitions]partition
	strategy Strategy
	c        stats.Conflict // counters and the Live/Fired/Pending gauges
	tok      []*wm.WME      // scratch: the token being looked up, in source order
}

// NewSet returns an empty conflict set with default configuration (Lex).
func NewSet() *Set { return New(Config{}) }

// New returns an empty conflict set configured by cfg.
func New(cfg Config) *Set {
	s := &Set{strategy: cfg.Strategy}
	for i := range s.parts {
		p := &s.parts[i]
		p.live = make(map[uint64]*Instantiation)
		p.fired = make(map[uint64]*Instantiation)
		p.pending = make(map[uint64]*Instantiation)
	}
	return s
}

// Strategy reports the current conflict-resolution strategy.
func (s *Set) Strategy() Strategy { return s.strategy }

// UseStrategy re-resolves the strategy, invalidating the cached
// partition bests when it changes. The engine calls it once at program
// load.
func (s *Set) UseStrategy(st Strategy) {
	if st == s.strategy {
		return
	}
	s.strategy = st
	for i := range s.parts {
		s.parts[i].best = nil
		s.parts[i].dirty = true
	}
}

// fnv-1a, folding the rule index and each time tag in token order
// (token order is part of instantiation identity — the token comparison
// is order-sensitive).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func instKey(rule *rete.CompiledRule, wmes []*wm.WME) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(uint32(rule.Index))) * fnvPrime
	for _, w := range wmes {
		h = (h ^ uint64(uint32(w.TimeTag))) * fnvPrime
	}
	return h
}

// sourceToken maps a network-order token back into the rule's source
// condition-element order (rete.CompiledRule.TokenPerm), in the set's
// scratch. The conflict set is the single choke point every matcher
// backend's terminal activations flow through, so applying the
// permutation here keeps instantiation keys, recency, MEA's first-CE
// tag, RHS positions and the firing trace byte-identical whether or not
// the rule's joins were reordered at compile time. Plus and minus
// activations permute the same way, so pending-delete annihilation still
// pairs correctly. The caller's token is the matcher's scratch and is
// only read: an instantiation that stays copies the result.
func (s *Set) sourceToken(rule *rete.CompiledRule, wmes []*wm.WME) []*wm.WME {
	p := rule.TokenPerm
	if p == nil {
		return wmes
	}
	s.tok = slices.Grow(s.tok[:0], len(wmes))[:len(wmes)]
	for i, w := range wmes {
		s.tok[p[i]] = w
	}
	return s.tok
}

// part returns the partition holding key h.
func (s *Set) part(h uint64) *partition { return &s.parts[h&(partitions-1)] }

// unlink removes the first chain node in m[h] matching (rule, wmes) by
// token identity and returns it, or nil.
func unlink(m map[uint64]*Instantiation, h uint64, rule *rete.CompiledRule, wmes []*wm.WME) *Instantiation {
	var prev *Instantiation
	for cur := m[h]; cur != nil; prev, cur = cur, cur.next {
		if cur.Rule == rule && slices.Equal(cur.Wmes, wmes) {
			unlinkNode(m, h, prev, cur)
			return cur
		}
	}
	return nil
}

// unlinkPtr removes the chain node equal to inst from m[h], reporting
// whether it was present.
func unlinkPtr(m map[uint64]*Instantiation, h uint64, inst *Instantiation) bool {
	var prev *Instantiation
	for cur := m[h]; cur != nil; prev, cur = cur, cur.next {
		if cur == inst {
			unlinkNode(m, h, prev, cur)
			return true
		}
	}
	return false
}

func unlinkNode(m map[uint64]*Instantiation, h uint64, prev, cur *Instantiation) {
	if prev == nil {
		if cur.next == nil {
			delete(m, h)
		} else {
			m[h] = cur.next
		}
	} else {
		prev.next = cur.next
	}
	cur.next = nil
}

// newInst builds an instantiation from the partition's free list, or
// allocates, copying the token into the instantiation's own storage.
// withRecency is false for parked pending deletes, which never compete
// in selection.
func (p *partition) newInst(rule *rete.CompiledRule, wmes []*wm.WME, h uint64, withRecency bool) *Instantiation {
	inst := p.free
	if inst != nil {
		p.free = inst.next
		p.nFree--
		inst.next = nil
	} else {
		inst = &Instantiation{}
		inst.Wmes, inst.recency = inst.wbuf[:0], inst.rbuf[:0]
	}
	inst.Rule, inst.Wmes, inst.hash = rule, append(inst.Wmes[:0], wmes...), h
	inst.Fired, inst.leaked = false, false
	if !withRecency {
		inst.recency = inst.recency[:0]
		return inst
	}
	rec := inst.recency[:0]
	for _, w := range wmes {
		rec = append(rec, w.TimeTag)
	}
	// Insertion sort, descending: tokens are a handful of WMEs and the
	// sort.Sort interface boxing was 2 heap allocations per insert.
	for i := 1; i < len(rec); i++ {
		v := rec[i]
		j := i
		for j > 0 && rec[j-1] < v {
			rec[j] = rec[j-1]
			j--
		}
		rec[j] = v
	}
	inst.recency = rec
	return inst
}

// recycle returns an unlinked instantiation to the partition free list.
// Leaked and fired objects are dropped to the garbage collector — the
// engine may still read them.
func (p *partition) recycle(inst *Instantiation) {
	if inst.leaked || inst.Fired || p.nFree >= freeListCap {
		return
	}
	inst.Rule = nil
	clear(inst.Wmes)
	inst.Wmes = inst.Wmes[:0]
	inst.recency = inst.recency[:0]
	inst.next = p.free
	p.free = inst
	p.nFree++
}

// InsertInstantiation adds an instantiation (terminal + activation).
// The token arrives in network join order and is permuted to source
// condition-element order before anything downstream sees it.
func (s *Set) InsertInstantiation(rule *rete.CompiledRule, wmes []*wm.WME) {
	wmes = s.sourceToken(rule, wmes)
	h := instKey(rule, wmes)
	p := s.part(h)
	s.c.Inserts++
	// A parked early delete annihilates with this insert.
	if pd := unlink(p.pending, h, rule, wmes); pd != nil {
		s.c.Pending--
		s.c.Annihilations++
		p.recycle(pd)
		return
	}
	inst := p.newInst(rule, wmes, h, true)
	inst.next = p.live[h]
	p.live[h] = inst
	p.nLive++
	s.c.Live++
	if !p.dirty {
		// Incremental best maintenance: O(1) while the cache is valid.
		if p.best == nil || dominates(inst, p.best, s.strategy) {
			p.best = inst
		}
	}
}

// RemoveInstantiation removes the instantiation for (rule, wmes)
// (terminal − activation). Removing an absent instantiation parks a
// pending delete: the parallel matcher hands the control process a
// phase's terminal activations all at once, removals first, and a
// removal whose insertion is in the same batch annihilates with it when
// the insertion arrives.
func (s *Set) RemoveInstantiation(rule *rete.CompiledRule, wmes []*wm.WME) {
	wmes = s.sourceToken(rule, wmes)
	h := instKey(rule, wmes)
	p := s.part(h)
	s.c.Deletes++
	if inst := unlink(p.live, h, rule, wmes); inst != nil {
		p.nLive--
		s.c.Live--
		if inst == p.best {
			p.best = nil
			p.dirty = true
		}
		p.recycle(inst)
		return
	}
	// Fired instantiations live in their own index; this is the
	// terminal minus that finally retracts a refracted firing.
	if inst := unlink(p.fired, h, rule, wmes); inst != nil {
		s.c.Fired--
		return
	}
	pd := p.newInst(rule, wmes, h, false)
	pd.next = p.pending[h]
	p.pending[h] = pd
	s.c.Pending++
}

// Len reports the number of instantiations in the set, fired included
// (refraction keeps fired entries until their WMEs retract).
func (s *Set) Len() int { return int(s.c.Live + s.c.Fired) }

// Live reports the number of unfired instantiations.
func (s *Set) Live() int { return int(s.c.Live) }

// Fired reports the number of fired instantiations retained for
// refraction (awaiting the terminal minus that retracts them).
func (s *Set) Fired() int { return int(s.c.Fired) }

// Snapshot returns a copy of the instantiations (fired included), for
// tracing. The returned objects are excluded from pooling.
func (s *Set) Snapshot() []*Instantiation {
	var out []*Instantiation
	for i := range s.parts {
		p := &s.parts[i]
		for _, m := range [2]map[uint64]*Instantiation{p.live, p.fired} {
			for _, head := range m {
				for cur := head; cur != nil; cur = cur.next {
					cur.leaked = true
					out = append(out, cur)
				}
			}
		}
	}
	return out
}

// Drained reports whether any parked conflict-set deletes remain; a
// non-empty pending list after a match phase indicates a matcher bug.
func (s *Set) Drained() bool { return s.c.Pending == 0 }

// Select returns the dominant unfired instantiation under the set's
// strategy, or nil if none (the interpreter then halts). It is a
// tournament over the cached partition bests: a partition rescans its
// buckets only when its cached best was invalidated since the last call,
// so the cost scales with the partition count, not the set size.
func (s *Set) Select() *Instantiation {
	s.c.Selects++
	var best *Instantiation
	for i := range s.parts {
		p := &s.parts[i]
		if p.nLive == 0 {
			continue
		}
		if p.dirty {
			s.recomputeBest(p)
		}
		if b := p.best; b != nil && (best == nil || dominates(b, best, s.strategy)) {
			best = b
		}
	}
	if best != nil {
		best.leaked = true
	}
	return best
}

// recomputeBest rescans the partition's live chains.
func (s *Set) recomputeBest(p *partition) {
	var best *Instantiation
	scanned := int64(0)
	for _, head := range p.live {
		for cur := head; cur != nil; cur = cur.next {
			scanned++
			if best == nil || dominates(cur, best, s.strategy) {
				best = cur
			}
		}
	}
	p.best = best
	p.dirty = false
	s.c.SelectRescans++
	s.c.SelectScanned += scanned
}

// MarkFired records refraction for the chosen instantiation and
// compacts it out of the live index: it moves to the fired index —
// still findable by the terminal minus that will eventually retract it
// — and drops its recency key, so selection never examines it again.
func (s *Set) MarkFired(inst *Instantiation) {
	p := s.part(inst.hash)
	inst.Fired = true
	inst.leaked = true
	if unlinkPtr(p.live, inst.hash, inst) {
		p.nLive--
		s.c.Live--
		inst.recency = nil
		inst.next = p.fired[inst.hash]
		p.fired[inst.hash] = inst
		s.c.Fired++
	}
	if p.best == inst {
		p.best = nil
		p.dirty = true
	}
}

// StatsSnapshot returns the set's counters and gauges.
func (s *Set) StatsSnapshot() stats.Conflict { return s.c }

// Inserts reports the total insert count (terminal + activations).
func (s *Set) Inserts() int64 { return s.c.Inserts }

// Deletes reports the total delete count (terminal − activations).
func (s *Set) Deletes() int64 { return s.c.Deletes }

// dominates reports whether a should be preferred over b.
func dominates(a, b *Instantiation, strategy Strategy) bool {
	if strategy == Mea {
		// Means-ends analysis: the instantiation whose first condition
		// element matched the more recent WME wins outright.
		at, bt := firstCETag(a), firstCETag(b)
		if at != bt {
			return at > bt
		}
	}
	// LEX: lexicographic comparison of descending time tags.
	if c := compareRecency(a.recency, b.recency); c != 0 {
		return c > 0
	}
	// Specificity.
	if a.Rule.Specificity != b.Rule.Specificity {
		return a.Rule.Specificity > b.Rule.Specificity
	}
	// Arbitrary but deterministic: rule order, then ascending tags.
	if a.Rule.Index != b.Rule.Index {
		return a.Rule.Index < b.Rule.Index
	}
	for i := range a.Wmes {
		if i >= len(b.Wmes) {
			break
		}
		if a.Wmes[i].TimeTag != b.Wmes[i].TimeTag {
			return a.Wmes[i].TimeTag < b.Wmes[i].TimeTag
		}
	}
	return false
}

func firstCETag(inst *Instantiation) int {
	if len(inst.Wmes) == 0 {
		return 0
	}
	return inst.Wmes[0].TimeTag
}

// compareRecency compares two descending tag lists: positive when a
// dominates. When one list is a prefix of the other, the longer list
// dominates (OPS5 LEX rule).
func compareRecency(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] > b[i] {
				return 1
			}
			return -1
		}
	}
	switch {
	case len(a) > len(b):
		return 1
	case len(a) < len(b):
		return -1
	}
	return 0
}

// ExciseRule drops every instantiation of one production from the set —
// live, fired (the refraction ghosts awaiting their terminal minus) and
// parked deletes — and reports how many entries went. OPS5 excise
// semantics: the production's instantiations vanish outright, with no
// retraction traffic through the network (its terminal is already gone
// from the epoch). Dropped objects are never recycled; Select may have
// leaked some to the engine.
func (s *Set) ExciseRule(rule *rete.CompiledRule) (removed int) {
	for i := range s.parts {
		p := &s.parts[i]
		nLive := exciseMap(p.live, rule)
		if nLive > 0 {
			p.nLive -= nLive
			if p.best != nil && p.best.Rule == rule {
				p.best = nil
				p.dirty = true
			}
		}
		nFired := exciseMap(p.fired, rule)
		nPend := exciseMap(p.pending, rule)
		s.c.Live -= int64(nLive)
		s.c.Fired -= int64(nFired)
		s.c.Pending -= int64(nPend)
		removed += nLive + nFired + nPend
	}
	return removed
}

// exciseMap rebuilds each bucket chain without the rule's entries,
// preserving the order of the survivors.
func exciseMap(m map[uint64]*Instantiation, rule *rete.CompiledRule) (removed int) {
	for h, head := range m {
		var newHead, tail *Instantiation
		n := 0
		for cur := head; cur != nil; {
			next := cur.next
			cur.next = nil
			if cur.Rule == rule {
				n++
			} else if tail == nil {
				newHead, tail = cur, cur
			} else {
				tail.next = cur
				tail = cur
			}
			cur = next
		}
		if n == 0 {
			m[h] = newHead // relinked unchanged
			continue
		}
		removed += n
		if newHead == nil {
			delete(m, h)
		} else {
			m[h] = newHead
		}
	}
	return removed
}
