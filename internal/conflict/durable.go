package conflict

import (
	"repro/internal/rete"
	"repro/internal/wm"
)

// This file is the conflict set's durability surface: enumerating and
// re-establishing refraction state (which instantiations have fired)
// for the WM delta log, and cloning the whole set for copy-on-write
// template-session forking.

// instKeyTags mirrors instKey for a recorded tag sequence: the hash
// folds only the rule index and the token time tags, so a fired
// instantiation logged as (rule, tags) is findable after replay without
// its WME pointers.
func instKeyTags(rule *rete.CompiledRule, tags []int) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(uint32(rule.Index))) * fnvPrime
	for _, t := range tags {
		h = (h ^ uint64(uint32(t))) * fnvPrime
	}
	return h
}

// MarkFiredByTags finds the live instantiation of rule whose token time
// tags equal tags (in token order) and marks it fired, re-establishing
// refraction during log replay. It reports whether such an
// instantiation existed — a miss is normal when the firing's WMEs were
// later retracted and the instantiation annihilated.
func (s *Set) MarkFiredByTags(rule *rete.CompiledRule, tags []int) bool {
	h := instKeyTags(rule, tags)
	for cur := s.part(h).live[h]; cur != nil; cur = cur.next {
		if cur.Rule == rule && tagsMatch(cur, tags) {
			s.MarkFired(cur)
			return true
		}
	}
	return false
}

func tagsMatch(inst *Instantiation, tags []int) bool {
	if len(inst.Wmes) != len(tags) {
		return false
	}
	for i, w := range inst.Wmes {
		if w.TimeTag != tags[i] {
			return false
		}
	}
	return true
}

// ForEachFired calls fn for every fired instantiation retained for
// refraction. fn must copy what it keeps and must not call back into the
// set. Snapshots use this instead of Snapshot() so instantiations are
// not leaked out of the free-list discipline just to be counted.
func (s *Set) ForEachFired(fn func(inst *Instantiation)) {
	for i := range s.parts {
		for _, head := range s.parts[i].fired {
			for cur := head; cur != nil; cur = cur.next {
				fn(cur)
			}
		}
	}
}

// Clone returns an independent copy of the set for a forked session:
// same strategy, fresh instantiation objects (Fired diverges per
// session), shared WME pointers and rule metadata (both immutable).
// Chain order within buckets is preserved, so a clone behaves
// identically under the annihilation and selection protocols. The
// counters restart at zero; the gauges carry over.
func (s *Set) Clone() *Set {
	ns := New(Config{Strategy: s.strategy})
	for i := range s.parts {
		p, np := &s.parts[i], &ns.parts[i]
		cloneBuckets(np.live, p.live)
		cloneBuckets(np.fired, p.fired)
		cloneBuckets(np.pending, p.pending)
		np.nLive = p.nLive
		// The cached best points at an original object; recompute lazily.
		np.dirty = true
	}
	ns.c.Live, ns.c.Fired, ns.c.Pending = s.c.Live, s.c.Fired, s.c.Pending
	return ns
}

func cloneBuckets(dst, src map[uint64]*Instantiation) {
	for h, head := range src {
		var newHead, tail *Instantiation
		for cur := head; cur != nil; cur = cur.next {
			c := &Instantiation{
				Rule:  cur.Rule,
				Wmes:  append([]*wm.WME(nil), cur.Wmes...), // the original's storage recycles
				Fired: cur.Fired,
				hash:  cur.hash,
			}
			if len(cur.recency) > 0 {
				c.recency = append([]int(nil), cur.recency...)
			}
			if tail == nil {
				newHead, tail = c, c
			} else {
				tail.next = c
				tail = c
			}
		}
		dst[h] = newHead
	}
}
