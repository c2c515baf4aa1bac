package seqmatch

import (
	"repro/internal/rete"
	"repro/internal/wm"
)

// Clone returns an independent matcher over a deep copy of the token
// table, for copy-on-write template-session forking. The network is
// shared (immutable per epoch); the table's entries are copied so
// negation counts diverge per fork; token slices and WMEs are shared
// (immutable once emitted). Match counters start at zero in the clone —
// a fork is a new session and its deltas are its own — while the
// per-node live-token gauges are copied because they describe state the
// fork genuinely holds. The matcher must be quiescent (a settled
// template) when cloned.
func (m *Matcher) Clone(sink rete.TerminalSink) *Matcher {
	m.Table.FoldLive(&m.pools)
	c := NewWithTable(m.Net, m.Variant, m.Table.Clone(), sink)
	c.Rec.EnsureNodes(m.Net.NumJoinIDs())
	for s := 0; s < 2; s++ {
		copy(c.Rec.NodeCount[s], m.Rec.NodeCount[s])
	}
	// Unlinking state is join-memory state, not a counter: a fork of a
	// template with unlinked joins must keep their buffered right-side
	// WMEs (the WMEs are immutable and shared; the buffers are not).
	if m.unlinked != nil {
		c.unlinked = make([]*rightBuf, len(m.unlinked))
		for id, b := range m.unlinked {
			if b == nil {
				continue
			}
			nb := &rightBuf{
				wmes: append([]*wm.WME(nil), b.wmes...),
				pos:  make(map[*wm.WME]int, len(b.pos)),
			}
			for w, i := range b.pos {
				nb.pos[w] = i
			}
			c.unlinked[id] = nb
		}
	}
	return c
}
