package seqmatch

import (
	"repro/internal/rete"
)

// Clone returns an independent matcher over a deep copy of the token
// table, for copy-on-write template-session forking. The network is
// shared (immutable per epoch); the table's store is copied, tokens and
// negation counts with it, so the fork's counts diverge from there. The
// clone keeps resolving slots through the template's table until the
// caller points it at the fork's working memory (UseSlots), whose slot
// table a wm.Memory.Clone copied verbatim. Match counters start at zero in the clone —
// a fork is a new session and its deltas are its own — while the
// per-node live-token gauges are copied because they describe state the
// fork genuinely holds. The matcher must be quiescent (a settled
// template) when cloned.
func (m *Matcher) Clone(sink rete.TerminalSink) *Matcher {
	m.Table.FoldLive(&m.Pools)
	c := NewWithTable(m.Net, m.Variant, m.Table.Clone(), sink)
	c.slots = m.slots
	c.Rec.EnsureNodes(m.Net.NumJoinIDs())
	for s := 0; s < 2; s++ {
		copy(c.Rec.NodeCount[s], m.Rec.NodeCount[s])
	}
	return c
}
