// Package seqmatch implements the paper's two optimized uniprocessor
// matchers: vs1, with per-node list memories, and vs2, with the two
// global token hash tables (§4.1). Both run one depth-first walk (Walk)
// over the shared coalesced-node step logic from internal/hashmem; they
// differ only in how a node activation locates its memory line, which
// is exactly the paper's distinction. Both are fully instrumented for
// Tables 4-1, 4-2 and 4-3.
package seqmatch

import (
	"fmt"

	"repro/internal/hashmem"
	"repro/internal/rete"
	"repro/internal/stats"
	"repro/internal/wm"
)

// Variant selects the memory organization.
type Variant int

// Matcher variants.
const (
	VS1 Variant = iota // list-based node memories
	VS2                // global hash-table memories
)

func (v Variant) String() string {
	if v == VS1 {
		return "vs1"
	}
	return "vs2"
}

// Matcher is a sequential Rete matcher: the walk over its own token
// table, with the conflict set as the walk's terminal.
type Matcher struct {
	Walk
	Variant Variant
	Sink    rete.TerminalSink

	// slots resolves the slot spans tokens are made of; UseSlots points
	// it at the working memory's table.
	slots *wm.Slots
	// inst is the scratch a terminal's token is resolved into for the
	// sink, which copies what it keeps.
	inst []*wm.WME
}

// New builds a sequential matcher. nLines sizes the vs2 hash tables
// (ignored for vs1); 0 selects hashmem.DefaultLines. vs2 tables
// use the adaptive node-segregated layout and grow between submits as
// working memory climbs.
func New(net *rete.Network, v Variant, nLines int, sink rete.TerminalSink) *Matcher {
	var table *hashmem.Table
	if v == VS1 {
		table = hashmem.NewPerNode(net.NumJoinIDs())
	} else {
		if nLines <= 0 {
			nLines = hashmem.DefaultLines
		}
		table = hashmem.New(nLines)
	}
	return NewWithTable(net, v, table, sink)
}

// NewWithTable builds a sequential matcher over a caller-supplied token
// table — the benchmarks and differential tests use it to pin the
// legacy linked-list layout (hashmem.NewLegacy) against the segregated
// default.
func NewWithTable(net *rete.Network, v Variant, table *hashmem.Table, sink rete.TerminalSink) *Matcher {
	m := &Matcher{Variant: v, Sink: sink, slots: wm.NewSlots()}
	m.Init(net, table, hashmem.NewRecorder(net.NumJoinIDs()), m.toSink)
	return m
}

// UseSlots makes the matcher resolve tokens through s, the slot table
// the submitted WMEs' slots were assigned in: the working memory's
// (engine.New does this), or the one a caller that builds WMEs outside
// a wm.Memory assigned them in. Call it before the first Submit.
func (m *Matcher) UseSlots(s *wm.Slots) { m.slots = s }

// Submit processes one working-memory change to completion, depth-first
// through the network (the classic sequential Rete discipline). The
// matcher is quiescent between submits, so this is also the adaptive
// table's resize point — an overloaded segregated table is grown and
// rehashed before the change enters the network — and the in-flight
// tokens' drained point: the previous change's are all dead.
func (m *Matcher) Submit(sign bool, w *wm.WME) {
	m.quiesce()
	m.Root(sign, w)
}

// quiesce runs the drained-point bookkeeping before a change enters the
// network: fold the live gauge, grow the table if due, recycle the
// in-flight tokens and take a fresh slot view.
func (m *Matcher) quiesce() {
	m.Table.FoldLive(&m.Pools)
	if n := m.Table.GrowTarget(); n > 0 {
		m.Table = m.Table.Grow(n, &m.Pools)
	}
	m.Pools.ResetTokens()
	m.Pools.Slots = m.slots.View()
}

// Drain is a no-op: Submit is synchronous.
func (m *Matcher) Drain() {}

// Close is a no-op: sequential matchers hold no goroutines. It exists so
// every backend satisfies the server's uniform matcher interface.
func (m *Matcher) Close() {}

// MatchStats returns a copy of the accumulated match counters. The
// network a matcher runs over may be shared read-only across many
// matchers (server sessions); the counters here are per-matcher.
func (m *Matcher) MatchStats() stats.Match { return m.Rec.M }

// ForEachSlot calls fn with every slot the token table names, for the
// slot-safety oracles. Only between submits.
func (m *Matcher) ForEachSlot(fn func(slot uint32)) { m.Table.ForEachSlot(fn) }

// MemStats returns the token table's memory gauges and resize counters.
func (m *Matcher) MemStats() stats.Memory {
	m.Table.FoldLive(&m.Pools)
	return m.Table.MemStats()
}

// JoinExamined returns a copy of the cumulative per-join
// opposite-memory candidate counts, indexed by join ID. The engine's
// match budget reads per-cycle deltas of it.
func (m *Matcher) JoinExamined() []int64 {
	return append([]int64(nil), m.Rec.NodeExamined...)
}

// CheckInvariants verifies that no parked conjugate deletes remain. In a
// sequential matcher a parked delete can never legitimately survive a
// change, so any leftover is a bug.
func (m *Matcher) CheckInvariants() error {
	if err := m.Table.CheckDrained(); err != nil {
		return fmt.Errorf("%s: %w", m.Variant, err)
	}
	return nil
}

// SetNetwork moves the matcher onto net. The matcher must hold no token
// (Table.Rebind): for a runtime program change the engine retracts
// working memory through the old network first and re-asserts it after.
// The per-node counters restart; the totals carry on.
func (m *Matcher) SetNetwork(net *rete.Network) error {
	m.Table.FoldLive(&m.Pools)
	if err := m.Table.Rebind(net.NumJoinIDs()); err != nil {
		return fmt.Errorf("%s: %w", m.Variant, err)
	}
	m.Net = net
	m.Rec.ResetNodes(net.NumJoinIDs())
	return nil
}

// toSink is the walk's terminal: it resolves the token into the
// matcher's scratch and hands it to the sink.
func (m *Matcher) toSink(rule *rete.CompiledRule, sign bool, tok []uint32) {
	m.inst = m.Pools.Slots.Resolve(m.inst, tok)
	if sign {
		m.Sink.InsertInstantiation(rule, m.inst)
	} else {
		m.Sink.RemoveInstantiation(rule, m.inst)
	}
}
