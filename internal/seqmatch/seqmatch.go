// Package seqmatch implements the paper's two optimized uniprocessor
// matchers: vs1, with per-node list memories, and vs2, with the two
// global token hash tables (§4.1). Both run the shared coalesced-node
// step logic from internal/hashmem; they differ only in how a node
// activation locates its memory line, which is exactly the paper's
// distinction. Both are fully instrumented for Tables 4-1, 4-2 and 4-3.
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

// Matcher is a sequential Rete matcher.
type Matcher struct {
	Net     *rete.Network
	Variant Variant
	Table   *hashmem.Table
	Rec     *hashmem.Recorder
	Sink    rete.TerminalSink

	// slots resolves the slot spans tokens are made of; UseSlots points
	// it at the working memory's table.
	slots *wm.Slots
	pools hashmem.Pools
	// curJoin/curSign carry the context of the innermost activation so
	// emit and deliver can be bound method values instead of a fresh
	// closure per Submit/activate call. Saved and restored around the
	// depth-first recursion.
	curJoin   *rete.JoinNode
	curSign   bool
	curRoot   []uint32
	emitFn    hashmem.Emit
	deliverFn func(rete.AlphaDest)
	// inst is the scratch a terminal's token is resolved into for the
	// sink, which copies what it keeps.
	inst []*wm.WME
}

// New builds a sequential matcher. nLines sizes the vs2 hash tables
// (ignored for vs1); 0 selects the default of 16384 lines. vs2 tables
// use the adaptive node-segregated layout and grow between submits as
// working memory climbs.
func New(net *rete.Network, v Variant, nLines int, sink rete.TerminalSink) *Matcher {
	var table *hashmem.Table
	if v == VS1 {
		table = hashmem.NewPerNode(net.NumJoinIDs())
	} else {
		if nLines <= 0 {
			nLines = 16384
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
	m := &Matcher{
		Net:     net,
		Variant: v,
		Table:   table,
		Rec:     hashmem.NewRecorder(net.NumJoinIDs()),
		Sink:    sink,
		slots:   wm.NewSlots(),
	}
	m.emitFn = m.emit
	m.deliverFn = m.deliver
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
	m.Rec.M.WMChanges++
	m.curSign = sign
	tok := m.pools.Token(1)
	tok[0] = w.Slot
	m.curRoot = tok // one length-1 token shared by all destinations
	tests := m.Net.RootDeliver(w, m.deliverFn)
	m.Rec.M.ConstTests += int64(tests)
}

// deliver routes one alpha destination of the current root change. The
// depth-first recursion under activate never touches curSign/curRoot,
// so they stay valid across RootDeliver's destination loop.
func (m *Matcher) deliver(d rete.AlphaDest) {
	if d.Terminal != nil {
		m.toTerminal(d.Terminal, m.curSign, m.curRoot)
		return
	}
	m.activate(d.Join, d.Side, m.curSign, m.curRoot)
}

// quiesce runs the drained-point bookkeeping before a change or an
// epoch replay enters the network: fold the live gauge, grow the table
// if due, recycle the in-flight tokens and take a fresh slot view.
func (m *Matcher) quiesce() {
	m.Table.FoldLive(&m.pools)
	if n := m.Table.GrowTarget(); n > 0 {
		m.Table = m.Table.Grow(n, &m.pools)
	}
	m.pools.ResetTokens()
	m.pools.Slots = m.slots.View()
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
	m.Table.FoldLive(&m.pools)
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

func (m *Matcher) activate(j *rete.JoinNode, side rete.Side, sign bool, tok []uint32) {
	m.Rec.M.Activations++
	// The hash is computed for vs1 too: its per-node lines ignore it for
	// line selection, but storing it lets a delete short-circuit token
	// comparison without changing any scan count.
	hash := j.TokenHash(m.pools.Slots, side, tok)
	idx := m.Table.LineIndex(j, hash)
	entry, ref, res := m.Table.UpdateOwn(idx, j, side, sign, tok, hash, m.Rec, &m.pools)
	if !sign {
		hashmem.RecordDelete(m.Rec, side, &res)
	}
	if !res.Proceeded {
		return
	}
	m.curJoin = j
	m.Table.SearchOpposite(ref, j, side, sign, tok, entry, m.Rec, &m.pools, m.emitFn)
	if !sign {
		m.pools.FreeEntry(entry) // removed from its memory; nothing else holds it
	}
}

// emit fans one output token of the current join out depth-first. It
// saves and restores curJoin around the recursion: SearchOpposite may
// call it several times, and each nested activate overwrites curJoin.
func (m *Matcher) emit(csign bool, ctok []uint32) {
	j := m.curJoin
	for _, succ := range m.Net.SuccsOf(j) {
		m.activate(succ, rete.Left, csign, ctok)
	}
	for _, t := range m.Net.TermsOf(j) {
		m.toTerminal(t, csign, ctok)
	}
	m.curJoin = j
}

// SwapEpoch adopts a network epoch derived from the matcher's current
// one. For removals it drops every memory entry of the excised joins
// (reporting how many); for additions it replays the live working
// memory through exactly the new topology: phase 1 fills the right
// memories of the new joins (their left memories are still empty, so
// nothing emits), phase 2 seeds their left inputs — root deliveries for
// first-stage joins and terminals, re-derived historical outputs for
// pre-existing joins that gained successors — and lets the ordinary
// depth-first activation propagate from there. The two phases make the
// negation counts of new negated joins correct before any left token is
// scored against them.
func (m *Matcher) SwapEpoch(next *rete.Network, live []*wm.WME) (removed int, err error) {
	if next.Parent() != m.Net {
		return 0, fmt.Errorf("seqmatch: epoch %d is not derived from the current epoch %d", next.Epoch, m.Net.Epoch)
	}
	d := next.Delta
	if d == nil {
		return 0, fmt.Errorf("seqmatch: epoch %d has no delta", next.Epoch)
	}
	m.quiesce()
	if len(d.DeadJoins) > 0 {
		dead := make(map[int]bool, len(d.DeadJoins))
		for _, j := range d.DeadJoins {
			dead[j.ID] = true
		}
		removed = m.Table.ExciseNodes(dead, m.Rec, &m.pools)
	}
	m.Net = next
	m.Table.EnsureNodes(next.NumJoinIDs())
	m.Rec.EnsureNodes(next.NumJoinIDs())

	targets := next.ReplayDests()
	// Phase 1: right-side deliveries into the new joins.
	for _, cd := range targets {
		for _, dst := range cd.Dests {
			if dst.Join == nil || dst.Side != rete.Right {
				continue
			}
			for _, w := range live {
				if w.Class() != cd.Chain.Class || !cd.Chain.Matches(w) {
					continue
				}
				tok := m.pools.Token(1)
				tok[0] = w.Slot
				m.activate(dst.Join, rete.Right, true, tok)
			}
		}
	}
	// Phase 2: left-side and terminal deliveries, then the historical
	// outputs of grown joins into their new successors and terminals.
	for _, cd := range targets {
		for _, dst := range cd.Dests {
			if dst.Join != nil && dst.Side == rete.Right {
				continue
			}
			for _, w := range live {
				if w.Class() != cd.Chain.Class || !cd.Chain.Matches(w) {
					continue
				}
				tok := m.pools.Token(1)
				tok[0] = w.Slot
				if dst.Terminal != nil {
					m.toTerminal(dst.Terminal, true, tok)
				} else {
					m.activate(dst.Join, rete.Left, true, tok)
				}
			}
		}
	}
	for i := range d.GrownJoins {
		g := &d.GrownJoins[i]
		m.Table.ForEachOutput(g.Join, &m.pools, func(tok []uint32) {
			for _, succ := range g.NewSuccs {
				m.activate(succ, rete.Left, true, tok)
			}
			for _, t := range g.NewTerms {
				m.toTerminal(t, true, tok)
			}
		})
	}
	return removed, nil
}

// toTerminal resolves the token into the matcher's scratch and hands it
// to the sink.
func (m *Matcher) toTerminal(t *rete.Terminal, sign bool, tok []uint32) {
	m.Rec.M.Activations++
	m.inst = m.pools.Slots.Resolve(m.inst, tok)
	if sign {
		m.Rec.M.CSInserts++
		m.Sink.InsertInstantiation(t.Rule, m.inst)
	} else {
		m.Rec.M.CSDeletes++
		m.Sink.RemoveInstantiation(t.Rule, m.inst)
	}
}
