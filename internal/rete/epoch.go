// Network epochs: copy-on-write derivation of new network versions from
// a running one. AddRule compiles one production against an existing
// epoch, sharing every untouched alpha chain and join node with the
// parent; RemoveRule decrements per-node refcounts and excises only the
// nodes no surviving rule uses. Readers of the parent epoch are never
// disturbed — node objects are immutable and all fan-out lives in
// epoch-owned tables (see nodes.go), so a matcher holding the old
// Network pointer keeps matching against the old topology while another
// adopts the child.
package rete

import (
	"fmt"

	"repro/internal/ops5"
	"repro/internal/symbols"
)

// GrownChain records the destinations an epoch appended to a
// pre-existing alpha chain.
type GrownChain struct {
	Chain    *AlphaChain
	NewDests []AlphaDest
}

// GrownJoin records the successors and terminals an epoch appended to a
// pre-existing join node. During replay the join's historical output
// tokens must be re-derived and delivered to exactly these additions.
type GrownJoin struct {
	Join     *JoinNode
	NewSuccs []*JoinNode
	NewTerms []*Terminal
}

// EpochDelta is the precise difference between a network epoch and its
// parent. An epoch holds either additions (from AddRule) or removals
// (from RemoveRule), never both. Matchers consume it in SwapEpoch: the
// additions drive working-memory replay, the removals drive memory and
// conflict-set teardown.
type EpochDelta struct {
	AddedRules   []*CompiledRule
	RemovedRules []*CompiledRule
	NewChains    []*AlphaChain
	NewJoins     []*JoinNode
	NewTerminals []*Terminal
	GrownChains  []GrownChain
	GrownJoins   []GrownJoin
	DeadChains   []*AlphaChain
	DeadJoins    []*JoinNode
}

// ChainDests pairs an alpha chain with a subset of its destinations.
type ChainDests struct {
	Chain *AlphaChain
	Dests []AlphaDest
}

// ReplayDests returns every alpha destination this epoch added, grouped
// by chain: the full destination list of each new chain plus the
// appended destinations of each grown chain. Replay must deliver the
// right-side destinations (filling the right memories of new joins)
// before any left-side or terminal destination — see the matchers'
// SwapEpoch.
func (n *Network) ReplayDests() []ChainDests {
	d := n.Delta
	if d == nil {
		return nil
	}
	out := make([]ChainDests, 0, len(d.NewChains)+len(d.GrownChains))
	for _, c := range d.NewChains {
		out = append(out, ChainDests{Chain: c, Dests: n.chainDests[c.ID]})
	}
	for _, g := range d.GrownChains {
		out = append(out, ChainDests{Chain: g.Chain, Dests: g.NewDests})
	}
	return out
}

// cowClone derives a child epoch sharing all node objects and all
// epoch-table rows with n. Top-level containers (slices, maps) are
// copied so the child can grow or shrink them; individual rows are
// copied lazily by the builder or the excise surgery when first
// written.
func (n *Network) cowClone() *Network {
	c := &Network{
		Prog:          n.Prog,
		Epoch:         n.Epoch + 1,
		parent:        n,
		ChainsByClass: make(map[symbols.ID][]*AlphaChain, len(n.ChainsByClass)),
		Chains:        append([]*AlphaChain(nil), n.Chains...),
		Joins:         append([]*JoinNode(nil), n.Joins...),
		Terminals:     append([]*Terminal(nil), n.Terminals...),
		Rules:         append([]*CompiledRule(nil), n.Rules...),
		chainDests:    append([][]AlphaDest(nil), n.chainDests...),
		joinSuccs:     append([][]*JoinNode(nil), n.joinSuccs...),
		joinTerms:     append([][]*Terminal(nil), n.joinTerms...),
		joinRules:     append([][]string(nil), n.joinRules...),
		chainRefs:     append([]int32(nil), n.chainRefs...),
		joinRefs:      append([]int32(nil), n.joinRefs...),
		chainsByID:    append([]*AlphaChain(nil), n.chainsByID...),
		joinsByID:     append([]*JoinNode(nil), n.joinsByID...),
		numTermIDs:    n.numTermIDs,
		numRuleIDs:    n.numRuleIDs,
		plan:          n.plan,
		chainByKey:    make(map[string]*AlphaChain, len(n.chainByKey)),
		joinByKey:     make(map[string]*JoinNode, len(n.joinByKey)),
	}
	for k, v := range n.ChainsByClass {
		c.ChainsByClass[k] = v // class slices COW'd on append/filter
	}
	for k, v := range n.chainByKey {
		c.chainByKey[k] = v
	}
	for k, v := range n.joinByKey {
		c.joinByKey[k] = v
	}
	return c
}

// AddRule compiles one production against parent and returns a new
// epoch. The parent is not modified and remains fully usable by
// concurrent readers; the child shares every alpha chain and join the
// rule's LHS has in common with already-compiled rules. The rule name
// must not collide with a live rule (OPS5 redefinition is
// excise-then-add; the engine handles that ordering).
func AddRule(parent *Network, r *ops5.Rule) (*Network, error) {
	if parent.RuleByName(r.Name) != nil {
		return nil, fmt.Errorf("production %s is already defined (excise it first)", r.Name)
	}
	next := parent.cowClone()
	d := &EpochDelta{}
	b := newBuilder(next, d)
	if err := b.compileRule(r); err != nil {
		return nil, fmt.Errorf("production %s: %w", r.Name, err)
	}
	b.finishDelta()
	next.Delta = d
	return next, nil
}

// RemoveRule excises one production and returns a new epoch. Refcounts
// decide what dies: an alpha chain or join node survives as long as any
// other live rule's path includes it, so excising one production never
// disturbs nodes shared with others. The parent epoch is not modified.
func RemoveRule(parent *Network, name string) (*Network, error) {
	cr := parent.RuleByName(name)
	if cr == nil {
		return nil, fmt.Errorf("no production named %s", name)
	}
	next := parent.cowClone()
	d := &EpochDelta{RemovedRules: []*CompiledRule{cr}}

	// Decrement the refcounts along the rule's recorded node path,
	// collecting nodes that drop to zero (path order keeps the delta
	// deterministic). A path can visit a chain twice — two condition
	// elements with the same pattern — and then decrements twice, exactly
	// matching the two increments compileRule made.
	deadJoin := make(map[int]bool)
	for _, id := range cr.JoinIDs {
		next.joinRefs[id]--
		if next.joinRefs[id] == 0 && !deadJoin[id] {
			deadJoin[id] = true
			d.DeadJoins = append(d.DeadJoins, next.joinsByID[id])
		}
	}
	deadChain := make(map[int]bool)
	for _, id := range cr.ChainIDs {
		next.chainRefs[id]--
		if next.chainRefs[id] == 0 && !deadChain[id] {
			deadChain[id] = true
			d.DeadChains = append(d.DeadChains, next.chainsByID[id])
		}
	}

	// Surgery on surviving nodes of the rule's path: drop fan-out edges
	// that point at dead joins or at the excised rule's terminal, and the
	// rule's name from shared joins. Every such edge is reachable from
	// the path — a dead join's left parent and right chain are both on
	// it. Rows are COW'd by the filter helpers (the originals may still
	// be read through the parent epoch).
	seen := make(map[int]bool)
	for _, id := range cr.ChainIDs {
		if deadChain[id] || seen[id] {
			continue
		}
		seen[id] = true
		next.chainDests[id] = filterDests(next.chainDests[id], deadJoin, cr.Terminal)
	}
	for _, id := range cr.JoinIDs {
		if deadJoin[id] {
			continue
		}
		next.joinSuccs[id] = filterSuccs(next.joinSuccs[id], deadJoin)
		next.joinTerms[id] = filterTerms(next.joinTerms[id], cr.Terminal)
		next.joinRules[id] = filterName(next.joinRules[id], name)
	}

	// Remove the dead nodes from the live indexes; their ID-table rows go
	// nil and the IDs are never reused.
	for _, c := range d.DeadChains {
		next.chainsByID[c.ID] = nil
		next.chainDests[c.ID] = nil
		delete(next.chainByKey, c.key)
		row := filterChains(next.ChainsByClass[c.Class], map[int]bool{c.ID: true})
		if len(row) == 0 {
			delete(next.ChainsByClass, c.Class)
		} else {
			next.ChainsByClass[c.Class] = row
		}
	}
	for _, j := range d.DeadJoins {
		next.joinsByID[j.ID] = nil
		next.joinSuccs[j.ID] = nil
		next.joinTerms[j.ID] = nil
		next.joinRules[j.ID] = nil
		delete(next.joinByKey, j.key)
	}
	if len(d.DeadChains) > 0 {
		next.Chains = filterChains(next.Chains, deadChain)
	}
	if len(d.DeadJoins) > 0 {
		live := next.Joins[:0:0]
		for _, j := range next.Joins {
			if !deadJoin[j.ID] {
				live = append(live, j)
			}
		}
		next.Joins = live
	}
	next.Terminals = filterTerms(next.Terminals, cr.Terminal)
	live := next.Rules[:0:0]
	for _, r := range next.Rules {
		if r != cr {
			live = append(live, r)
		}
	}
	next.Rules = live
	next.Delta = d
	return next, nil
}

// filterDests returns dests minus edges to dead joins or the given
// terminal, freshly allocated when anything was removed.
func filterDests(dests []AlphaDest, deadJoin map[int]bool, term *Terminal) []AlphaDest {
	changed := false
	for _, e := range dests {
		if (e.Join != nil && deadJoin[e.Join.ID]) || (e.Terminal != nil && e.Terminal == term) {
			changed = true
			break
		}
	}
	if !changed {
		return dests
	}
	out := make([]AlphaDest, 0, len(dests)-1)
	for _, e := range dests {
		if (e.Join != nil && deadJoin[e.Join.ID]) || (e.Terminal != nil && e.Terminal == term) {
			continue
		}
		out = append(out, e)
	}
	return out
}

func filterSuccs(succs []*JoinNode, deadJoin map[int]bool) []*JoinNode {
	changed := false
	for _, s := range succs {
		if deadJoin[s.ID] {
			changed = true
			break
		}
	}
	if !changed {
		return succs
	}
	out := make([]*JoinNode, 0, len(succs)-1)
	for _, s := range succs {
		if !deadJoin[s.ID] {
			out = append(out, s)
		}
	}
	return out
}

func filterTerms(terms []*Terminal, t *Terminal) []*Terminal {
	changed := false
	for _, e := range terms {
		if e == t {
			changed = true
			break
		}
	}
	if !changed {
		return terms
	}
	out := make([]*Terminal, 0, len(terms)-1)
	for _, e := range terms {
		if e != t {
			out = append(out, e)
		}
	}
	return out
}

func filterName(names []string, name string) []string {
	changed := false
	for _, s := range names {
		if s == name {
			changed = true
			break
		}
	}
	if !changed {
		return names
	}
	out := make([]string, 0, len(names)-1)
	for _, s := range names {
		if s != name {
			out = append(out, s)
		}
	}
	return out
}

func filterChains(chains []*AlphaChain, dead map[int]bool) []*AlphaChain {
	out := make([]*AlphaChain, 0, len(chains))
	for _, c := range chains {
		if !dead[c.ID] {
			out = append(out, c)
		}
	}
	return out
}
