// Package rete compiles OPS5 left-hand sides into a Rete network and
// provides the node-activation semantics (test evaluation, hashing,
// conjugate-pair-aware memory updates) shared by every matcher backend:
// the vs1/vs2 sequential matchers, the goroutine-based parallel matcher
// and the Multimax simulator.
//
// The network follows the paper's organization: per-class constant-test
// chains with structural sharing feed coalesced memory/two-input nodes
// arranged in a linear left-to-right join per production. Memory nodes
// are *not* shared between joins (paper footnote 6: sharing memories is
// impossible in the parallel implementation), but constant-test chains
// and identical join prefixes are.
//
// Networks are versioned: Compile produces epoch 0 and AddRule/RemoveRule
// (epoch.go) derive new epochs by copy-on-write, sharing every untouched
// node with the parent. Node objects themselves are immutable — all
// mutable topology (a chain's destinations, a join's successors and
// terminals) lives in per-epoch tables indexed by node ID, reached
// through the DestsOf/SuccsOf/TermsOf accessors. That keeps node
// pointers stable across epochs, which the matcher memories rely on for
// token identity, while letting two epochs disagree about fan-out.
package rete

import (
	"repro/internal/ops5"
	"repro/internal/symbols"
	"repro/internal/wm"
)

// The matchers' token store packs a join's ID and a token's length into
// one word beside each stored token, so the compiler rejects a rule
// whose instantiations would exceed MaxTokenLen WMEs and stops issuing
// join IDs at MaxJoinIDs (IDs are never reused across epochs).
const (
	MaxTokenLen = 255
	MaxJoinIDs  = 1 << 23
)

// Side distinguishes the two inputs of a two-input node.
type Side uint8

// Activation sides.
const (
	Left  Side = 0
	Right Side = 1
)

func (s Side) String() string {
	if s == Left {
		return "left"
	}
	return "right"
}

// ConstTest is one test in an alpha chain: either a constant comparison
// on a single field or an intra-condition-element comparison between two
// fields of the same WME.
type ConstTest struct {
	Field      int
	Pred       ops5.Pred
	Const      wm.Value
	Disj       []wm.Value // non-nil for << ... >> (equality against any)
	OtherField int        // >= 0: compare Field against OtherField instead of Const
}

// Eval applies the test to a WME.
func (t *ConstTest) Eval(w *wm.WME) bool {
	v := w.Field(t.Field)
	if t.Disj != nil {
		for _, d := range t.Disj {
			if v.Equal(d) {
				return true
			}
		}
		return false
	}
	if t.OtherField >= 0 {
		return t.Pred.Apply(v, w.Field(t.OtherField))
	}
	return t.Pred.Apply(v, t.Const)
}

// AlphaDest is one destination of an alpha chain: a side of a join node,
// or a terminal for single-condition-element productions.
type AlphaDest struct {
	Join     *JoinNode
	Side     Side
	Terminal *Terminal // non-nil for direct alpha->terminal productions
}

// AlphaChain is a shared constant-test chain for one condition-element
// pattern. Class dispatch happens before the chain, so the class test is
// implicit. The chain's destinations are epoch state — use
// Network.DestsOf.
type AlphaChain struct {
	ID    int
	Class symbols.ID
	Tests []ConstTest
	key   string
	// evals are the compiled per-test closures (fastpath.go); nil on
	// hand-built chains, which fall back to the interpreted Eval.
	evals []func(*wm.WME) bool
}

// Matches runs the whole chain on a WME of the right class.
func (a *AlphaChain) Matches(w *wm.WME) bool {
	if a.evals != nil {
		for _, f := range a.evals {
			if !f(w) {
				return false
			}
		}
		return true
	}
	for i := range a.Tests {
		if !a.Tests[i].Eval(w) {
			return false
		}
	}
	return true
}

// JoinTest compares a field of the incoming right WME against a field of
// a WME inside the left token.
type JoinTest struct {
	Pred       ops5.Pred
	LeftPos    int // index of the WME within the left token
	LeftField  int
	RightField int
}

// JoinNode is a coalesced memory/two-input node. Its left memory stores
// tokens from the previous stage, its right memory stores WMEs from its
// alpha chain; both live in whatever memory implementation the matcher
// backend chose (per-node lists for vs1, the global hash tables for vs2
// and the parallel matchers). A join's successors and terminals are
// epoch state — use Network.SuccsOf and Network.TermsOf.
type JoinNode struct {
	ID      int
	Negated bool // right input comes from a negated condition element
	// EqTests are the equality tests, used both for matching and for the
	// token hash function; OtherTests carry the remaining predicates.
	EqTests    []JoinTest
	OtherTests []JoinTest
	// LeftLen is the number of WMEs in tokens arriving on the left.
	LeftLen int
	// LeftFromAlpha marks first-stage joins, whose left input comes
	// straight from an alpha chain (tokens of length 1).
	LeftFromAlpha bool
	// PlanPos is the position this join's condition element got in the
	// compile plan (the source index when compiled in source order), and
	// PlanSel the static selectivity estimate of the join's tests — both
	// recorded on the topology dump so reorder regressions are
	// reviewable. Shared joins keep the values of their first creator,
	// which is deterministic (shared key implies shared prefix).
	PlanPos int
	PlanSel float64
	key     string
	// pairFn is the compiled token-pair test (fastpath.go); nil on
	// hand-built nodes, which fall back to the interpreted loop.
	pairFn func(wm.SlotView, []uint32, *wm.WME) bool
}

// HasEqTests reports whether the node hashes on join values. Nodes
// without equality tests put all their tokens on a single hash line —
// the cross-product pathology the paper observes in Tourney.
func (j *JoinNode) HasEqTests() bool { return len(j.EqTests) > 0 }

// TestPair evaluates every join test on a (left token, right WME) pair.
// The left token is a span of slots, resolved through v.
func (j *JoinNode) TestPair(v wm.SlotView, left []uint32, right *wm.WME) bool {
	if j.pairFn != nil {
		return j.pairFn(v, left, right)
	}
	for i := range j.EqTests {
		t := &j.EqTests[i]
		if !right.Field(t.RightField).Equal(v.Get(left[t.LeftPos]).Field(t.LeftField)) {
			return false
		}
	}
	for i := range j.OtherTests {
		t := &j.OtherTests[i]
		if !t.Pred.Apply(right.Field(t.RightField), v.Get(left[t.LeftPos]).Field(t.LeftField)) {
			return false
		}
	}
	return true
}

// LeftHash folds the node identity and the equality-test values of a
// left token (a span of slots, resolved through v) into the hash used to
// pick the token hash-table line.
func (j *JoinNode) LeftHash(v wm.SlotView, left []uint32) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(j.ID) * 0x9e3779b97f4a7c15)
	for i := range j.EqTests {
		t := &j.EqTests[i]
		h = v.Get(left[t.LeftPos]).Field(t.LeftField).Hash(h)
	}
	return h
}

// TokenHash is the line hash of a token arriving on side: LeftHash for a
// left token, RightHash of its one WME for a right one.
func (j *JoinNode) TokenHash(v wm.SlotView, side Side, tok []uint32) uint64 {
	if side == Left {
		return j.LeftHash(v, tok)
	}
	return j.RightHash(v.Get(tok[0]))
}

// RightHash is LeftHash's counterpart for a right-input WME; equal join
// values yield the same hash, so both sides land on the same line.
func (j *JoinNode) RightHash(w *wm.WME) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(j.ID) * 0x9e3779b97f4a7c15)
	for i := range j.EqTests {
		t := &j.EqTests[i]
		h = w.Field(t.RightField).Hash(h)
	}
	return h
}

// BindRef locates a variable binding inside a full instantiation token.
type BindRef struct {
	Pos   int // WME index within the instantiation
	Field int
}

// CompiledRule carries everything the RHS evaluator and conflict
// resolution need about one production.
type CompiledRule struct {
	Rule     *ops5.Rule
	Index    int
	Terminal *Terminal
	// CEPos maps the rule's condition-element index (0-based, counting
	// negated CEs) to the WME position in instantiation tokens, or -1
	// for negated CEs.
	CEPos    []int
	Bindings map[string]BindRef
	// Specificity is the total number of tests in the LHS (class tests
	// included), the LEX/MEA tie-breaker.
	Specificity int
	// ChainIDs and JoinIDs record the rule's node path through the
	// network: one alpha chain per condition element in order, one join
	// per condition element after the first. RemoveRule walks them to
	// decrement the refcounts of shared nodes.
	ChainIDs []int
	JoinIDs  []int
	// Order is the planned condition-element compile order (planned
	// position -> source CE index); nil when the rule compiled in source
	// order. TokenPerm permutes a network-order instantiation token back
	// into source order (srcToken[TokenPerm[i]] = netToken[i]); nil when
	// the positive-CE order is unchanged. The conflict set applies it
	// before a token becomes visible to refraction, recency, the RHS or
	// the firing trace, which is what keeps reordered compiles
	// byte-identical to source-order runs.
	Order     []int
	TokenPerm []int
}

// Terminal announces conflict-set changes for one production.
type Terminal struct {
	ID   int
	Rule *CompiledRule
}

// Network is one epoch of the compiled Rete network plus the per-rule
// metadata.
//
// A Network is immutable once built: matching only reads it (all token
// state lives in the matcher's own memories), so one Network can be
// shared read-only by any number of concurrent matchers — this is what
// lets the inference server compile a program once and run many
// sessions against it. Rule changes never mutate a Network in place;
// AddRule and RemoveRule derive a child epoch by copy-on-write while
// readers of the parent epoch continue undisturbed. The embedded
// Program must be frozen (ops5.Program.Freeze) before a Network is
// shared across goroutines; engine.New does this.
type Network struct {
	Prog *ops5.Program
	// Epoch numbers successive network versions; a whole-program Compile
	// yields epoch 0 and each AddRule/RemoveRule increments it.
	Epoch int
	// Delta describes what this epoch changed relative to its parent;
	// nil for a whole-program compile. Matchers use it to replay working
	// memory through the new nodes and to tear down the dead ones.
	Delta *EpochDelta

	// ChainsByClass indexes the live alpha chains by condition-element
	// class.
	ChainsByClass map[symbols.ID][]*AlphaChain
	Chains        []*AlphaChain   // live chains, compile order
	Joins         []*JoinNode     // live joins, compile order
	Terminals     []*Terminal     // live terminals, compile order
	Rules         []*CompiledRule // live rules, compile order

	parent *Network

	// Per-node-ID epoch tables. Node IDs are monotonic and never reused
	// across epochs, so rows for excised nodes go nil and the tables
	// only ever grow. Rows are shared with the parent epoch until the
	// child changes them (copy-on-write).
	chainDests [][]AlphaDest
	joinSuccs  [][]*JoinNode
	joinTerms  [][]*Terminal
	// joinRules lists, per join, the productions whose chains include
	// the node (more than one when prefixes are shared) — used by
	// contention profiles to point at culprit productions, as the paper
	// does for Tourney in §4.2.
	joinRules [][]string
	// chainRefs/joinRefs count how many condition elements of live rules
	// use each node; RemoveRule excises a node when its count drops to
	// zero.
	chainRefs  []int32
	joinRefs   []int32
	chainsByID []*AlphaChain
	joinsByID  []*JoinNode

	numTermIDs int
	numRuleIDs int

	// plan is the join-order compile policy this network was built with;
	// child epochs inherit it so AddRule plans new rules the same way.
	plan PlanConfig

	chainByKey map[string]*AlphaChain
	joinByKey  map[string]*JoinNode
}

// DestsOf returns the chain's destinations in this epoch.
func (n *Network) DestsOf(c *AlphaChain) []AlphaDest { return n.chainDests[c.ID] }

// SuccsOf returns the joins fed by j's output in this epoch.
func (n *Network) SuccsOf(j *JoinNode) []*JoinNode { return n.joinSuccs[j.ID] }

// TermsOf returns the terminals fed by j's output in this epoch.
func (n *Network) TermsOf(j *JoinNode) []*Terminal { return n.joinTerms[j.ID] }

// RuleNamesOf returns the names of the live productions whose chains
// include j.
func (n *Network) RuleNamesOf(j *JoinNode) []string { return n.joinRules[j.ID] }

// NumChainIDs returns the size of the chain ID space (IDs are never
// reused, so this can exceed len(Chains) after excises).
func (n *Network) NumChainIDs() int { return len(n.chainDests) }

// NumJoinIDs returns the size of the join ID space. Matchers size
// per-node structures (vs1 line tables, activation recorders) by it.
func (n *Network) NumJoinIDs() int { return len(n.joinSuccs) }

// NumTermIDs returns the size of the terminal ID space.
func (n *Network) NumTermIDs() int { return n.numTermIDs }

// NumRuleIDs returns the size of the rule index space; the engine sizes
// its compiled-RHS table by it.
func (n *Network) NumRuleIDs() int { return n.numRuleIDs }

// JoinByID returns the live join with the given ID, or nil if the ID is
// unassigned or the node was excised.
func (n *Network) JoinByID(id int) *JoinNode {
	if id < 0 || id >= len(n.joinsByID) {
		return nil
	}
	return n.joinsByID[id]
}

// ChainRefs returns how many condition elements of live rules use c.
func (n *Network) ChainRefs(c *AlphaChain) int { return int(n.chainRefs[c.ID]) }

// JoinRefs returns how many live rules' chains include j.
func (n *Network) JoinRefs(j *JoinNode) int { return int(n.joinRefs[j.ID]) }

// Parent returns the epoch this one was derived from, or nil for a
// whole-program compile.
func (n *Network) Parent() *Network { return n.parent }

// Plan returns the join-order compile policy of this network.
func (n *Network) Plan() PlanConfig { return n.plan }

// RuleByName returns the live compiled rule with the given name, or nil.
func (n *Network) RuleByName(name string) *CompiledRule {
	for _, cr := range n.Rules {
		if cr.Rule.Name == name {
			return cr
		}
	}
	return nil
}
