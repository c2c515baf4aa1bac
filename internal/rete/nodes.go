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
// A network is compiled whole from a rule list and never changes
// afterwards. Node objects are immutable; a node's fan-out (a chain's
// destinations, a join's successors and terminals) lives in tables
// indexed by its dense ID, reached through the DestsOf/SuccsOf/TermsOf
// accessors. A runtime program change compiles the next network whole
// (Recompile) and the engine re-matches working memory on it.
package rete

import (
	"repro/internal/ops5"
	"repro/internal/symbols"
	"repro/internal/wm"
)

// The matchers' token store packs a join's ID and a token's length into
// one word beside each stored token, so the compiler rejects a rule
// whose instantiations would exceed MaxTokenLen WMEs and a network of
// more than MaxJoinIDs joins.
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

// AlphaDest is one destination of an alpha chain: a side of a join node,
// or a terminal for single-condition-element productions.
type AlphaDest struct {
	Join     *JoinNode
	Side     Side
	Terminal *Terminal // non-nil for direct alpha->terminal productions
}

// AlphaChain is a shared constant-test chain for one condition-element
// pattern. Class dispatch happens before the chain, so the class test is
// implicit. The chain's destinations are network state — use
// Network.DestsOf.
type AlphaChain struct {
	ID    int
	Class symbols.ID
	Tests []ConstTest
	// evals are the compiled per-test closures (fastpath.go).
	evals []func(*wm.WME) bool
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
// network state — use Network.SuccsOf and Network.TermsOf.
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
	// pairFn is the compiled token-pair test (fastpath.go).
	pairFn func(wm.SlotView, []uint32, *wm.WME) bool
}

// HasEqTests reports whether the node hashes on join values. Nodes
// without equality tests put all their tokens on a single hash line —
// the cross-product pathology the paper observes in Tourney.
func (j *JoinNode) HasEqTests() bool { return len(j.EqTests) > 0 }

// TestPair evaluates every join test on a (left token, right WME) pair.
// The left token is a span of slots, resolved through v.
func (j *JoinNode) TestPair(v wm.SlotView, left []uint32, right *wm.WME) bool {
	return j.pairFn(v, left, right)
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
	// per condition element after the first. The match budget charges a
	// rule for the work of every join on its path.
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

// Network is one compiled Rete network plus the per-rule metadata.
//
// A Network is immutable once built: matching only reads it (all token
// state lives in the matcher's own memories), so one Network can be
// shared read-only by any number of concurrent matchers — this is what
// lets the inference server compile a program once and run many
// sessions against it. A rule change never mutates a Network: Recompile
// builds the next one whole. Node and rule IDs are dense: Chains[i].ID,
// Joins[i].ID, Terminals[i].ID and Rules[i].Index are all i. The
// embedded Program must be frozen (ops5.Program.Freeze) before a
// Network is shared across goroutines; engine.New does this.
type Network struct {
	Prog *ops5.Program
	// Epoch numbers successive network versions; a whole-program Compile
	// yields epoch 0 and each Recompile increments it.
	Epoch int

	// ChainsByClass indexes the alpha chains by condition-element class.
	ChainsByClass map[symbols.ID][]*AlphaChain
	Chains        []*AlphaChain   // by ID, compile order
	Joins         []*JoinNode     // by ID, compile order
	Terminals     []*Terminal     // by ID, compile order
	Rules         []*CompiledRule // by Index, compile order

	// Fan-out tables, indexed by node ID.
	chainDests [][]AlphaDest
	joinSuccs  [][]*JoinNode
	joinTerms  [][]*Terminal
	// joinRules lists, per join, the productions whose chains include
	// the node (more than one when prefixes are shared) — used by
	// contention profiles to point at culprit productions, as the paper
	// does for Tourney in §4.2.
	joinRules [][]string
	// chainRefs/joinRefs count how many condition elements of the rules
	// use each node: the sharing Dump and Summarize report.
	chainRefs []int32
	joinRefs  []int32

	// plan is the join-order compile policy this network was built with;
	// Recompile plans the next network the same way.
	plan PlanConfig

	chainByKey map[string]*AlphaChain
	joinByKey  map[string]*JoinNode
}

// DestsOf returns the chain's destinations.
func (n *Network) DestsOf(c *AlphaChain) []AlphaDest { return n.chainDests[c.ID] }

// SuccsOf returns the joins fed by j's output.
func (n *Network) SuccsOf(j *JoinNode) []*JoinNode { return n.joinSuccs[j.ID] }

// TermsOf returns the terminals fed by j's output.
func (n *Network) TermsOf(j *JoinNode) []*Terminal { return n.joinTerms[j.ID] }

// RuleNamesOf returns the names of the productions whose chains include
// j.
func (n *Network) RuleNamesOf(j *JoinNode) []string { return n.joinRules[j.ID] }

// NumJoinIDs returns the number of joins. Matchers size per-node
// structures (vs1 line tables, activation recorders) by it.
func (n *Network) NumJoinIDs() int { return len(n.Joins) }

// ChainRefs returns how many condition elements of the rules use c.
func (n *Network) ChainRefs(c *AlphaChain) int { return int(n.chainRefs[c.ID]) }

// RuleByName returns the compiled rule with the given name, or nil.
func (n *Network) RuleByName(name string) *CompiledRule {
	for _, cr := range n.Rules {
		if cr.Rule.Name == name {
			return cr
		}
	}
	return nil
}
