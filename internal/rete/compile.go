package rete

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ops5"
	"repro/internal/symbols"
)

// Compile builds the epoch-0 Rete network for a parsed program in the
// paper's source condition-element order. It is the same per-rule
// compiler AddRule uses at run time, applied to every production in
// order — which is why an incrementally grown network is node-for-node
// identical to a whole-program compile (epoch_test.go asserts this on
// the Dump output).
func Compile(prog *ops5.Program) (*Network, error) {
	return CompileWithPlan(prog, PlanConfig{})
}

// CompileWithPlan is Compile with an explicit join-order policy
// (reorder.go). The policy is recorded on the network, so AddRule plans
// rules added at run time the same way; the zero PlanConfig reproduces
// the source-order Compile exactly.
func CompileWithPlan(prog *ops5.Program, pc PlanConfig) (*Network, error) {
	net := newNetwork(prog)
	net.plan = pc
	b := newBuilder(net, nil)
	for _, r := range prog.Rules {
		if err := b.compileRule(r); err != nil {
			return nil, fmt.Errorf("production %s: %w", r.Name, err)
		}
	}
	// Lower every test into its specialized closure (fastpath.go) so the
	// matchers never re-branch on test kind per token.
	for _, c := range net.Chains {
		c.compileFast()
	}
	for _, j := range net.Joins {
		j.compileFast()
	}
	return net, nil
}

func newNetwork(prog *ops5.Program) *Network {
	return &Network{
		Prog:          prog,
		ChainsByClass: make(map[symbols.ID][]*AlphaChain),
		chainByKey:    make(map[string]*AlphaChain),
		joinByKey:     make(map[string]*JoinNode),
	}
}

// builder compiles rules into a network it owns for the duration of one
// operation (a whole-program Compile, or one AddRule). Rows of the
// per-node epoch tables may still be shared with a parent epoch; the
// builder copies each row the first time the operation writes it and
// records what it added in the delta (when one is being tracked).
type builder struct {
	net   *Network
	delta *EpochDelta // nil for whole-program compiles
	// ownDests/ownSuccs/ownClass mark rows (and ChainsByClass slices)
	// already copied — or created — by this operation.
	ownDests map[int]bool
	ownSuccs map[int]bool
	ownTerms map[int]bool
	ownRules map[int]bool
	ownClass map[symbols.ID]bool
	// grown*At record the pre-operation length of rows that existed
	// before the operation and grew during it, for delta finalization.
	grownDestsAt map[int]int
	grownSuccsAt map[int]int
	grownTermsAt map[int]int
}

func newBuilder(net *Network, delta *EpochDelta) *builder {
	return &builder{
		net:          net,
		delta:        delta,
		ownDests:     make(map[int]bool),
		ownSuccs:     make(map[int]bool),
		ownTerms:     make(map[int]bool),
		ownRules:     make(map[int]bool),
		ownClass:     make(map[symbols.ID]bool),
		grownDestsAt: make(map[int]int),
		grownSuccsAt: make(map[int]int),
		grownTermsAt: make(map[int]int),
	}
}

// finishDelta records, for every pre-existing node the operation grew,
// exactly the appended fan-out — the replay frontier the matchers need.
func (b *builder) finishDelta() {
	if b.delta == nil {
		return
	}
	for id, base := range b.grownDestsAt {
		row := b.net.chainDests[id]
		if len(row) > base {
			b.delta.GrownChains = append(b.delta.GrownChains, GrownChain{
				Chain: b.net.chainsByID[id], NewDests: row[base:],
			})
		}
	}
	grown := make(map[int]*GrownJoin)
	joinGrown := func(id int) *GrownJoin {
		if g := grown[id]; g != nil {
			return g
		}
		b.delta.GrownJoins = append(b.delta.GrownJoins, GrownJoin{Join: b.net.joinsByID[id]})
		g := &b.delta.GrownJoins[len(b.delta.GrownJoins)-1]
		grown[id] = g
		return g
	}
	for id, base := range b.grownSuccsAt {
		row := b.net.joinSuccs[id]
		if len(row) > base {
			joinGrown(id).NewSuccs = row[base:]
		}
	}
	for id, base := range b.grownTermsAt {
		row := b.net.joinTerms[id]
		if len(row) > base {
			joinGrown(id).NewTerms = row[base:]
		}
	}
	// Keep delta ordering deterministic (maps above iterate randomly).
	sort.Slice(b.delta.GrownChains, func(i, j int) bool {
		return b.delta.GrownChains[i].Chain.ID < b.delta.GrownChains[j].Chain.ID
	})
	sort.Slice(b.delta.GrownJoins, func(i, j int) bool {
		return b.delta.GrownJoins[i].Join.ID < b.delta.GrownJoins[j].Join.ID
	})
}

// addChainDest appends a destination to a chain, copying the row on
// first write if it is shared with a parent epoch.
func (b *builder) addChainDest(c *AlphaChain, d AlphaDest) {
	n := b.net
	row := n.chainDests[c.ID]
	if !b.ownDests[c.ID] {
		b.ownDests[c.ID] = true
		b.grownDestsAt[c.ID] = len(row)
		row = append(make([]AlphaDest, 0, len(row)+1), row...)
	}
	n.chainDests[c.ID] = append(row, d)
}

func (b *builder) addJoinSucc(j, succ *JoinNode) {
	n := b.net
	row := n.joinSuccs[j.ID]
	if !b.ownSuccs[j.ID] {
		b.ownSuccs[j.ID] = true
		b.grownSuccsAt[j.ID] = len(row)
		row = append(make([]*JoinNode, 0, len(row)+1), row...)
	}
	n.joinSuccs[j.ID] = append(row, succ)
}

func (b *builder) addJoinTerm(j *JoinNode, t *Terminal) {
	n := b.net
	row := n.joinTerms[j.ID]
	if !b.ownTerms[j.ID] {
		b.ownTerms[j.ID] = true
		b.grownTermsAt[j.ID] = len(row)
		row = append(make([]*Terminal, 0, len(row)+1), row...)
	}
	n.joinTerms[j.ID] = append(row, t)
}

func (b *builder) addJoinRule(j *JoinNode, name string) {
	n := b.net
	row := n.joinRules[j.ID]
	// A rule's path visits each join once, so a trailing duplicate means
	// this rule already recorded itself on the node.
	if ln := len(row); ln > 0 && row[ln-1] == name {
		return
	}
	if !b.ownRules[j.ID] {
		b.ownRules[j.ID] = true
		row = append(make([]string, 0, len(row)+1), row...)
	}
	n.joinRules[j.ID] = append(row, name)
}

func (b *builder) addChainToClass(class symbols.ID, c *AlphaChain) {
	n := b.net
	row := n.ChainsByClass[class]
	if !b.ownClass[class] {
		b.ownClass[class] = true
		row = append(make([]*AlphaChain, 0, len(row)+1), row...)
	}
	n.ChainsByClass[class] = append(row, c)
}

// ceSplit is the per-condition-element compilation result.
type ceSplit struct {
	alphaTests []ConstTest
	eqTests    []JoinTest
	otherTests []JoinTest
	// newBinds are the variables first bound in this (positive) CE.
	newBinds map[string]int // var -> field
	numTests int
}

// splitCE classifies every test of a condition element into alpha
// (constant or intra-element), join-equality, or join-other tests, given
// the bindings established by earlier positive condition elements.
func splitCE(ce *ops5.CondElem, bound map[string]BindRef) (*ceSplit, error) {
	s := &ceSplit{newBinds: make(map[string]int)}
	s.numTests = 1 // the class test
	for _, at := range ce.Tests {
		for _, term := range at.Terms {
			s.numTests++
			switch {
			case term.Disj != nil:
				s.alphaTests = append(s.alphaTests, ConstTest{
					Field: at.Field, Pred: ops5.PredEQ, Disj: term.Disj, OtherField: -1,
				})
			case !term.IsVar:
				s.alphaTests = append(s.alphaTests, ConstTest{
					Field: at.Field, Pred: term.Pred, Const: term.Const, OtherField: -1,
				})
			default:
				// Variable occurrence: intra-element test if already seen
				// in this CE, join test if bound earlier, binding otherwise.
				if f, ok := s.newBinds[term.Var]; ok {
					s.alphaTests = append(s.alphaTests, ConstTest{
						Field: at.Field, Pred: term.Pred, OtherField: f,
					})
					continue
				}
				if ref, ok := bound[term.Var]; ok {
					jt := JoinTest{
						Pred: term.Pred, LeftPos: ref.Pos, LeftField: ref.Field, RightField: at.Field,
					}
					if term.Pred == ops5.PredEQ {
						s.eqTests = append(s.eqTests, jt)
					} else {
						s.otherTests = append(s.otherTests, jt)
					}
					continue
				}
				if term.Pred != ops5.PredEQ {
					return nil, fmt.Errorf("predicate %s applied to unbound variable <%s>", term.Pred, term.Var)
				}
				s.numTests-- // a first binding is not a test
				s.newBinds[term.Var] = at.Field
			}
		}
	}
	return s, nil
}

// compileRule threads one production through the network, sharing alpha
// chains and identical join prefixes with previously compiled rules.
// When the network carries a reorder policy the planner picks the join
// order; source order otherwise.
func (b *builder) compileRule(r *ops5.Rule) error {
	order := PlanOrder(r, b.net.plan)
	if order != nil && !validOrder(r, order) {
		// A plan the compiler cannot realize falls back to source order
		// (validOrder runs before any network state is touched).
		order = nil
	}
	return b.compileRuleOrdered(r, order)
}

// compileRuleOrdered compiles one production with an explicit plan
// (order nil = source order). A non-nil order must have passed
// validOrder.
func (b *builder) compileRuleOrdered(r *ops5.Rule, order []int) error {
	net := b.net
	positive := 0
	for _, ce := range r.CEs {
		if !ce.Negated {
			positive++
		}
	}
	if positive > MaxTokenLen {
		return fmt.Errorf("%d positive condition elements, at most %d", positive, MaxTokenLen)
	}
	if len(net.joinSuccs)+len(r.CEs) > MaxJoinIDs {
		return fmt.Errorf("the network has run out of join node IDs (%d)", MaxJoinIDs)
	}
	cr := &CompiledRule{
		Rule:     r,
		Index:    net.numRuleIDs,
		CEPos:    make([]int, len(r.CEs)),
		Bindings: make(map[string]BindRef),
	}
	var (
		firstAlpha *AlphaChain
		prevJoin   *JoinNode
		err        error
	)
	if order == nil {
		firstAlpha, prevJoin, err = b.buildSourceOrder(r, cr)
	} else {
		firstAlpha, prevJoin, err = b.buildPlanned(r, cr, order)
	}
	if err != nil {
		return err
	}
	term := &Terminal{ID: net.numTermIDs, Rule: cr}
	net.numTermIDs++
	cr.Terminal = term
	net.Terminals = append(net.Terminals, term)
	if prevJoin == nil {
		// Single-condition-element production: terminal hangs directly
		// off the alpha chain.
		b.addChainDest(firstAlpha, AlphaDest{Terminal: term})
	} else {
		b.addJoinTerm(prevJoin, term)
	}
	net.Rules = append(net.Rules, cr)
	net.numRuleIDs++
	if b.delta != nil {
		b.delta.AddedRules = append(b.delta.AddedRules, cr)
		b.delta.NewTerminals = append(b.delta.NewTerminals, term)
	}
	return nil
}

// buildSourceOrder is the paper's compile: one linear join per
// production, condition elements left to right in source order.
func (b *builder) buildSourceOrder(r *ops5.Rule, cr *CompiledRule) (*AlphaChain, *JoinNode, error) {
	net := b.net
	var (
		prevJoin   *JoinNode // last join built so far (nil before the 2nd CE)
		firstAlpha *AlphaChain
		prefixKey  string
		tokenLen   int
	)
	for i, ce := range r.CEs {
		split, err := splitCE(ce, cr.Bindings)
		if err != nil {
			return nil, nil, fmt.Errorf("condition element %d: %w", i+1, err)
		}
		cr.Specificity += split.numTests
		chain := b.internChain(ce.Class, split.alphaTests)
		cr.ChainIDs = append(cr.ChainIDs, chain.ID)
		net.chainRefs[chain.ID]++
		if i == 0 {
			firstAlpha = chain
			prefixKey = fmt.Sprintf("a%d", chain.ID)
			cr.CEPos[0] = 0
			tokenLen = 1
			for v, f := range split.newBinds {
				cr.Bindings[v] = BindRef{Pos: 0, Field: f}
			}
			continue
		}
		join := b.internJoin(prefixKey, firstAlpha, prevJoin, chain, ce.Negated, split, tokenLen, i)
		cr.JoinIDs = append(cr.JoinIDs, join.ID)
		net.joinRefs[join.ID]++
		b.addJoinRule(join, r.Name)
		prefixKey = join.key
		prevJoin = join
		if ce.Negated {
			cr.CEPos[i] = -1
		} else {
			cr.CEPos[i] = tokenLen
			for v, f := range split.newBinds {
				cr.Bindings[v] = BindRef{Pos: tokenLen, Field: f}
			}
			tokenLen++
		}
	}
	return firstAlpha, prevJoin, nil
}

// buildPlanned threads the production through the network in planned
// order while keeping every source-order contract intact: the RHS
// evaluator, refraction keys, recency comparison and the firing trace
// all see source-order tokens, so CEPos, Bindings and Specificity come
// from a source-order pre-pass, join tests reference planned token
// positions through a separate binding environment, and TokenPerm
// records how the conflict set permutes a network token back into
// source order.
func (b *builder) buildPlanned(r *ops5.Rule, cr *CompiledRule, order []int) (*AlphaChain, *JoinNode, error) {
	net := b.net
	// Source-order pre-pass: source token positions, RHS bindings,
	// specificity.
	srcPos := make([]int, len(r.CEs))
	{
		tokenLen := 0
		for i, ce := range r.CEs {
			split, err := splitCE(ce, cr.Bindings)
			if err != nil {
				return nil, nil, fmt.Errorf("condition element %d: %w", i+1, err)
			}
			cr.Specificity += split.numTests
			if i > 0 && ce.Negated {
				srcPos[i] = -1
				cr.CEPos[i] = -1
				continue
			}
			srcPos[i] = tokenLen
			cr.CEPos[i] = tokenLen
			for v, f := range split.newBinds {
				cr.Bindings[v] = BindRef{Pos: tokenLen, Field: f}
			}
			tokenLen++
		}
	}
	// Network pass in planned order, with its own binding environment.
	var (
		prevJoin   *JoinNode
		firstAlpha *AlphaChain
		prefixKey  string
		tokenLen   int
	)
	netBound := make(map[string]BindRef)
	perm := make([]int, 0, len(r.CEs))
	for oi, ci := range order {
		ce := r.CEs[ci]
		split, err := splitCE(ce, netBound)
		if err != nil {
			// validOrder ran this exact split sequence before any state
			// was touched, so this cannot fire.
			return nil, nil, fmt.Errorf("condition element %d (planned): %w", ci+1, err)
		}
		chain := b.internChain(ce.Class, split.alphaTests)
		cr.ChainIDs = append(cr.ChainIDs, chain.ID)
		net.chainRefs[chain.ID]++
		if oi == 0 {
			firstAlpha = chain
			prefixKey = fmt.Sprintf("a%d", chain.ID)
			tokenLen = 1
			perm = append(perm, srcPos[ci])
			for v, f := range split.newBinds {
				netBound[v] = BindRef{Pos: 0, Field: f}
			}
			continue
		}
		join := b.internJoin(prefixKey, firstAlpha, prevJoin, chain, ce.Negated, split, tokenLen, oi)
		cr.JoinIDs = append(cr.JoinIDs, join.ID)
		net.joinRefs[join.ID]++
		b.addJoinRule(join, r.Name)
		prefixKey = join.key
		prevJoin = join
		if !ce.Negated {
			perm = append(perm, srcPos[ci])
			for v, f := range split.newBinds {
				netBound[v] = BindRef{Pos: tokenLen, Field: f}
			}
			tokenLen++
		}
	}
	cr.Order = append([]int(nil), order...)
	identity := true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	if !identity {
		cr.TokenPerm = perm
	}
	return firstAlpha, prevJoin, nil
}

// internChain returns the shared alpha chain for (class, tests),
// creating it when new. Chains are canonicalized by sorting tests.
func (b *builder) internChain(class symbols.ID, tests []ConstTest) *AlphaChain {
	net := b.net
	sorted := append([]ConstTest(nil), tests...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Field != sorted[j].Field {
			return sorted[i].Field < sorted[j].Field
		}
		return constTestKey(&sorted[i]) < constTestKey(&sorted[j])
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "c%d", class)
	for i := range sorted {
		sb.WriteByte('|')
		sb.WriteString(constTestKey(&sorted[i]))
	}
	key := sb.String()
	if c, ok := net.chainByKey[key]; ok {
		return c
	}
	c := &AlphaChain{ID: len(net.chainDests), Class: class, Tests: sorted, key: key}
	net.Chains = append(net.Chains, c)
	net.chainDests = append(net.chainDests, nil)
	net.chainRefs = append(net.chainRefs, 0)
	net.chainsByID = append(net.chainsByID, c)
	b.ownDests[c.ID] = true
	b.addChainToClass(class, c)
	net.chainByKey[key] = c
	if b.delta != nil {
		b.delta.NewChains = append(b.delta.NewChains, c)
	}
	return c
}

func constTestKey(t *ConstTest) string {
	if t.Disj != nil {
		var sb strings.Builder
		fmt.Fprintf(&sb, "f%d<<", t.Field)
		for _, d := range t.Disj {
			fmt.Fprintf(&sb, "%#v,", d)
		}
		sb.WriteString(">>")
		return sb.String()
	}
	if t.OtherField >= 0 {
		return fmt.Sprintf("f%d%sf%d", t.Field, t.Pred, t.OtherField)
	}
	return fmt.Sprintf("f%d%s%#v", t.Field, t.Pred, t.Const)
}

// internJoin returns a shared join node for the given prefix and right
// input, creating it when new.
func (b *builder) internJoin(prefixKey string, firstAlpha *AlphaChain, prev *JoinNode, right *AlphaChain, negated bool, split *ceSplit, tokenLen, planPos int) *JoinNode {
	net := b.net
	var sb strings.Builder
	sb.WriteString(prefixKey)
	fmt.Fprintf(&sb, ">>a%d,n%v", right.ID, negated)
	for _, t := range split.eqTests {
		fmt.Fprintf(&sb, "|e%d.%d=%d", t.LeftPos, t.LeftField, t.RightField)
	}
	for _, t := range split.otherTests {
		fmt.Fprintf(&sb, "|o%d.%d%s%d", t.LeftPos, t.LeftField, t.Pred, t.RightField)
	}
	key := sb.String()
	if j, ok := net.joinByKey[key]; ok {
		return j
	}
	j := &JoinNode{
		ID:         len(net.joinSuccs),
		Negated:    negated,
		EqTests:    split.eqTests,
		OtherTests: split.otherTests,
		LeftLen:    tokenLen,
		PlanPos:    planPos,
		PlanSel:    joinSelEstimate(split),
		key:        key,
	}
	net.Joins = append(net.Joins, j)
	net.joinSuccs = append(net.joinSuccs, nil)
	net.joinTerms = append(net.joinTerms, nil)
	net.joinRules = append(net.joinRules, nil)
	net.joinRefs = append(net.joinRefs, 0)
	net.joinsByID = append(net.joinsByID, j)
	b.ownSuccs[j.ID] = true
	b.ownTerms[j.ID] = true
	b.ownRules[j.ID] = true
	net.joinByKey[key] = j
	if prev == nil {
		j.LeftFromAlpha = true
		b.addChainDest(firstAlpha, AlphaDest{Join: j, Side: Left})
	} else {
		b.addJoinSucc(prev, j)
	}
	b.addChainDest(right, AlphaDest{Join: j, Side: Right})
	if b.delta != nil {
		b.delta.NewJoins = append(b.delta.NewJoins, j)
	}
	return j
}
