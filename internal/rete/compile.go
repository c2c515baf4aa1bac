package rete

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ops5"
	"repro/internal/symbols"
)

// Compile builds the epoch-0 Rete network for a parsed program in the
// paper's source condition-element order.
func Compile(prog *ops5.Program) (*Network, error) {
	return CompileWithPlan(prog, PlanConfig{})
}

// CompileWithPlan is Compile with an explicit join-order policy
// (reorder.go); the zero PlanConfig reproduces the source-order Compile
// exactly.
func CompileWithPlan(prog *ops5.Program, pc PlanConfig) (*Network, error) {
	return CompileRules(prog, prog.Rules, pc)
}

// CompileRules compiles rules, in order, into a whole network over
// prog's class tables with join-order policy pc. The policy is recorded
// on the network, so Recompile plans the next one the same way.
func CompileRules(prog *ops5.Program, rules []*ops5.Rule, pc PlanConfig) (*Network, error) {
	net := &Network{
		Prog:          prog,
		ChainsByClass: make(map[symbols.ID][]*AlphaChain),
		plan:          pc,
		chainByKey:    make(map[string]*AlphaChain),
		joinByKey:     make(map[string]*JoinNode),
	}
	for _, r := range rules {
		if err := net.compileRule(r); err != nil {
			return nil, fmt.Errorf("production %s: %w", r.Name, err)
		}
	}
	return net, nil
}

// Recompile compiles rules into the network that follows n: a whole new
// network with n's join plan and the next epoch number. n is untouched,
// and shares no node with the result.
func (n *Network) Recompile(rules []*ops5.Rule) (*Network, error) {
	next, err := CompileRules(n.Prog, rules, n.plan)
	if err != nil {
		return nil, err
	}
	next.Epoch = n.Epoch + 1
	return next, nil
}

// addJoinRule records name on j, once: a rule's path visits each join
// once, so a trailing duplicate means this rule already recorded itself.
func (n *Network) addJoinRule(j *JoinNode, name string) {
	row := n.joinRules[j.ID]
	if ln := len(row); ln > 0 && row[ln-1] == name {
		return
	}
	n.joinRules[j.ID] = append(row, name)
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
// order; source order, the identity plan, otherwise.
func (net *Network) compileRule(r *ops5.Rule) error {
	order := PlanOrder(r, net.plan)
	if order != nil && !validOrder(r, order) {
		// A plan the compiler cannot realize falls back to source order
		// (validOrder runs before any network state is touched).
		order = nil
	}
	positive := 0
	for _, ce := range r.CEs {
		if !ce.Negated {
			positive++
		}
	}
	if positive > MaxTokenLen {
		return fmt.Errorf("%d positive condition elements, at most %d", positive, MaxTokenLen)
	}
	if len(net.Joins)+len(r.CEs) > MaxJoinIDs {
		return fmt.Errorf("the network has run out of join node IDs (%d)", MaxJoinIDs)
	}
	cr := &CompiledRule{
		Rule:     r,
		Index:    len(net.Rules),
		CEPos:    make([]int, len(r.CEs)),
		Bindings: make(map[string]BindRef),
	}
	firstAlpha, prevJoin, err := net.buildPlanned(r, cr, order)
	if err != nil {
		return err
	}
	term := &Terminal{ID: len(net.Terminals), Rule: cr}
	cr.Terminal = term
	net.Terminals = append(net.Terminals, term)
	if prevJoin == nil {
		// Single-condition-element production: terminal hangs directly
		// off the alpha chain.
		net.chainDests[firstAlpha.ID] = append(net.chainDests[firstAlpha.ID], AlphaDest{Terminal: term})
	} else {
		net.joinTerms[prevJoin.ID] = append(net.joinTerms[prevJoin.ID], term)
	}
	net.Rules = append(net.Rules, cr)
	return nil
}

// buildPlanned threads the production through the network in planned
// order (nil: source order, the paper's compile of one linear join per
// production, condition elements left to right) while keeping every
// source-order contract intact: the RHS evaluator, refraction keys,
// recency comparison and the firing trace all see source-order tokens,
// so CEPos, Bindings and Specificity come from a source-order pre-pass,
// join tests reference planned token positions through a separate
// binding environment, and TokenPerm records how the conflict set
// permutes a network token back into source order.
func (net *Network) buildPlanned(r *ops5.Rule, cr *CompiledRule, order []int) (*AlphaChain, *JoinNode, error) {
	cr.Order = append([]int(nil), order...)
	if order == nil {
		order = make([]int, len(r.CEs))
		for i := range order {
			order[i] = i
		}
	}
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
			// validOrder (or, in source order, the pre-pass) ran this
			// exact split sequence before any state was touched, so this
			// cannot fire.
			return nil, nil, fmt.Errorf("condition element %d (planned): %w", ci+1, err)
		}
		chain := net.internChain(ce.Class, split.alphaTests)
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
		join := net.internJoin(prefixKey, firstAlpha, prevJoin, chain, ce.Negated, split, tokenLen, oi)
		cr.JoinIDs = append(cr.JoinIDs, join.ID)
		net.joinRefs[join.ID]++
		net.addJoinRule(join, r.Name)
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
func (net *Network) internChain(class symbols.ID, tests []ConstTest) *AlphaChain {
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
	c := &AlphaChain{ID: len(net.Chains), Class: class, Tests: sorted}
	c.compileFast()
	net.Chains = append(net.Chains, c)
	net.chainDests = append(net.chainDests, nil)
	net.chainRefs = append(net.chainRefs, 0)
	net.ChainsByClass[class] = append(net.ChainsByClass[class], c)
	net.chainByKey[key] = c
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
func (net *Network) internJoin(prefixKey string, firstAlpha *AlphaChain, prev *JoinNode, right *AlphaChain, negated bool, split *ceSplit, tokenLen, planPos int) *JoinNode {
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
		ID:         len(net.Joins),
		Negated:    negated,
		EqTests:    split.eqTests,
		OtherTests: split.otherTests,
		LeftLen:    tokenLen,
		PlanPos:    planPos,
		PlanSel:    joinSelEstimate(split),
		key:        key,
	}
	j.compileFast()
	net.Joins = append(net.Joins, j)
	net.joinSuccs = append(net.joinSuccs, nil)
	net.joinTerms = append(net.joinTerms, nil)
	net.joinRules = append(net.joinRules, nil)
	net.joinRefs = append(net.joinRefs, 0)
	net.joinByKey[key] = j
	if prev == nil {
		j.LeftFromAlpha = true
		net.chainDests[firstAlpha.ID] = append(net.chainDests[firstAlpha.ID], AlphaDest{Join: j, Side: Left})
	} else {
		net.joinSuccs[prev.ID] = append(net.joinSuccs[prev.ID], j)
	}
	net.chainDests[right.ID] = append(net.chainDests[right.ID], AlphaDest{Join: j, Side: Right})
	return j
}
