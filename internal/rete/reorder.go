// Cost-based join-order planning. The paper compiles condition elements
// in source order (its Figure 2-2 network is the textbook left-to-right
// linear join), which leaves the match cost of a production at the mercy
// of how the programmer happened to write the LHS: one unselective or
// cross-producting condition element early in the chain multiplies every
// partial match downstream, and no amount of match parallelism hides
// the blowup. The planner here reorders the joins of each production at
// compile time, greedily placing next the condition element that keeps
// the expected partial-match cardinality smallest, under constraints
// that preserve OPS5 semantics exactly:
//
//   - Only variable-binding structure limits positive condition
//     elements: a CE whose tests apply a non-equality predicate to a
//     variable needs an equality binder of that variable placed first
//     (splitCE rejects non-EQ tests on unbound variables, exactly as the
//     source-order compiler does). Among equality-joined CEs any order
//     yields the same match set — all equality occurrences of a variable
//     are equal in every match, so whichever CE is placed first becomes
//     the binder and the others test against it.
//   - A negated condition element must see the same binding environment
//     it saw in source order: every variable bound before it in the
//     source must be bound before it in the plan (so its join tests
//     compare against an equal value), and every variable that was FREE
//     at its source position must still be free (a free variable in a
//     negated CE is locally scoped — a wildcard — and letting a later
//     positive CE bind it first would silently turn the wildcard into a
//     join test). The greedy loop therefore defers positive CEs that
//     would bind a wildcard of a not-yet-placed negated CE, and places
//     eligible negated CEs as early as possible (they only filter).
//
// The cost model is deliberately simple: a static per-CE cardinality
// estimate from constant-test restrictiveness (an equality test against
// a constant is assumed to pass 10% of a class's elements, a
// disjunction 30%, a relational test 50%), an equality-join selectivity
// per shared variable, and a flat penalty for cross products (no shared
// variables — the Tourney pathology of the paper's §4.2).
//
// Everything downstream of the planner keeps source-order semantics
// byte-identical: CompiledRule.TokenPerm records how to permute a
// network-order instantiation token back into source order, and the
// conflict set applies it before the token becomes visible to
// refraction, recency comparison, the RHS evaluator or the firing
// trace. A plan that degenerates to the identity (or any rule the
// planner cannot safely reorder) compiles exactly as before, with
// TokenPerm nil.
package rete

import (
	"repro/internal/ops5"
)

// PlanConfig selects the join-order compile policy of a network. The
// zero value is the source-order compiler (no reordering).
type PlanConfig struct {
	// Reorder enables the cost-based join-order planner. Off, the
	// compiler emits the paper's source-order linear join.
	Reorder bool
}

// Static cost-model constants. Units are arbitrary (only relative order
// matters); baseCard is the assumed population of a class with no
// constant tests.
const (
	baseCard      = 100.0
	selConstEQ    = 0.10 // equality against a constant
	selDisj       = 0.30 // << ... >> disjunction
	selConstOther = 0.50 // relational test against a constant
	selIntra      = 0.50 // intra-element field comparison
	selEqJoinVar  = 0.05 // per shared equality-joined variable
	selCrossumPen = 4.0  // no shared variables: cross product
	selNegFilter  = 0.75 // a placed negated CE only filters the token set
	minPlacedCard = 1.0  // partial-match cardinality floor
	minCard       = 0.5  // floor for one CE's estimate
)

// ceAnalysis is the planner's per-condition-element summary.
type ceAnalysis struct {
	srcIdx  int
	negated bool
	card    float64
	// allVars / eqVars / nonEqVars classify the variable occurrences:
	// every variable, those with at least one equality occurrence (the
	// ones this CE can bind or equality-join on), and those with a
	// non-equality occurrence (which need a binder).
	allVars   map[string]bool
	eqVars    map[string]bool
	nonEqVars map[string]bool
	// selfBind are variables whose first occurrence in this CE is an
	// equality test — splitCE will bind them here even if nothing
	// earlier did, so a later non-EQ occurrence in the same CE is legal.
	selfBind map[string]bool
	// srcBound / wild apply to negated CEs only: variables bound by
	// positive CEs before this one in source order, and the rest (the
	// locally-scoped wildcards whose freeness the plan must preserve).
	srcBound map[string]bool
	wild     map[string]bool
}

// analyzeRule summarizes every condition element of a rule in source
// order, tracking the source binding environment for the negated-CE
// constraints.
func analyzeRule(r *ops5.Rule) []*ceAnalysis {
	infos := make([]*ceAnalysis, len(r.CEs))
	boundSrc := map[string]bool{}
	for i, ce := range r.CEs {
		inf := &ceAnalysis{
			srcIdx:    i,
			negated:   ce.Negated && i > 0, // CE 0 is compiled positive (see compileRule)
			allVars:   map[string]bool{},
			eqVars:    map[string]bool{},
			nonEqVars: map[string]bool{},
			selfBind:  map[string]bool{},
		}
		inf.card = estimateCard(ce)
		for _, at := range ce.Tests {
			for _, term := range at.Terms {
				if !term.IsVar {
					continue
				}
				first := !inf.allVars[term.Var]
				inf.allVars[term.Var] = true
				if term.Pred == ops5.PredEQ && term.Disj == nil {
					inf.eqVars[term.Var] = true
					if first {
						inf.selfBind[term.Var] = true
					}
				} else {
					inf.nonEqVars[term.Var] = true
				}
			}
		}
		if inf.negated {
			inf.srcBound = map[string]bool{}
			inf.wild = map[string]bool{}
			for v := range inf.allVars {
				if boundSrc[v] {
					inf.srcBound[v] = true
				} else {
					inf.wild[v] = true
				}
			}
		} else {
			for v := range inf.eqVars {
				boundSrc[v] = true
			}
		}
		infos[i] = inf
	}
	return infos
}

// estimateCard estimates the alpha-memory cardinality of one condition
// element from its constant tests.
func estimateCard(ce *ops5.CondElem) float64 {
	card := baseCard
	for _, at := range ce.Tests {
		for _, term := range at.Terms {
			switch {
			case term.Disj != nil:
				card *= selDisj
			case !term.IsVar:
				if term.Pred == ops5.PredEQ {
					card *= selConstEQ
				} else {
					card *= selConstOther
				}
			}
		}
	}
	if card < minCard {
		card = minCard
	}
	return card
}

// joinSelEstimate is the per-join selectivity annotation recorded on
// every join node (reordered or not) for the topology dump: the product
// of the per-test selectivities, with the cross-product penalty making
// test-free joins stand out (sel > 1).
func joinSelEstimate(split *ceSplit) float64 {
	if len(split.eqTests) == 0 && len(split.otherTests) == 0 {
		return selCrossumPen
	}
	sel := 1.0
	for range split.eqTests {
		sel *= selEqJoinVar
	}
	for range split.otherTests {
		sel *= selConstOther
	}
	return sel
}

// PlanOrder computes the planned condition-element order for one rule
// under a plan configuration. It returns nil when the rule should
// compile in source order: planning disabled, fewer than three
// condition elements (two CEs have only one join — nothing to reorder
// profitably — and reordering them would still be legal but pointless),
// a first condition element the compiler special-cases (negated), an
// ordering constraint the planner cannot satisfy, or a plan identical
// to the source order.
func PlanOrder(r *ops5.Rule, pc PlanConfig) []int {
	if !pc.Reorder || len(r.CEs) < 3 {
		return nil
	}
	if r.CEs[0].Negated {
		// compileRule compiles CE 0 as the positive seed of the join
		// chain regardless of negation; leave such degenerate rules in
		// source order rather than reinterpret them.
		return nil
	}
	infos := analyzeRule(r)
	n := len(infos)
	placed := make([]bool, n)
	bound := map[string]bool{}
	order := make([]int, 0, n)
	curCard := 1.0

	// bindsWildOf reports whether placing positive CE p now would bind a
	// wildcard of a not-yet-placed negated CE — which must stay free
	// until that negated CE is in.
	bindsWildOf := func(p *ceAnalysis) bool {
		for v := range p.eqVars {
			if bound[v] {
				continue // already bound; any violated negated CE is already lost
			}
			for j, inf := range infos {
				if placed[j] || !inf.negated {
					continue
				}
				if inf.wild[v] {
					return true
				}
			}
		}
		return false
	}

	for len(order) < n {
		// Eligible negated CEs first (lowest source index): they only
		// filter the token set, so earliest legal placement is best. The
		// first slot stays positive — the compiler seeds the join chain
		// with it.
		pick := -1
		for i, inf := range infos {
			if placed[i] || !inf.negated || len(order) == 0 {
				continue
			}
			ok := true
			for v := range inf.srcBound {
				if !bound[v] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for v := range inf.wild {
				if bound[v] {
					// A wildcard got bound before this negated CE could be
					// placed — the plan would change its meaning. Bail out.
					return nil
				}
			}
			pick = i
			break
		}
		if pick >= 0 {
			placed[pick] = true
			order = append(order, pick)
			curCard *= selNegFilter
			if curCard < minPlacedCard {
				curCard = minPlacedCard
			}
			continue
		}

		// Cheapest eligible positive CE.
		bestScore := 0.0
		for i, inf := range infos {
			if placed[i] || inf.negated {
				continue
			}
			eligible := true
			for v := range inf.nonEqVars {
				if !bound[v] && !inf.selfBind[v] {
					eligible = false
					break
				}
			}
			if !eligible || bindsWildOf(inf) {
				continue
			}
			var score float64
			if len(order) == 0 {
				score = inf.card
			} else {
				sel := 1.0
				shared := 0
				for v := range inf.eqVars {
					if bound[v] {
						shared++
						sel *= selEqJoinVar
					}
				}
				for v := range inf.nonEqVars {
					if bound[v] {
						sel *= selConstOther
					}
				}
				if shared == 0 {
					sel *= selCrossumPen
				}
				score = curCard * inf.card * sel
			}
			if pick < 0 || score < bestScore {
				pick, bestScore = i, score
			}
		}
		if pick < 0 {
			// No eligible CE — a constraint cycle the greedy loop cannot
			// break. Source order is always a valid plan; use it.
			return nil
		}
		placed[pick] = true
		order = append(order, pick)
		for v := range infos[pick].eqVars {
			bound[v] = true
		}
		if len(order) == 1 {
			curCard = infos[pick].card
		} else {
			curCard = bestScore
		}
		if curCard < minPlacedCard {
			curCard = minPlacedCard
		}
	}

	identity := true
	for i, ci := range order {
		if i != ci {
			identity = false
			break
		}
	}
	if identity {
		return nil
	}
	return order
}

// validOrder reports whether compiling r's condition elements in the
// given order would succeed (every splitCE call resolves). compileRule
// runs it before mutating any network state, so a bad plan falls back
// to source order instead of corrupting refcounts mid-build.
func validOrder(r *ops5.Rule, order []int) bool {
	if len(order) != len(r.CEs) {
		return false
	}
	seen := make([]bool, len(r.CEs))
	for _, ci := range order {
		if ci < 0 || ci >= len(r.CEs) || seen[ci] {
			return false
		}
		seen[ci] = true
	}
	if r.CEs[order[0]].Negated {
		return false
	}
	if r.CEs[0].Negated {
		// compileRule compiles a negated CE 0 as the positive seed of the
		// chain; a plan that moved it elsewhere would reinterpret it.
		return false
	}
	bound := map[string]BindRef{}
	pos := 0
	for i, ci := range order {
		ce := r.CEs[ci]
		split, err := splitCE(ce, bound)
		if err != nil {
			return false
		}
		if i == 0 || !ce.Negated {
			for v, f := range split.newBinds {
				bound[v] = BindRef{Pos: pos, Field: f}
			}
			pos++
		}
	}
	return true
}
