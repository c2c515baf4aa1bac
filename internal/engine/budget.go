// The per-rule match budget and the live re-planner.
//
// A pathological rule — typically a cross product the join planner
// cannot fix because the condition elements share no variables — can
// examine combinatorially many opposite-memory candidates per cycle
// and stall the whole session. The budget quarantines such a rule
// instead of letting it take the process down: after each cycle's
// drain the engine reads the matcher's cumulative per-join
// examination counters, attributes the cycle's delta to the live
// rules that own each join (a join shared by several productions is
// charged to all of them — the work is real for each), and excises
// the worst offender over budget through the ordinary dynamic-rule
// path. The rest of the program keeps running; the quarantined rule
// is reported, not silently dropped.
//
// ReplanJoins is the second half of the cost-based planner: at compile
// time the planner only has static selectivity heuristics, but a live
// engine knows exactly how many working-memory elements each alpha
// pattern admits. Re-planning recompiles each rule whose cheapest
// join order changed under those measured cardinalities, using the
// excise-and-re-add epoch machinery. Like an OPS5 redefinition, the
// re-added rule's refraction state is fresh — it may re-fire on
// instantiations that already fired — so re-planning is an explicit
// operator call, never something the engine does behind the program's
// back.
package engine

import (
	"fmt"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/symbols"
)

// JoinExaminer is the optional matcher interface behind the match
// budget: a cumulative count, per join node ID, of opposite-memory
// candidates examined. Both hash-table backends implement it; the
// instruction-level baselines do not, and the budget is inert there.
type JoinExaminer interface {
	JoinExamined() []int64
}

// QuarantinedRule records one budget trip.
type QuarantinedRule struct {
	Rule     string // production name
	Cycle    int    // recognize-act cycle the trip was detected after
	Examined int64  // candidates the rule's joins examined that cycle
}

// Quarantined returns the rules excised by the match budget so far, in
// trip order.
func (e *Engine) Quarantined() []QuarantinedRule {
	return append([]QuarantinedRule(nil), e.quarantined...)
}

// snapshotBudget re-bases the per-cycle examination deltas. Called at
// the start of a run (so work done by Init or between runs is not
// charged to the first cycle) and after any epoch change (which zeroes
// dead joins' counters).
func (e *Engine) snapshotBudget() {
	if jm, ok := e.Matcher.(JoinExaminer); ok {
		e.budgetPrev = jm.JoinExamined()
	}
}

// enforceBudget charges the examination work since the last snapshot to
// the live rules and quarantines the worst offender over the budget.
// Runs right after a cycle's drain, so the counters are settled.
func (e *Engine) enforceBudget(budget int64, cycle int) error {
	jm, ok := e.Matcher.(JoinExaminer)
	if !ok || budget <= 0 {
		return nil
	}
	sw, swOK := e.Matcher.(EpochSwapper)
	if !swOK {
		return nil // nothing actionable: the backend cannot excise
	}
	cur := jm.JoinExamined()
	var worst *rete.CompiledRule
	var worstCost int64
	for _, cr := range e.Net.Rules {
		var cost int64
		for _, id := range cr.JoinIDs {
			var prev int64
			if id < len(e.budgetPrev) {
				prev = e.budgetPrev[id]
			}
			if id < len(cur) {
				cost += cur[id] - prev
			}
		}
		if cost > budget && cost > worstCost {
			worst, worstCost = cr, cost
		}
	}
	e.budgetPrev = cur
	if worst == nil {
		return nil
	}
	name := worst.Rule.Name
	if err := e.excise(sw, name); err != nil {
		return fmt.Errorf("match budget: quarantining %s: %w", name, err)
	}
	e.quarantined = append(e.quarantined, QuarantinedRule{Rule: name, Cycle: cycle, Examined: worstCost})
	e.epochStats.BudgetTrips++
	// The excise zeroed the dead joins' counters; re-base so the next
	// cycle's deltas stay non-negative.
	e.budgetPrev = jm.JoinExamined()
	return nil
}

// WMCard returns a cardinality estimator over the current working
// memory: the number of live elements of the class that pass the given
// alpha tests. This is the Card function ReplanJoins hands the planner;
// it is exported so callers (the REPL's plan command, tests) can probe
// what the re-planner sees.
func (e *Engine) WMCard() func(class symbols.ID, tests []rete.ConstTest) float64 {
	// Snapshot once and bucket by class: re-planning probes every CE of
	// every rule, and a per-probe WM scan would be quadratic.
	byClass := make(map[symbols.ID][]int)
	snap := e.WM.Snapshot()
	for i, w := range snap {
		byClass[w.Class()] = append(byClass[w.Class()], i)
	}
	return func(class symbols.ID, tests []rete.ConstTest) float64 {
		n := 0
	wmes:
		for _, i := range byClass[class] {
			for t := range tests {
				if !tests[t].Eval(snap[i]) {
					continue wmes
				}
			}
			n++
		}
		return float64(n)
	}
}

// ReplanJoins re-runs the join planner for every live rule using
// measured working-memory cardinalities and recompiles, via
// excise-and-re-add epochs, each rule whose planned order changed. It
// returns the names of the rules re-planned. The matcher must support
// epoch swaps. Re-added rules get fresh refraction state (OPS5
// redefinition semantics) — see the package comment.
func (e *Engine) ReplanJoins() (replanned []string, err error) {
	sw, ok := e.Matcher.(EpochSwapper)
	if !ok {
		return nil, ErrDynamicUnsupported
	}
	e.drain()
	pc := rete.PlanConfig{Reorder: true, Card: e.WMCard()}
	// Snapshot the rule list: the loop below mutates e.Net.
	type cand struct {
		r     *ops5.Rule
		order []int
	}
	var todo []cand
	for _, cr := range e.Net.Rules {
		order := rete.PlanOrder(cr.Rule, pc)
		if equalOrder(order, cr.Order) {
			continue
		}
		todo = append(todo, cand{r: cr.Rule, order: order})
	}
	for _, c := range todo {
		if err := e.excise(sw, c.r.Name); err != nil {
			return replanned, err
		}
		if err := e.addRule(sw, c.r, func(n *rete.Network, r *ops5.Rule) (*rete.Network, error) {
			return rete.AddRuleOrdered(n, r, c.order)
		}); err != nil {
			return replanned, err
		}
		replanned = append(replanned, c.r.Name)
	}
	if len(todo) > 0 {
		e.snapshotBudget()
	}
	return replanned, e.Matcher.CheckInvariants()
}

func equalOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
