// The per-rule match budget.
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
package engine

import (
	"fmt"

	"repro/internal/rete"
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
// charged to the first cycle).
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
	if _, ok := e.Matcher.(Rebinder); !ok {
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
	if err := e.Excise(name); err != nil {
		return fmt.Errorf("match budget: quarantining %s: %w", name, err)
	}
	e.quarantined = append(e.quarantined, QuarantinedRule{Rule: name, Cycle: cycle, Examined: worstCost})
	e.epochStats.BudgetTrips++
	// The excise restarted the per-join counters on the new network;
	// re-base so the next cycle's deltas stay non-negative.
	e.budgetPrev = jm.JoinExamined()
	return nil
}
