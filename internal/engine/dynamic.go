package engine

import (
	"errors"
	"fmt"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/rhs"
	"repro/internal/stats"
	"repro/internal/wm"
)

// ErrDynamicUnsupported reports a matcher backend that cannot adopt new
// network epochs (currently only the interpreted Lisp baseline).
var ErrDynamicUnsupported = errors.New("engine: matcher backend does not support runtime build/excise")

// EpochSwapper is the optional matcher interface for dynamic rule
// changes. SwapEpoch adopts a network epoch derived from the matcher's
// current one: it tears down the memories of excised nodes and replays
// the live working memory through newly added topology. It must only be
// called while the matcher is drained. The returned count is the number
// of memory entries removed by an excise.
type EpochSwapper interface {
	SwapEpoch(next *rete.Network, live []*wm.WME) (removed int, err error)
}

// Epoch returns the version of the network the engine is matching on.
func (e *Engine) Epoch() int { return e.Net.Epoch }

// EpochStats returns the accumulated dynamic-change counters.
func (e *Engine) EpochStats() stats.Epoch { return e.epochStats }

// AddRules parses a runtime batch of (p ...) and (excise name) forms
// and applies the changes in source order, one network epoch per
// change. Redefining an existing production excises the old definition
// first (OPS5 semantics). The returned slices name the productions
// added and excised; on error the changes already applied stay applied
// and are still reported.
func (e *Engine) AddRules(src string) (added, excised []string, err error) {
	sw, ok := e.Matcher.(EpochSwapper)
	if !ok {
		return nil, nil, ErrDynamicUnsupported
	}
	changes, err := e.Prog.ParseProductions(src)
	if err != nil {
		return nil, nil, err
	}
	for _, ch := range changes {
		if ch.Add == nil {
			if err := e.excise(sw, ch.Excise); err != nil {
				return added, excised, err
			}
			excised = append(excised, ch.Excise)
			continue
		}
		if e.Net.RuleByName(ch.Add.Name) != nil {
			if err := e.excise(sw, ch.Add.Name); err != nil {
				return added, excised, err
			}
			excised = append(excised, ch.Add.Name)
		}
		if err := e.addRule(sw, ch.Add); err != nil {
			return added, excised, err
		}
		added = append(added, ch.Add.Name)
	}
	return added, excised, e.Matcher.CheckInvariants()
}

// Excise removes one production from the engine's network epoch,
// dropping its memory entries and conflict-set instantiations. Shared
// nodes referenced by other productions are untouched.
func (e *Engine) Excise(name string) error {
	sw, ok := e.Matcher.(EpochSwapper)
	if !ok {
		return ErrDynamicUnsupported
	}
	if err := e.excise(sw, name); err != nil {
		return err
	}
	return e.Matcher.CheckInvariants()
}

// addRule compiles one parsed rule into a new network epoch (in the
// network's own join plan), compiles its RHS, and has the matcher adopt
// the epoch with a replay of the live working memory.
// The engine's own state (Net, compiled) is only updated after the swap
// succeeds. This is the engine's single add site.
func (e *Engine) addRule(sw EpochSwapper, r *ops5.Rule) error {
	e.drain()
	next, err := rete.AddRule(e.Net, r)
	if err != nil {
		return err
	}
	cr := next.Delta.AddedRules[0]
	c, err := rhs.Compile(e.Prog, cr)
	if err != nil {
		return fmt.Errorf("production %s: %w", r.Name, err)
	}
	live := e.WM.Snapshot()
	if _, err := sw.SwapEpoch(next, live); err != nil {
		return err
	}
	for len(e.compiled) < next.NumRuleIDs() {
		e.compiled = append(e.compiled, nil)
	}
	e.compiled[cr.Index] = c
	e.Net = next
	e.epochStats.Swaps++
	e.epochStats.RulesAdded++
	e.epochStats.ReplayedWMEs += int64(len(live))
	e.programChanged(e.Prog.FormatRule(r))
	return nil
}

// programChanged records one applied program change in its canonical
// form: appended to the delta CaptureState serializes, and journaled.
// One form per applied change, so a batch that fails midway leaves both
// describing exactly the changes that took effect.
func (e *Engine) programChanged(src string) {
	e.progDelta = append(e.progDelta, src)
	if e.journal != nil {
		e.journal.RecordProgram(src)
	}
}

// excise builds the removal epoch, swaps the matcher onto it, and
// drops the rule's conflict-set instantiations. This is the engine's
// single excise site: runtime excises, redefinitions and budget
// quarantines all come through here.
func (e *Engine) excise(sw EpochSwapper, name string) error {
	cr := e.Net.RuleByName(name)
	if cr == nil {
		return fmt.Errorf("excise: no production named %s", name)
	}
	e.drain()
	next, err := rete.RemoveRule(e.Net, name)
	if err != nil {
		return err
	}
	removed, err := sw.SwapEpoch(next, nil)
	if err != nil {
		return err
	}
	e.compiled[cr.Index] = nil
	e.Net = next
	insts := e.CS.ExciseRule(cr)
	e.epochStats.Swaps++
	e.epochStats.RulesExcised++
	e.epochStats.RemovedEntries += int64(removed)
	e.epochStats.RemovedInsts += int64(insts)
	e.programChanged(fmt.Sprintf("(excise %s)", name))
	return nil
}
