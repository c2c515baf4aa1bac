package engine

import (
	"errors"
	"fmt"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/stats"
)

// ErrDynamicUnsupported reports a matcher backend that cannot move onto
// a new network (currently only the interpreted Lisp baseline).
var ErrDynamicUnsupported = errors.New("engine: matcher backend does not support runtime build/excise")

// Rebinder is the optional matcher interface for runtime program
// changes. SetNetwork moves a drained matcher that holds no token onto
// another network; MatchStats lets a rebuild count its re-match apart.
type Rebinder interface {
	SetNetwork(net *rete.Network) error
	MatchStats() stats.Match
}

// Epoch returns the version of the network the engine is matching on.
func (e *Engine) Epoch() int { return e.Net.Epoch }

// EpochStats returns the accumulated dynamic-change counters.
func (e *Engine) EpochStats() stats.Epoch { return e.epochStats }

// RebuildWork returns what rebuilds' re-matches of working memory added
// to the match counters and the conflict set's inserts and deletes: not
// client work, so the server reports without it.
func (e *Engine) RebuildWork() (stats.Match, stats.Conflict) { return e.rebuildMatch, e.rebuildConf }

// AddRules parses a runtime batch of (p ...) and (excise name) forms
// and applies the changes in source order, one rebuild per change.
// Redefining an existing production excises the old definition first
// (OPS5 semantics). The returned slices name the productions added and
// excised; on error the changes already applied stay applied and are
// still reported.
func (e *Engine) AddRules(src string) (added, excised []string, err error) {
	changes, err := e.Prog.ParseProductions(src)
	if err != nil {
		return nil, nil, err
	}
	for _, ch := range changes {
		if ch.Add == nil || e.Net.RuleByName(ch.Add.Name) != nil {
			name := ch.Excise
			if ch.Add != nil {
				name = ch.Add.Name
			}
			if err := e.Excise(name); err != nil {
				return added, excised, err
			}
			excised = append(excised, name)
		}
		if ch.Add == nil {
			continue
		}
		if err := e.rebuild(append(e.rules(""), ch.Add)); err != nil {
			return added, excised, err
		}
		e.epochStats.RulesAdded++
		e.programChanged(e.Prog.FormatRule(ch.Add))
		added = append(added, ch.Add.Name)
	}
	return added, excised, nil
}

// Excise removes one production: the engine rebuilds on the network of
// the other rules, and the production's instantiations go with its
// terminal.
func (e *Engine) Excise(name string) error {
	if e.Net.RuleByName(name) == nil {
		return fmt.Errorf("excise: no production named %s", name)
	}
	if err := e.rebuild(e.rules(name)); err != nil {
		return err
	}
	e.epochStats.RulesExcised++
	e.programChanged(fmt.Sprintf("(excise %s)", name))
	return nil
}

// rules returns the network's rules in compile order, except the one
// named except.
func (e *Engine) rules(except string) []*ops5.Rule {
	out := make([]*ops5.Rule, 0, len(e.Net.Rules)+1)
	for _, cr := range e.Net.Rules {
		if cr.Rule.Name != except {
			out = append(out, cr.Rule)
		}
	}
	return out
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

// rebuild makes rules the engine's program: the single site of every
// runtime build, excise, redefinition, budget quarantine and replayed
// program record. It compiles the next network and its right-hand sides
// (a failure changes nothing), notes the fired instantiations of the
// rules that survive, retracts working memory through the old network
// — straight to the matcher, with no journal and no listener, which
// empties the token table and the conflict set — moves the matcher onto
// the new network, re-asserts working memory in tag order and marks the
// noted instantiations fired again. The result is the state a
// from-scratch compile of rules would reach on this working memory,
// refraction included.
func (e *Engine) rebuild(rules []*ops5.Rule) error {
	rb, ok := e.Matcher.(Rebinder)
	if !ok {
		return ErrDynamicUnsupported
	}
	next, err := e.Net.Recompile(rules)
	if err != nil {
		return err
	}
	compiled, err := compileRHS(e.Prog, next)
	if err != nil {
		return err
	}
	e.drain()
	match0, conf0 := rb.MatchStats(), e.CS.StatsSnapshot()
	type fireKey struct {
		rule string
		tags []int
	}
	var fired []fireKey
	e.CS.ForEachFired(func(inst *conflict.Instantiation) {
		fired = append(fired, fireKey{inst.Rule.Rule.Name, tags(inst.Wmes)})
	})
	live := e.WM.Snapshot()
	for _, w := range live {
		e.Matcher.Submit(false, w)
	}
	e.Matcher.Drain()
	if n := e.CS.Len(); n != 0 || !e.CS.Drained() {
		return fmt.Errorf("engine: %d instantiations left after retracting working memory", n)
	}
	if err := rb.SetNetwork(next); err != nil {
		return err
	}
	e.Net, e.compiled = next, compiled
	for _, w := range live {
		e.Matcher.Submit(true, w)
	}
	e.Matcher.Drain()
	byName := make(map[string]*rete.CompiledRule, len(next.Rules))
	for _, cr := range next.Rules {
		byName[cr.Rule.Name] = cr
	}
	for _, k := range fired {
		if cr := byName[k.rule]; cr != nil && !e.CS.MarkFiredByTags(cr, k.tags) {
			return fmt.Errorf("engine: fired %s %v not re-derived", k.rule, k.tags)
		}
	}
	e.epochStats.Swaps++
	e.epochStats.ReplayedWMEs += int64(len(live))
	match, conf := rb.MatchStats(), e.CS.StatsSnapshot()
	match.Sub(&match0)
	conf.Sub(&conf0)
	conf.Live, conf.Fired, conf.Pending = 0, 0, 0
	e.rebuildMatch.Add(&match)
	e.rebuildConf.Add(&conf)
	return e.Matcher.CheckInvariants()
}
