package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/stats"
	"repro/internal/wm"
)

// compiled is one parsed program and its cost-planned network, shared
// read-only by every engine built from it — what the server's program
// cache holds per source.
type compiled struct {
	prog *ops5.Program
	net  *rete.Network
	// newEng serializes engine construction, as the server does: RHS
	// compilation may extend the class tables until the first engine
	// freezes the program.
	newEng sync.Mutex
}

func compile(src string) (*compiled, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	return &compiled{prog: prog, net: net}, nil
}

// engineMatcher is what the benchmark needs of a match backend beyond
// the engine protocol.
type engineMatcher interface {
	engine.Matcher
	Close()
	MatchStats() stats.Match
	MemStats() stats.Memory
}

// engineRun is one session played on an engine.Engine built here, the
// way psme.New and the server build theirs. It is the whole of the lib
// workload and, in the traced pass, the direct-engine twin of a served
// session: same program, same slicing, but every public timer and
// counter of the engine and its matcher in reach.
type engineRun struct {
	outcome
	initNs      int64   // engine.New + top-level makes (+ the template's base facts)
	opNs        []int64 // engine time of each op: retract + assert + Run
	matchNs     int64   // Result.MatchTime spent in the ops, Init's excluded
	rhsInstr    int64
	initChanges int64 // WM changes up to the first op
	changes     int64 // WM changes made by the ops
	match       stats.Match
	conf        stats.Conflict
	mem         stats.Memory
	cont        stats.Contention // parallel matcher only
}

// fields resolves a fact against the program's class tables, as the
// server's assert decoding does.
func (c *compiled) fields(f fact) ([]wm.Value, error) {
	classID, ok := c.prog.Symbols.Lookup(f.class)
	class := c.prog.Classes[classID]
	if !ok || class == nil {
		return nil, fmt.Errorf("unknown class %q", f.class)
	}
	out := make([]wm.Value, class.NumFields())
	out[0] = wm.Sym(classID)
	for _, a := range f.attrs {
		attrID, _ := c.prog.Symbols.Lookup(a.name)
		idx, ok := class.Fields[attrID]
		if !ok {
			return nil, fmt.Errorf("class %s has no attribute %q", f.class, a.name)
		}
		out[idx] = wm.Int(a.val)
	}
	return out, nil
}

func (c *compiled) fieldsList(facts []fact) ([][]wm.Value, error) {
	out := make([][]wm.Value, len(facts))
	for i, f := range facts {
		fields, err := c.fields(f)
		if err != nil {
			return nil, err
		}
		out[i] = fields
	}
	return out, nil
}

// runEngineSession builds an engine on the named matcher, asserts base
// (the ledger template's facts; nil for paper programs), plays the
// script and tears the engine down. rec may be nil.
func runEngineSession(c *compiled, matcher string, sc *script, base []fact, ordinal, opLimit int, rec *recorder) (*engineRun, error) {
	run := &engineRun{}
	if rec != nil {
		rec.sessions++
	}
	t0 := time.Now()
	cs := conflict.New(conflict.Config{})
	var m engineMatcher
	switch matcher {
	case "vs2":
		m = seqmatch.New(c.net, seqmatch.VS2, 0, cs)
	case "parallel":
		m = parmatch.New(c.net, parmatch.Config{Procs: matchProcs, Queues: matchProcs}, cs)
	default:
		return nil, fmt.Errorf("unknown matcher %q", matcher)
	}
	defer m.Close()
	c.newEng.Lock()
	eng, err := engine.New(c.prog, c.net, cs, m, nil)
	c.newEng.Unlock()
	if err != nil {
		return nil, err
	}
	var nChanges int64
	eng.WMListener = func(bool, *wm.WME) { nChanges++ }
	if err := eng.Init(); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	if base != nil {
		fl, err := c.fieldsList(base)
		if err != nil {
			return nil, err
		}
		if _, err := eng.AssertBatch(fl); err != nil {
			return nil, fmt.Errorf("base facts: %w", err)
		}
	}
	ready := time.Now()
	run.initNs = int64(ready.Sub(t0))
	// The engine's match timer runs from Init on and is read off a Result:
	// a run its hook stops before the first cycle reports it, changing
	// nothing.
	idle, err := eng.Run(engine.Options{Hook: func(int) error { return engine.ErrLimit }})
	if !errors.Is(err, engine.ErrLimit) {
		return nil, fmt.Errorf("reading the match timer: %v", err)
	}
	initMatchNs := int64(idle.MatchTime)
	run.initChanges = nChanges
	if rec != nil {
		rec.started(t0, ready)
		rec.changes += nChanges
	}

	digest := newFiringDigest()
	stream := sc.stream(ordinal)
	var holdTags []int
	for n := 0; ; n++ {
		var asserts [][]wm.Value
		if stream != nil {
			if n == len(stream) {
				break
			}
			if asserts, err = c.fieldsList(stream[n]); err != nil {
				return nil, err
			}
		} else if opLimit > 0 && n >= opLimit {
			return nil, errRunaway
		}
		before := nChanges
		t0 := time.Now()
		if stream != nil {
			if n >= ledgerHoldLag {
				if _, err := eng.RetractBatch([]int{holdTags[n-ledgerHoldLag]}); err != nil {
					return nil, err
				}
			}
			added, err := eng.AssertBatch(asserts)
			if err != nil {
				return nil, err
			}
			holdTags = append(holdTags, added[len(added)-1].TimeTag)
		}
		res, err := eng.Run(engine.Options{MaxCycles: sc.maxCycles, RecordFiring: true})
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", n, err)
		}
		end := time.Now()
		run.opNs = append(run.opNs, int64(end.Sub(t0)))
		run.matchNs, run.rhsInstr = int64(res.MatchTime)-initMatchNs, res.RHSInstr
		run.cycles += res.Cycles
		run.wmSize = res.WMSize
		for _, f := range res.Firings {
			digest.add(f.Rule, f.TimeTags)
		}
		if rec != nil {
			rec.ops++
			rec.op("", t0, end, int64(res.Elapsed))
			rec.cycles += int64(res.Cycles)
			rec.changes += nChanges - before
		}
		if stream == nil && (res.Halted || res.Cycles < sc.maxCycles) {
			break
		}
	}
	run.digest = digest.sum()
	run.changes = nChanges - run.initChanges
	run.match, run.conf, run.mem = m.MatchStats(), cs.StatsSnapshot(), m.MemStats()
	if pm, ok := m.(*parmatch.Matcher); ok {
		run.cont = pm.Contention()
	}
	return run, nil
}
