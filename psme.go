// Package psme is a Go implementation of PSM-E — the parallel OPS5
// production-system interpreter of "Parallel OPS5 on the Encore
// Multimax" (Gupta, Forgy, Kalp, Newell, Tambe; ICPP 1988).
//
// It provides:
//
//   - an OPS5 front end (literalize declarations, productions with
//     negated condition elements, predicates, conjunctive and
//     disjunctive tests; make/modify/remove/bind/compute/write/halt),
//   - a compiled Rete network with constant-test and join-prefix sharing,
//   - four matcher backends: the optimized sequential matchers vs1
//     (list memories) and vs2 (global token hash tables), an interpreted
//     Lisp-style baseline, and the parallel matcher (one control process
//     plus k match goroutines, task queues, per-line locks, conjugate
//     token pairs),
//   - LEX and MEA conflict resolution with refraction, and
//   - a deterministic discrete-event simulator of the 16-CPU Encore
//     Multimax that reproduces the paper's speed-up and lock-contention
//     tables on any host.
//
// Quick start:
//
//	prog, err := psme.Parse(src)
//	eng, err := psme.New(prog, psme.Config{Matcher: psme.MatcherParallel, MatchProcs: 4})
//	defer eng.Close()
//	res, err := eng.Run(psme.RunOptions{MaxCycles: 10000})
package psme

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/lispemu"
	"repro/internal/multimax"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/stats"
	"repro/internal/wm"
	"repro/internal/workload"
)

// MatcherKind selects the match backend.
type MatcherKind int

// Matcher backends.
const (
	// MatcherVS2 is the optimized sequential matcher with the two global
	// token hash tables (the paper's best uniprocessor version).
	MatcherVS2 MatcherKind = iota
	// MatcherVS1 is the sequential matcher with per-node list memories.
	MatcherVS1
	// MatcherLisp is the interpreted baseline standing in for the Franz
	// Lisp OPS5 (10-20x slower than VS2).
	MatcherLisp
	// MatcherParallel is PSM-E proper: k match goroutines sharing one
	// Rete network through task queues and per-line locks.
	MatcherParallel
)

func (k MatcherKind) String() string {
	switch k {
	case MatcherVS1:
		return "vs1"
	case MatcherVS2:
		return "vs2"
	case MatcherLisp:
		return "lisp"
	case MatcherParallel:
		return "parallel"
	}
	return "unknown"
}

// LockScheme selects the hash-line locking discipline of the parallel
// matcher.
type LockScheme = parmatch.Scheme

// Line-lock schemes (§3.2 of the paper).
const (
	LockSimple = parmatch.SchemeSimple
	LockMRSW   = parmatch.SchemeMRSW
)

// Program is a parsed and Rete-compiled OPS5 program.
type Program struct {
	prog *ops5.Program
	// net has its joins ordered by the cost-based planner
	// (rete.PlanOrder).
	net *rete.Network
}

// Parse parses OPS5 source and compiles its Rete network, with joins
// ordered by the compile-time cost planner.
func Parse(src string) (*Program, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, err
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		return nil, err
	}
	return &Program{prog: prog, net: net}, nil
}

// Rules reports the number of productions.
func (p *Program) Rules() int { return len(p.prog.Rules) }

// DumpNetwork writes a rendering of the Rete network (the textual
// counterpart of the paper's Figure 2-2).
func (p *Program) DumpNetwork(w io.Writer) { p.net.Dump(w) }

// NetworkSummary returns network-size statistics.
func (p *Program) NetworkSummary() rete.NetStats { return p.net.Summarize() }

// Config configures an engine.
type Config struct {
	Matcher MatcherKind
	// MatchProcs is the number of match goroutines for MatcherParallel
	// (the k of the paper's "1+k"; default 4).
	MatchProcs int
	// TaskQueues is the number of task queues (default 1; the paper
	// found 8 essential for speed-up at high process counts).
	TaskQueues int
	// Locks picks the line-lock scheme for MatcherParallel.
	Locks LockScheme
	// Output receives (write ...) text; nil discards it.
	Output io.Writer
	// AcceptValues supplies successive (accept) results.
	AcceptValues []Value
	// MatchBudget > 0 caps the opposite-memory candidates any one rule's
	// joins may examine per recognize-act cycle. A rule over the cap is
	// quarantined — excised from the network, reported by Quarantined()
	// — instead of stalling the engine. Inert for the Lisp baseline.
	MatchBudget int64
}

// RunOptions bound a run.
type RunOptions struct {
	MaxCycles    int
	RecordFiring bool
	TraceFires   bool
}

// Firing re-exports the engine's firing record.
type Firing = engine.Firing

// Result describes a completed run.
type Result struct {
	Cycles    int
	Firings   []Firing
	Halted    bool
	WMSize    int
	Elapsed   time.Duration
	MatchTime time.Duration
}

// Engine runs the recognize-act cycle for one program.
type Engine struct {
	inner       *engine.Engine
	par         *parmatch.Matcher // non-nil for MatcherParallel
	cs          *conflict.Set
	init        bool
	matchBudget int64
}

// New builds an engine over a fresh working memory. Call Close when
// done (it stops the parallel matcher's goroutines).
func New(p *Program, cfg Config) (*Engine, error) {
	cs := conflict.NewSet()
	net := p.net
	var (
		m   engine.Matcher
		par *parmatch.Matcher
	)
	switch cfg.Matcher {
	case MatcherVS1, MatcherVS2:
		v := seqmatch.VS2
		if cfg.Matcher == MatcherVS1 {
			v = seqmatch.VS1
		}
		m = seqmatch.New(net, v, 0, cs)
	case MatcherLisp:
		m = lispemu.New(p.prog, net, cs)
	case MatcherParallel:
		procs := cfg.MatchProcs
		if procs <= 0 {
			procs = 4
		}
		par = parmatch.New(net, parmatch.Config{
			Procs:  procs,
			Queues: cfg.TaskQueues,
			Scheme: cfg.Locks,
		}, cs)
		m = par
	default:
		return nil, fmt.Errorf("psme: unknown matcher kind %d", cfg.Matcher)
	}
	e, err := engine.New(p.prog, net, cs, m, cfg.Output)
	if err != nil {
		if par != nil {
			par.Close()
		}
		return nil, err
	}
	if len(cfg.AcceptValues) > 0 {
		// Classic OPS5 semantics: a fixed input script, end-of-file once
		// it runs out (the queue never suspends the run).
		q := engine.NewQueueIO(p.prog.Symbols, true)
		for _, v := range cfg.AcceptValues {
			q.Supply(v.toInternal(p.prog))
		}
		e.IO = q
	}
	return &Engine{inner: e, par: par, cs: cs, matchBudget: cfg.MatchBudget}, nil
}

// Run asserts the program's top-level makes (once) and executes
// recognize-act cycles until halt, exhaustion or the cycle limit.
func (e *Engine) Run(opt RunOptions) (*Result, error) {
	if !e.init {
		if err := e.inner.Init(); err != nil {
			return nil, err
		}
		e.init = true
	}
	r, err := e.inner.Run(engine.Options{
		MaxCycles:    opt.MaxCycles,
		RecordFiring: opt.RecordFiring,
		TraceFires:   opt.TraceFires,
		MatchBudget:  e.matchBudget,
	})
	if err != nil {
		return nil, err
	}
	if !e.cs.Drained() {
		return nil, errors.New("psme: conflict set left parked deletes (matcher bug)")
	}
	return &Result{
		Cycles:    r.Cycles,
		Firings:   r.Firings,
		Halted:    r.Halted,
		WMSize:    r.WMSize,
		Elapsed:   r.Elapsed,
		MatchTime: r.MatchTime,
	}, nil
}

// CheckSlots is the slot-safety oracle: it fails if the matcher's token
// store names a WME slot whose element is no longer in working memory.
// Call it between runs.
func (e *Engine) CheckSlots() error { return e.inner.CheckSlots() }

// WorkingMemory returns the live elements as printable strings.
func (e *Engine) WorkingMemory() []string {
	prog := e.inner.Prog
	var out []string
	for _, w := range e.inner.WM.Snapshot() {
		out = append(out, w.String(prog.Symbols, prog.AttrName))
	}
	return out
}

// ConflictStats returns the conflict set's counters: inserts, deletes,
// annihilations, live/fired/pending sizes and selection rescans.
func (e *Engine) ConflictStats() stats.Conflict { return e.cs.StatsSnapshot() }

// MemStats returns the token table's memory gauges — line count, live
// entries, high-water line depth — and adaptive-resize counters. Zero
// for the Lisp baseline backend, which has no token table.
func (e *Engine) MemStats() stats.Memory {
	if mm, ok := e.inner.Matcher.(interface{ MemStats() stats.Memory }); ok {
		return mm.MemStats()
	}
	return stats.Memory{}
}

// AddRules applies a runtime batch of (p ...) and (excise name) forms
// to the live engine, in source order: each change recompiles the whole
// network and re-matches the live working memory on it, so new
// productions see existing elements and fired instantiations stay fired.
// Redefining a production excises the old definition first. Returns the
// names added and excised. The Lisp baseline matcher does not support
// dynamic changes (engine.ErrDynamicUnsupported).
func (e *Engine) AddRules(src string) (added, excised []string, err error) {
	return e.inner.AddRules(src)
}

// Excise removes one production at runtime: the network is recompiled
// without it and working memory re-matched, so its instantiations go
// and every other production's state is as before.
func (e *Engine) Excise(name string) error { return e.inner.Excise(name) }

// Epoch returns the engine's current network version: 0 after Parse,
// incremented by every AddRules/Excise change.
func (e *Engine) Epoch() int { return e.inner.Epoch() }

// EpochStats returns the accumulated dynamic-change counters.
func (e *Engine) EpochStats() stats.Epoch { return e.inner.EpochStats() }

// NetworkSummary returns size statistics for the engine's current
// network (which diverges from the parsed Program's base network once
// AddRules or Excise have run).
func (e *Engine) NetworkSummary() rete.NetStats { return e.inner.Net.Summarize() }

// MatchStats returns the matcher's counters — working-memory changes,
// node activations and memory-scan statistics. Zero for backends that
// keep no counters.
func (e *Engine) MatchStats() stats.Match {
	if mm, ok := e.inner.Matcher.(interface{ MatchStats() stats.Match }); ok {
		return mm.MatchStats()
	}
	return stats.Match{}
}

// Quarantined returns the rules excised by Config.MatchBudget so far,
// in trip order.
func (e *Engine) Quarantined() []engine.QuarantinedRule { return e.inner.Quarantined() }

// QuarantinedRule re-exports the engine's budget-trip record.
type QuarantinedRule = engine.QuarantinedRule

// Close stops background match goroutines. Safe to call on any engine.
func (e *Engine) Close() {
	if e.par != nil {
		e.par.Close()
		e.par = nil
	}
}

// Value is a public OPS5 value for accept lists.
type Value struct {
	Sym string
	Num int64
	// IsNum selects the numeric interpretation.
	IsNum bool
}

func (v Value) toInternal(p *ops5.Program) wm.Value {
	if v.IsNum {
		return wm.Int(v.Num)
	}
	return wm.Sym(p.Symbols.Intern(v.Sym))
}

// SimConfig configures a run on the simulated Encore Multimax.
type SimConfig struct {
	MatchProcs int
	TaskQueues int
	Locks      LockScheme
	// Pipelined overlaps match with RHS evaluation (§3.1). The paper's
	// parallel columns are pipelined; its uniprocessor baseline is not.
	Pipelined bool
	MaxCycles int
}

// SimResult describes one simulated run.
type SimResult struct {
	Cycles       int
	Halted       bool
	Activations  int64
	MatchSeconds float64 // virtual NS32032 seconds of match time
	// QueueSpinsPerAccess and LineSpinsPerAccess are the paper's
	// contention measures (Tables 4-7 and 4-9).
	QueueSpinsPerAccess float64
	LineSpinsPerAccess  float64
}

// Simulate runs the program on the deterministic Multimax model. The
// match results equal a sequential run; only timing and contention are
// simulated.
func Simulate(p *Program, cfg SimConfig) (*SimResult, error) {
	r, err := multimax.Simulate(p.prog, p.net, multimax.Config{
		Procs:     cfg.MatchProcs,
		Queues:    cfg.TaskQueues,
		Scheme:    cfg.Locks,
		Pipelined: cfg.Pipelined,
		MaxCycles: cfg.MaxCycles,
	})
	if err != nil {
		return nil, err
	}
	costs := multimax.DefaultCosts()
	c := r.Contention
	out := &SimResult{
		Cycles:       r.Cycles,
		Halted:       r.Halted,
		Activations:  r.Activations,
		MatchSeconds: r.MatchSeconds(costs),
	}
	if c.QueueAcquires > 0 {
		out.QueueSpinsPerAccess = float64(c.QueueSpins) / float64(c.QueueAcquires)
	}
	if n := c.LineAcquiresLeft + c.LineAcquiresRight; n > 0 {
		out.LineSpinsPerAccess = float64(c.LineSpinsLeft+c.LineSpinsRight) / float64(n)
	}
	return out, nil
}

// BenchmarkProgram returns the OPS5 source of one of the paper's three
// evaluation programs — "weaver", "rubik" or "tourney" — or the classic
// "monkeys" (monkey-and-bananas) demo. scale 1.0 is the
// paper-comparable size; monkeys ignores scale.
func BenchmarkProgram(name string, scale float64) (string, error) {
	if scale <= 0 {
		scale = 1
	}
	switch name {
	case "monkeys":
		return workload.Monkeys(), nil
	case "weaver":
		n := int(20 * scale)
		if n < 1 {
			n = 1
		}
		return workload.Weaver(n, 9), nil
	case "rubik":
		n := int(60 * scale)
		if n < 1 {
			n = 1
		}
		return workload.Rubik(n), nil
	case "tourney":
		n := int(16 * scale)
		if n < 2 {
			n = 2
		}
		return workload.Tourney(n), nil
	}
	return "", fmt.Errorf("psme: unknown benchmark program %q", name)
}
