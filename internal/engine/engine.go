// Package engine runs the OPS5 recognize-act cycle over any matcher
// backend: match, conflict resolution, RHS evaluation (§2.1). It plays
// the role of the paper's control process: it evaluates right-hand
// sides, feeds each working-memory change to the matcher as soon as it
// is computed (so a pipelining matcher can overlap match with RHS
// evaluation), performs conflict resolution, and handles halting.
package engine

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/rhs"
	"repro/internal/stats"
	"repro/internal/wm"
)

// ErrLimit is the sentinel a RunHook wraps (or returns) to stop a run
// because a per-request budget — cycles, wall-clock, anything the caller
// meters — is exhausted. Callers distinguish a budget stop from a real
// failure with errors.Is(err, ErrLimit); the Result returned alongside
// it is still valid and describes the work done before the stop.
var ErrLimit = errors.New("engine: run limit reached")

// RunHook is called at the top of every recognize-act cycle with the
// number of cycles completed so far. A non-nil return stops the run and
// is returned from Run; wrap ErrLimit for budget stops.
type RunHook func(cycles int) error

// errCycleLimit is the cycle-budget stop. A max_cycles-sliced session
// hits it on every batch, so it is built once rather than formatted per
// stop; callers only ever test it with errors.Is(err, ErrLimit).
var errCycleLimit = fmt.Errorf("%w: cycle budget exhausted", ErrLimit)

// LimitHook builds a RunHook enforcing a cycle budget and a deadline.
// maxCycles <= 0 disables the cycle check; a zero deadline disables the
// time check. Both produce errors wrapping ErrLimit.
func LimitHook(maxCycles int, deadline time.Time) RunHook {
	return func(cycles int) error {
		if maxCycles > 0 && cycles >= maxCycles {
			return errCycleLimit
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("%w: deadline exceeded after %d cycles", ErrLimit, cycles)
		}
		return nil
	}
}

// Matcher is the interface every match backend implements.
type Matcher interface {
	// Submit delivers one working-memory change. Sequential matchers
	// process it synchronously; parallel matchers enqueue it for their
	// match processes.
	Submit(sign bool, w *wm.WME)
	// Drain blocks until every submitted change has been fully matched
	// (TaskCount reaching zero, in the paper's terms).
	Drain()
	// CheckInvariants reports internal inconsistencies after a phase
	// (unmatched conjugate pairs and the like).
	CheckInvariants() error
}

// Firing records one production firing, for traces and for the
// cross-matcher equivalence tests.
type Firing struct {
	Cycle    int
	Rule     string
	TimeTags []int
}

// Result summarizes a run.
type Result struct {
	Cycles    int
	Firings   []Firing
	Halted    bool // true: (halt) executed; false: conflict set exhausted
	WMSize    int
	Elapsed   time.Duration // total wall-clock for the run
	MatchTime time.Duration // wall-clock spent inside Submit and Drain
	RHSInstr  int64         // threaded-code instructions interpreted
	// AwaitingInput: the dominant instantiation reads (accept) input the
	// engine's IO cannot supply yet. The run suspended before firing it;
	// supplying input and calling Run again resumes exactly there.
	AwaitingInput bool
}

// Options configure a run.
type Options struct {
	MaxCycles    int  // 0 = unlimited
	RecordFiring bool // keep the firing log (tests); stats are always kept
	TraceFires   bool // print each firing to Out (OPS5 watch 1)
	TraceWMEs    bool // also print each WM change to Out (OPS5 watch 2)
	CheckEvery   bool // run matcher invariant checks after every cycle
	// Hook, when non-nil, runs at the top of every cycle; a non-nil
	// return stops the run (see RunHook and ErrLimit). The inference
	// server uses it to enforce per-request cycle and time budgets on a
	// long-lived session engine.
	Hook RunHook
	// MatchBudget > 0 caps the opposite-memory candidates any one rule's
	// joins may examine in a single cycle. A rule over the cap is
	// quarantined — excised via the dynamic-rule path, reported through
	// Quarantined() — instead of stalling the session (budget.go).
	// Requires a matcher implementing JoinExaminer and Rebinder;
	// inert otherwise.
	MatchBudget int64
}

// Engine executes one program against one matcher.
type Engine struct {
	Prog    *ops5.Program
	Net     *rete.Network
	WM      *wm.Memory
	CS      *conflict.Set
	Matcher Matcher
	Out     io.Writer
	// IO supplies (accept) and (acceptline) input. Nil behaves like an
	// exhausted input stream: always ready, every read yields the symbol
	// end-of-file. Set it before SetJournal so consumption is journaled.
	IO IO
	// WMListener, when non-nil, observes every working-memory change the
	// engine forwards to its matcher (true = assert, false = retract).
	// The server uses it to report per-request WM deltas.
	WMListener func(sign bool, w *wm.WME)

	// compiled holds the right-hand sides of Net's rules, indexed by
	// CompiledRule.Index.
	compiled []*rhs.Compiled
	// rhsEnv is the RHS execution environment (see env).
	rhsEnv *rhs.Env
	// journal, when non-nil, receives every durable event (see Journal in
	// durable.go). Nil during replay and restore.
	journal Journal
	// progDelta lists every runtime program change applied to this engine
	// in canonical form, oldest first (see programChanged): the part of
	// the session's state that separates Net from the compiled program.
	progDelta    []string
	halted       bool
	removed      bool // a removal was submitted since the last drain
	rhsCount     int64
	matchTime    time.Duration
	traceWMEs    bool
	epochStats   stats.Epoch
	rebuildMatch stats.Match
	rebuildConf  stats.Conflict
	// Match-budget state (budget.go): the JoinExamined snapshot the next
	// cycle's deltas are measured against, and the trip log.
	budgetPrev  []int64
	quarantined []QuarantinedRule
}

// traceChange prints a working-memory change when watch-2 tracing is on.
func (e *Engine) traceChange(sign string, w *wm.WME) {
	if !e.traceWMEs || e.Out == nil {
		return
	}
	fmt.Fprintf(e.Out, "%s %d: %s\n", sign, w.TimeTag, w.String(e.Prog.Symbols, e.Prog.AttrName))
}

// submit forwards a change to the matcher, accumulating match time.
func (e *Engine) submit(sign bool, w *wm.WME) {
	if e.journal != nil {
		if sign {
			e.journal.RecordMake(w)
		} else {
			e.journal.RecordRemove(w)
		}
	}
	if e.WMListener != nil {
		e.WMListener(sign, w)
	}
	t0 := time.Now()
	e.Matcher.Submit(sign, w)
	e.matchTime += time.Since(t0)
	e.removed = e.removed || !sign
}

// drain waits out the match phase, accumulating match time. Drained,
// the slots of the elements the phase removed are released — unless the
// matcher reports a lost delete, whose parked token may still name one.
func (e *Engine) drain() {
	t0 := time.Now()
	e.Matcher.Drain()
	e.matchTime += time.Since(t0)
	if e.removed && e.Matcher.CheckInvariants() == nil {
		e.WM.Release()
		e.removed = false
	}
}

// slotUser is implemented by matchers whose tokens are spans of WME
// slots: the engine points them at its working memory's slot table.
type slotUser interface {
	UseSlots(*wm.Slots)
}

// UseSlots points m at slot table s when m resolves tokens through one;
// the engine does it for its working memory's table, and callers that
// submit WMEs built outside a wm.Memory do it for the table they
// assigned those WMEs' slots in.
func UseSlots(m Matcher, s *wm.Slots) {
	if su, ok := m.(slotUser); ok {
		su.UseSlots(s)
	}
}

// New wires an engine, compiling the program's right-hand sides for it.
// The conflict set must be the same sink the matcher's terminals report
// into. The program's (strategy ...) form is resolved to a
// conflict.Strategy enum here, once, so the per-cycle Select never
// compares strategy strings.
func New(prog *ops5.Program, net *rete.Network, cs *conflict.Set, m Matcher, out io.Writer) (*Engine, error) {
	compiled, err := CompileRHS(prog, net)
	if err != nil {
		return nil, err
	}
	return NewWithRHS(prog, net, compiled, cs, m, out)
}

// CompileRHS compiles the right-hand side of every rule of net, indexed
// by CompiledRule.Index, and freezes the program: from here on the class
// tables are read concurrently by matchers and RHS evaluation, so runtime
// parses must not mutate them. The result is read-only and may be handed
// to any number of engines over the same program (NewWithRHS).
func CompileRHS(prog *ops5.Program, net *rete.Network) ([]*rhs.Compiled, error) {
	compiled, err := compileRHS(prog, net)
	if err != nil {
		return nil, err
	}
	prog.Freeze()
	return compiled, nil
}

func compileRHS(prog *ops5.Program, net *rete.Network) ([]*rhs.Compiled, error) {
	compiled := make([]*rhs.Compiled, len(net.Rules))
	for _, cr := range net.Rules {
		c, err := rhs.Compile(prog, cr)
		if err != nil {
			return nil, err
		}
		compiled[cr.Index] = c
	}
	return compiled, nil
}

// NewWithRHS is New over right-hand sides CompileRHS already produced
// for this program and network — a server compiles them once per program,
// not once per session. The slice is shared: a runtime program change
// replaces the engine's slice, never writes into it.
func NewWithRHS(prog *ops5.Program, net *rete.Network, compiled []*rhs.Compiled, cs *conflict.Set, m Matcher, out io.Writer) (*Engine, error) {
	st, err := conflict.ParseStrategy(prog.Strategy)
	if err != nil {
		return nil, err
	}
	cs.UseStrategy(st)
	mem := wm.NewMemory()
	UseSlots(m, mem.Slots())
	return &Engine{
		Prog:     prog,
		Net:      net,
		WM:       mem,
		CS:       cs,
		Matcher:  m,
		Out:      out,
		compiled: compiled,
	}, nil
}

// env returns the engine's RHS execution environment: built on first
// use — its closures capture e, so a fork builds its own — and reused by
// every firing. Out is re-read on each use because its owner may
// swap it between runs (the server points it at each batch's buffer).
func (e *Engine) env() *rhs.Env {
	if e.rhsEnv != nil {
		e.rhsEnv.Out = e.Out
		return e.rhsEnv
	}
	e.rhsEnv = &rhs.Env{
		Prog:       e.Prog,
		Out:        e.Out,
		Accept:     e.acceptOne,
		AcceptLine: e.acceptLine,
		Make: func(fields []wm.Value) {
			w := e.WM.Add(fields)
			e.traceChange("=>WM", w)
			e.submit(true, w)
		},
		Remove: func(w *wm.WME) {
			if e.WM.Remove(w) {
				e.traceChange("<=WM", w)
				e.submit(false, w)
			}
		},
		Modify: func(old *wm.WME, fields []wm.Value) {
			if e.WM.Remove(old) {
				e.traceChange("<=WM", old)
				e.submit(false, old)
			}
			w := e.WM.Add(fields)
			e.traceChange("=>WM", w)
			e.submit(true, w)
		},
		Halt: func() {
			e.halted = true
			if e.journal != nil {
				e.journal.RecordHalt()
			}
		},
	}
	return e.rhsEnv
}

// acceptOne services an (accept): one value from the IO, end-of-file
// when there is none. Values a QueueIO actually consumed are journaled
// as take records so crash recovery replays the same reads.
func (e *Engine) acceptOne() wm.Value {
	if e.IO == nil {
		return wm.Sym(e.Prog.Symbols.Intern("end-of-file"))
	}
	if q, ok := e.IO.(*QueueIO); ok && e.journal != nil {
		before := q.Len()
		v := q.Accept()
		if n := before - q.Len(); n > 0 {
			e.journal.RecordAcceptTake(n)
		}
		return v
	}
	return e.IO.Accept()
}

// acceptLine services an (acceptline), journaling QueueIO consumption
// like acceptOne.
func (e *Engine) acceptLine() []wm.Value {
	if e.IO == nil {
		return []wm.Value{wm.Sym(e.Prog.Symbols.Intern("end-of-file"))}
	}
	if q, ok := e.IO.(*QueueIO); ok && e.journal != nil {
		before := q.Len()
		line := q.AcceptLine()
		if n := before - q.Len(); n > 0 {
			e.journal.RecordAcceptTake(n)
		}
		return line
	}
	return e.IO.AcceptLine()
}

// ioReady reports whether the instantiation's RHS can run without
// blocking on input: its static accept counts are checked against the
// IO. RHSes that read no input are always ready.
func (e *Engine) ioReady(inst *conflict.Instantiation) bool {
	c := e.compiled[inst.Rule.Index]
	if c == nil || (c.Accepts == 0 && c.AcceptLines == 0) {
		return true
	}
	if e.IO == nil {
		return true
	}
	return e.IO.Ready(c.Accepts, c.AcceptLines)
}

// Init asserts the program's top-level makes and completes the first
// match phase.
func (e *Engine) Init() error {
	env := e.env()
	for _, act := range e.Prog.InitialMakes {
		fields, err := MakeFields(e.Prog, act)
		if err != nil {
			return err
		}
		env.Make(fields)
	}
	e.drain()
	return e.Matcher.CheckInvariants()
}

// MakeFields builds the WME fields of a top-level make: the class in
// field 0 and each attribute's ground value (a constant, or compute over
// constants) in its field, widened past the literalized width for
// vector attributes. Init, the REPL's make and the Multimax simulator
// all build top-level makes through it.
func MakeFields(prog *ops5.Program, act *ops5.Action) ([]wm.Value, error) {
	n := prog.ClassOf(act.Class).NumFields()
	for _, s := range act.Sets {
		n = max(n, s.Field+1)
	}
	fields := make([]wm.Value, n)
	fields[0] = wm.Sym(act.Class)
	for _, s := range act.Sets {
		v, err := constExpr(s.Expr)
		if err != nil {
			return nil, fmt.Errorf("top-level make: %w", err)
		}
		fields[s.Field] = v
	}
	return fields, nil
}

// constExpr evaluates a ground expression (constants and compute over
// constants), the only forms legal in top-level makes.
func constExpr(ex *ops5.Expr) (wm.Value, error) {
	switch ex.Kind {
	case ops5.ExprConst:
		return ex.Const, nil
	case ops5.ExprCompute:
		l, err := constExpr(ex.L)
		if err != nil {
			return wm.Nil, err
		}
		r, err := constExpr(ex.R)
		if err != nil {
			return wm.Nil, err
		}
		return rhs.ComputeOp(ex.Op, l, r)
	default:
		return wm.Nil, fmt.Errorf("non-constant expression")
	}
}

// Run executes recognize-act cycles until halt, conflict-set
// exhaustion, or the cycle limit.
func (e *Engine) Run(opt Options) (*Result, error) {
	res := &Result{}
	e.traceWMEs = opt.TraceWMEs
	start := time.Now()
	if opt.MatchBudget > 0 {
		e.snapshotBudget()
	}
	for !e.halted {
		if opt.MaxCycles > 0 && res.Cycles >= opt.MaxCycles {
			break
		}
		if opt.Hook != nil {
			if err := opt.Hook(res.Cycles); err != nil {
				e.finish(res, start)
				return res, err
			}
		}
		inst := e.CS.Select()
		if inst == nil {
			break
		}
		if !e.ioReady(inst) {
			// Select is a non-popping peek, so suspending here leaves the
			// dominant instantiation in place: supplying input and calling
			// Run again fires it as if the run had never paused.
			res.AwaitingInput = true
			break
		}
		e.CS.MarkFired(inst)
		if e.journal != nil {
			// Journaled before the RHS runs so replay marks the firing at
			// exactly this conflict-set state, ahead of its own WM changes.
			e.journal.RecordFire(inst.Rule.Rule.Name, tags(inst.Wmes))
		}
		res.Cycles++
		if opt.RecordFiring || opt.TraceFires {
			f := Firing{Cycle: res.Cycles, Rule: inst.Rule.Rule.Name, TimeTags: tags(inst.Wmes)}
			if opt.RecordFiring {
				res.Firings = append(res.Firings, f)
			}
			if opt.TraceFires && e.Out != nil {
				fmt.Fprintf(e.Out, "%d. %s %v\n", f.Cycle, f.Rule, f.TimeTags)
			}
		}
		n, err := rhs.Exec(e.compiled[inst.Rule.Index], inst.Wmes, e.env())
		if err != nil {
			return res, err
		}
		e.rhsCount += int64(n)
		e.drain()
		if opt.CheckEvery {
			if err := e.Matcher.CheckInvariants(); err != nil {
				return res, fmt.Errorf("cycle %d: %w", res.Cycles, err)
			}
		}
		if opt.MatchBudget > 0 {
			if err := e.enforceBudget(opt.MatchBudget, res.Cycles); err != nil {
				return res, err
			}
		}
	}
	if err := e.Matcher.CheckInvariants(); err != nil {
		return res, err
	}
	e.finish(res, start)
	return res, nil
}

// finish fills the summary fields of a Result.
func (e *Engine) finish(res *Result, start time.Time) {
	res.Halted = e.halted
	res.WMSize = e.WM.Len()
	res.Elapsed = time.Since(start)
	res.MatchTime = e.matchTime
	res.RHSInstr = e.rhsCount
}

// Assert adds a working-memory element from outside the recognize-act
// loop (the OPS5 top-level make) and completes the match phase.
func (e *Engine) Assert(fields []wm.Value) (*wm.WME, error) {
	w := e.WM.Add(fields)
	e.submit(true, w)
	e.drain()
	return w, e.Matcher.CheckInvariants()
}

// AssertBatch adds several working-memory elements, submitting every
// change to the matcher before a single drain — one match phase for the
// whole batch, so a pipelining matcher overlaps the entire batch. This
// is the server's request-batching primitive.
func (e *Engine) AssertBatch(batch [][]wm.Value) ([]*wm.WME, error) {
	out := make([]*wm.WME, 0, len(batch))
	for _, fields := range batch {
		w := e.WM.Add(fields)
		e.submit(true, w)
		out = append(out, w)
	}
	e.drain()
	return out, e.Matcher.CheckInvariants()
}

// RetractBatch removes the elements with the given time tags,
// submitting every change before a single drain. It returns the tags
// that named live elements; unknown or duplicate tags are skipped.
func (e *Engine) RetractBatch(tags []int) ([]int, error) {
	removed := make([]int, 0, len(tags))
	if len(tags) > 0 {
		for _, tag := range tags {
			if w := e.WM.Get(tag); w != nil && e.WM.Remove(w) {
				e.submit(false, w)
				removed = append(removed, tag)
			}
		}
		e.drain()
	}
	return removed, e.Matcher.CheckInvariants()
}

// Retract removes the element with the given time tag (the OPS5
// top-level remove) and completes the match phase. It reports whether
// the tag named a live element.
func (e *Engine) Retract(timeTag int) (bool, error) {
	if w := e.WM.Get(timeTag); w != nil && e.WM.Remove(w) {
		e.submit(false, w)
		e.drain()
		return true, e.Matcher.CheckInvariants()
	}
	return false, nil
}

// Halted reports whether a (halt) action has stopped the engine.
func (e *Engine) Halted() bool { return e.halted }

func tags(wmes []*wm.WME) []int {
	out := make([]int, len(wmes))
	for i, w := range wmes {
		out[i] = w.TimeTag
	}
	return out
}
