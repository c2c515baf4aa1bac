package multimax

import (
	"fmt"
	"sort"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/rhs"
	"repro/internal/stats"
	"repro/internal/wm"
)

// Config describes one simulated machine configuration.
type Config struct {
	Procs     int             // match processes (the k of "1+k")
	Queues    int             // task queues
	Lines     int             // hash-table lines (0 = 16384)
	Scheme    parmatch.Scheme // line-lock scheme
	Pipelined bool            // overlap match with RHS evaluation (§3.1)
	// Hardware models the hardware task scheduler Gupta proposed and the
	// paper did not build (§3.2): constant-time, contention-free task
	// dispatch through a single central queue. Queues is ignored.
	Hardware bool
	// FIFO pops tasks oldest-first instead of the paper's LIFO stacks —
	// a scheduling-discipline ablation.
	FIFO bool
	// OverlapCR models the first optimization of the paper's footnote 3:
	// conflict resolution performed incrementally while the control
	// process waits for match to finish, so only the part exceeding the
	// wait is charged to the cycle.
	OverlapCR bool
	MaxCycles int   // 0 = unlimited
	Costs     Costs // zero value = DefaultCosts
}

// Result is the outcome of one simulated run.
type Result struct {
	Cycles      int
	Halted      bool
	WMSize      int
	Activations int64 // tasks processed (excludes MRSW requeues)

	MatchInstr int64 // Σ per cycle (phase end − RHS end): the match time
	TotalInstr int64 // control-process clock at the end of the run
	RHSInstr   int64 // threaded-code instructions interpreted

	Contention stats.Contention
	FiringLog  []string // "rule@cycle", for equivalence tests
	// LineProfile lists the most contended hash-table lines with the
	// nodes (and their productions) that hit them — the simulator's
	// version of the paper's culprit-production analysis.
	LineProfile []LineContention
}

// LineContention describes one contended hash-table line.
type LineContention struct {
	Line     int
	Acquires int64
	Spins    int64
	Hold     int64 // total instructions the line lock was held
	MaxHold  int64 // longest single hold
	Rules    []string
}

// MatchSeconds converts the match time to virtual seconds.
func (r *Result) MatchSeconds(c Costs) float64 { return c.Seconds(r.MatchInstr) }

// Simulate runs a whole program on the virtual Multimax and returns the
// timing and contention results. The match results themselves (firing
// sequence, final working memory) are identical to the sequential
// matcher's — the simulation only decides *when* things happen.
func Simulate(prog *ops5.Program, net *rete.Network, cfg Config) (*Result, error) {
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	st, err := conflict.ParseStrategy(prog.Strategy)
	if err != nil {
		return nil, err
	}
	// The simulator is single-threaded; one stripe keeps Select trivial.
	cs := conflict.New(conflict.Config{Strategy: st})
	mem := wm.NewMemory()
	s := newSim(cfg, net, cs, mem.Slots())
	res := &Result{}

	compiled := make([]*rhs.Compiled, len(net.Rules))
	for i, cr := range net.Rules {
		c, err := rhs.Compile(prog, cr)
		if err != nil {
			return nil, err
		}
		compiled[i] = c
	}

	// Control-process clock.
	var now int64
	halted := false

	// pending collects the WM changes of the current RHS evaluation.
	var pending []pushEvent
	env := &rhs.Env{
		Prog:   prog,
		Accept: func() wm.Value { return wm.Sym(prog.Symbols.Intern("end-of-file")) },
		Make: func(fields []wm.Value) {
			w := mem.Add(fields)
			pending = append(pending, pushEvent{sign: true, wme: w})
		},
		Remove: func(w *wm.WME) {
			if mem.Remove(w) {
				pending = append(pending, pushEvent{sign: false, wme: w})
			}
		},
		Modify: func(old *wm.WME, fields []wm.Value) {
			if mem.Remove(old) {
				pending = append(pending, pushEvent{sign: false, wme: old})
			}
			w := mem.Add(fields)
			pending = append(pending, pushEvent{sign: true, wme: w})
		},
		Halt: func() { halted = true },
	}

	// matchTail is the control process's wait at the end of the previous
	// phase; with OverlapCR it absorbs conflict-resolution work.
	var matchTail int64

	// runMatch distributes the pending pushes over [rhsStart, rhsEnd]
	// (pipelined) or serially at rhsEnd (baseline), simulates the phase
	// and accounts match time as phase end minus RHS end.
	runMatch := func(rhsStart, rhsEnd int64) {
		n := int64(len(pending))
		for i := range pending {
			if cfg.Pipelined && rhsEnd > rhsStart {
				pending[i].at = rhsStart + cfg.Costs.FirstPush + (rhsEnd-rhsStart)*int64(i)/n
			} else {
				pending[i].at = rhsEnd
			}
		}
		phaseEnd := s.runPhase(pending, rhsEnd)
		pending = pending[:0]
		// Drained: the phase's tokens are dead, and so are the slots of
		// the elements it removed, unless a delete was lost.
		s.pools.ResetTokens()
		if s.table.CheckDrained() == nil {
			mem.Release()
		}
		matchTail = 0
		if phaseEnd > rhsEnd {
			matchTail = phaseEnd - rhsEnd
			res.MatchInstr += matchTail
		}
		now = rhsEnd
		if phaseEnd > now {
			now = phaseEnd
		}
	}

	// Initial makes: charged like one RHS evaluation.
	for _, act := range prog.InitialMakes {
		fields, err := engine.MakeFields(prog, act)
		if err != nil {
			return nil, err
		}
		env.Make(fields)
	}
	rhsEnd := now + int64(len(pending))*cfg.Costs.RHSInstr
	runMatch(now, rhsEnd)

	for !halted {
		if cfg.MaxCycles > 0 && res.Cycles >= cfg.MaxCycles {
			break
		}
		csChanges := cs.Inserts() + cs.Deletes()
		inst := cs.Select()
		if inst == nil {
			break
		}
		cs.MarkFired(inst)
		res.Cycles++
		res.FiringLog = append(res.FiringLog, fmt.Sprintf("%s@%d", inst.Rule.Rule.Name, res.Cycles))
		crCost := cfg.Costs.CRBase + cfg.Costs.CRChange*(cs.Inserts()+cs.Deletes()-csChanges)
		if cfg.OverlapCR {
			// Conflict resolution ran incrementally during the match
			// wait; only the excess shows up on the critical path.
			crCost -= matchTail
			if crCost < 0 {
				crCost = 0
			}
		}
		now += crCost

		n, err := rhs.Exec(compiled[inst.Rule.Index], inst.Wmes, env)
		if err != nil {
			return nil, err
		}
		res.RHSInstr += int64(n)
		rhsStart := now
		rhsEnd := now + int64(n)*cfg.Costs.RHSInstr
		runMatch(rhsStart, rhsEnd)
	}

	if err := s.table.CheckDrained(); err != nil {
		return nil, err
	}
	if !cs.Drained() {
		return nil, fmt.Errorf("multimax: conflict set has parked deletes")
	}
	res.Halted = halted
	res.WMSize = mem.Len()
	res.TotalInstr = now
	res.Activations = s.activations
	res.Contention = stats.Contention{
		QueueAcquires:     s.queueAcquires,
		QueueSpins:        s.queueSpins,
		LineAcquiresLeft:  s.lineAcqLeft,
		LineSpinsLeft:     s.lineSpinsLeft,
		LineAcquiresRight: s.lineAcqRight,
		LineSpinsRight:    s.lineSpinsRight,
		Requeues:          s.requeues,
	}
	res.LineProfile = s.lineProfile(net, 10)
	return res, nil
}

// lineProfile extracts the top-n most contended lines.
func (s *sim) lineProfile(net *rete.Network, n int) []LineContention {
	var out []LineContention
	for i := range s.lineAcqN {
		if s.lineSpinN[i] == 0 {
			continue
		}
		lc := LineContention{Line: i, Acquires: s.lineAcqN[i], Spins: s.lineSpinN[i], Hold: s.lineHoldN[i], MaxHold: s.lineMaxHold[i]}
		seen := map[string]bool{}
		for nodeID := range s.lineNodes[i] {
			for _, name := range net.RuleNamesOf(net.Joins[nodeID]) {
				if !seen[name] {
					seen[name] = true
					lc.Rules = append(lc.Rules, name)
				}
			}
		}
		sort.Strings(lc.Rules)
		out = append(out, lc)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Spins > out[b].Spins })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
