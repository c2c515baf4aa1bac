// RunJoinBench drives the adversarial join kernels recorded in
// BENCH_join.json: the skewed-value join (what cost-based reordering
// fixes), the no-equality-test cross product (what the match budget
// contains). Every point is counter-based — opposite-memory candidates
// examined, budget trips — so the interesting numbers are
// deterministic for a fixed kernel size and gate cleanly in
// benchsmoke_test.go.
package tables

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/workload"
)

// JoinBenchOptions configures RunJoinBench.
type JoinBenchOptions struct {
	Procs []int // parallel proc counts to sweep (default 1,2,4)
	// Modes restricts the join-order sweep: "planned", "source", or both
	// (the default).
	Modes []string
	// SkewItems sizes the skew kernel (parts = items/2; default 64).
	// SkewTicks is the number of conf modifications (default 40).
	SkewItems int
	SkewTicks int
	// CrossObjs sizes the cross-product kernel (default 24 objs);
	// CrossTicks probes (default 30); CrossBudget the per-cycle match
	// budget of the contained runs (default 300 — below one probe's
	// objs^2 scan).
	CrossObjs   int
	CrossTicks  int
	CrossBudget int64
}

func (o *JoinBenchOptions) fill() {
	if len(o.Procs) == 0 {
		o.Procs = []int{1, 2, 4}
	}
	if len(o.Modes) == 0 {
		o.Modes = []string{"planned", "source"}
	}
	if o.SkewItems <= 0 {
		o.SkewItems = 64
	}
	if o.SkewTicks <= 0 {
		o.SkewTicks = 40
	}
	if o.CrossObjs <= 0 {
		o.CrossObjs = 24
	}
	if o.CrossTicks <= 0 {
		o.CrossTicks = 30
	}
	if o.CrossBudget <= 0 {
		o.CrossBudget = 300
	}
}

// JoinPoint is one kernel execution. OppExamined is the sum of
// opposite-memory candidates examined across every live join —
// the planner's object function, and the quantity the skew gate
// ratios between modes.
type JoinPoint struct {
	Kernel  string `json:"kernel"`
	Mode    string `json:"mode"`    // "planned" or "source" join order
	Backend string `json:"backend"` // "vs2" or "parallel"
	Procs   int    `json:"procs,omitempty"`
	Budget  int64  `json:"budget,omitempty"`

	Seconds     float64  `json:"seconds"`
	Cycles      int      `json:"cycles"`
	Firings     int      `json:"firings"`
	OppExamined int64    `json:"opp_examined"`
	Activations int64    `json:"activations"`
	BudgetTrips int64    `json:"budget_trips,omitempty"`
	Quarantined []string `json:"quarantined,omitempty"`
	// Oversubscribed: see MatchWorkloadPoint.
	Oversubscribed bool `json:"oversubscribed,omitempty"`
}

// JoinBenchReport is the BENCH_join.json payload. The derived ratios
// are computed from the sequential points (deterministic counters):
// SkewGain is source/planned opposite-memory candidates on the skew
// kernel, CrossContainment is unbudgeted/budgeted candidates on the
// cross kernel.
type JoinBenchReport struct {
	HostCPUs         int         `json:"host_cpus"`
	SkewGain         float64     `json:"skew_gain"`
	CrossContainment float64     `json:"cross_containment"`
	Points           []JoinPoint `json:"points"`
}

// joinRunConfig is one execution request against a kernel source.
type joinRunConfig struct {
	mode   string // "planned" or "source"
	procs  int    // 0 = sequential vs2
	budget int64
}

// runJoinKernel compiles src in the requested join order and executes
// it to completion on the requested backend.
func runJoinKernel(kernel, src string, rc joinRunConfig) (*JoinPoint, error) {
	spec := Spec{Name: kernel, Src: src}
	prog, _, err := compile(spec)
	if err != nil {
		return nil, err
	}
	var net *rete.Network
	if rc.mode == "planned" {
		net, err = rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	} else {
		net, err = rete.Compile(prog)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: compile (%s): %w", kernel, rc.mode, err)
	}

	pt := &JoinPoint{
		Kernel: kernel, Mode: rc.mode, Backend: "vs2", Budget: rc.budget,
	}
	var (
		examined func() []int64
		acts     func() int64
	)
	if rc.procs <= 0 {
		cs := conflict.NewSet()
		sm := seqmatch.New(net, seqmatch.VS2, 0, cs)
		examined = sm.JoinExamined
		acts = func() int64 { return sm.MatchStats().Activations }
		e, err := engine.New(prog, net, cs, sm, nil)
		if err != nil {
			return nil, err
		}
		return finishJoinRun(pt, e, rc, examined, acts)
	}

	pt.Backend = "parallel"
	pt.Procs = rc.procs
	pt.Oversubscribed = rc.procs > runtime.NumCPU()
	cs := conflict.NewSet()
	pm := parmatch.New(net, parmatch.Config{
		Procs: rc.procs, Queues: 4, Scheme: parmatch.SchemeSimple,
	}, cs)
	defer pm.Close()
	examined = pm.JoinExamined
	acts = func() int64 { return pm.MatchStats().Activations }
	e, err := engine.New(prog, net, cs, pm, nil)
	if err != nil {
		return nil, err
	}
	return finishJoinRun(pt, e, rc, examined, acts)
}

func finishJoinRun(pt *JoinPoint, e *engine.Engine, rc joinRunConfig,
	examined func() []int64, acts func() int64) (*JoinPoint, error) {
	start := time.Now()
	if err := e.Init(); err != nil {
		return nil, fmt.Errorf("%s/%s: init: %w", pt.Kernel, pt.Mode, err)
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles, MatchBudget: rc.budget, RecordFiring: true})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", pt.Kernel, pt.Mode, err)
	}
	if !res.Halted {
		return nil, fmt.Errorf("%s/%s: run did not halt (%d cycles)", pt.Kernel, pt.Mode, res.Cycles)
	}
	pt.Seconds = time.Since(start).Seconds()
	pt.Cycles = res.Cycles
	pt.Firings = len(res.Firings)
	for _, n := range examined() {
		pt.OppExamined += n
	}
	pt.Activations = acts()
	pt.BudgetTrips = e.EpochStats().BudgetTrips
	for _, q := range e.Quarantined() {
		pt.Quarantined = append(pt.Quarantined, q.Rule)
	}
	return pt, nil
}

// RunJoinBench runs the full join-kernel sweep.
func RunJoinBench(opt JoinBenchOptions) (*JoinBenchReport, error) {
	opt.fill()
	rep := &JoinBenchReport{HostCPUs: runtime.NumCPU()}
	add := func(kernel, src string, rc joinRunConfig) (*JoinPoint, error) {
		pt, err := runJoinKernel(kernel, src, rc)
		if err != nil {
			return nil, err
		}
		rep.Points = append(rep.Points, *pt)
		return pt, nil
	}

	// Skew: the join-order sweep. Firing traces must agree between
	// modes — reordering is an optimization, never a semantic change.
	skew := workload.SkewJoin(opt.SkewItems, opt.SkewTicks)
	seqExamined := map[string]int64{}
	seqFirings := map[string]int{}
	for _, mode := range opt.Modes {
		pt, err := add("skew", skew, joinRunConfig{mode: mode})
		if err != nil {
			return nil, err
		}
		seqExamined[mode] = pt.OppExamined
		seqFirings[mode] = pt.Firings
		for _, p := range opt.Procs {
			if _, err := add("skew", skew, joinRunConfig{mode: mode, procs: p}); err != nil {
				return nil, err
			}
		}
	}
	if len(opt.Modes) == 2 {
		if seqFirings["planned"] != seqFirings["source"] {
			return nil, fmt.Errorf("skew: planned fired %d, source %d — reordering changed the computation",
				seqFirings["planned"], seqFirings["source"])
		}
		if p := seqExamined["planned"]; p > 0 {
			rep.SkewGain = float64(seqExamined["source"]) / float64(p)
		}
	}

	// Cross product: unbudgeted vs contained. The planner cannot help
	// (no order fixes a cross product), so the mode is source for both.
	cross := workload.CrossProduct(opt.CrossObjs, opt.CrossTicks)
	free, err := add("crossprod", cross, joinRunConfig{mode: "source"})
	if err != nil {
		return nil, err
	}
	capped, err := add("crossprod", cross, joinRunConfig{mode: "source", budget: opt.CrossBudget})
	if err != nil {
		return nil, err
	}
	for _, p := range opt.Procs {
		if _, err := add("crossprod", cross, joinRunConfig{mode: "source", procs: p, budget: opt.CrossBudget}); err != nil {
			return nil, err
		}
	}
	if capped.OppExamined > 0 {
		rep.CrossContainment = float64(free.OppExamined) / float64(capped.OppExamined)
	}
	return rep, nil
}
