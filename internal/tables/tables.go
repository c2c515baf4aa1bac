// Package tables regenerates every table of the paper's evaluation
// (§4, Tables 4-1 through 4-9) from this repository's implementations:
// the sequential matchers supply Tables 4-1..4-4, the Multimax simulator
// supplies the speed-up and contention tables 4-5..4-9. cmd/psmbench
// prints them; testdata/*.golden pins their counts at scale 0.2.
package tables

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/hashmem"
	"repro/internal/lispemu"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/stats"
	"repro/internal/workload"
)

// maxCycles bounds every benchmark run; the workloads halt well before.
const maxCycles = 200000

// Spec is one benchmark program, parsed and compiled once: every run
// of it, sequential, parallel or simulated, shares Prog and Net.
type Spec struct {
	Name string
	Src  string
	Prog *ops5.Program
	Net  *rete.Network
}

// Programs returns the three evaluation programs at scale, from the
// workload registry (workload.Program): 1.0 is roughly the paper's
// workload (Table 4-1's WM-change and node-activation counts), and
// smaller scales shrink them for quick runs.
func Programs(scale float64) ([]Spec, error) {
	var specs []Spec
	for _, name := range []string{"Weaver", "Rubik", "Tourney"} {
		src, err := workload.Program(strings.ToLower(name), scale)
		if err != nil {
			return nil, err
		}
		prog, err := ops5.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("%s: parse: %w", name, err)
		}
		net, err := rete.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("%s: compile: %w", name, err)
		}
		specs = append(specs, Spec{Name: name, Src: src, Prog: prog, Net: net})
	}
	return specs, nil
}

// Table is a rendered result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render formats the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// SeqRun is one instrumented sequential execution.
type SeqRun struct {
	Spec    Spec
	Variant string
	Elapsed time.Duration
	Match   time.Duration
	Rec     *hashmem.Recorder
	Cycles  int
	// Activations counts node activations for every variant: the
	// Recorder supplies it for vs1/vs2, the interpreter itself for lisp.
	Activations int64
	// InterpOps counts the lisp emulator's interpreted work items
	// (dispatches, boxings, predicate applications); zero for the
	// compiled variants. Together with Activations it gives the table
	// tests a deterministic stand-in for the Table 4-4 wall-clock ratio.
	InterpOps int64
}

// RunSeq executes a spec on vs1, vs2 or the lisp emulator and returns
// the instrumented result.
func RunSeq(spec Spec, variant string) (*SeqRun, error) {
	prog, net := spec.Prog, spec.Net
	cs := conflict.NewSet()
	var m engine.Matcher
	var rec *hashmem.Recorder
	var lm *lispemu.Matcher
	switch variant {
	case "vs1":
		sm := seqmatch.New(net, seqmatch.VS1, 0, cs)
		rec = sm.Rec
		m = sm
	case "vs2":
		sm := seqmatch.New(net, seqmatch.VS2, 0, cs)
		rec = sm.Rec
		m = sm
	case "lisp":
		lm = lispemu.New(prog, net, cs)
		m = lm
	default:
		return nil, fmt.Errorf("unknown variant %q", variant)
	}
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := e.Init(); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", spec.Name, variant, err)
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles})
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", spec.Name, variant, err)
	}
	if !res.Halted {
		return nil, fmt.Errorf("%s/%s: run did not halt (%d cycles)", spec.Name, variant, res.Cycles)
	}
	run := &SeqRun{
		Spec:    spec,
		Variant: variant,
		Elapsed: time.Since(start),
		Match:   res.MatchTime,
		Rec:     rec,
		Cycles:  res.Cycles,
	}
	if rec != nil {
		run.Activations = rec.M.Activations
	}
	if lm != nil {
		run.Activations = lm.Activations
		run.InterpOps = lm.Ops
	}
	return run, nil
}

// ParRun is one execution on the real goroutine matcher: the engine
// result plus the matcher's own counters, read after the final drain.
type ParRun struct {
	Res   *engine.Result
	Match stats.Match
	Cont  stats.Contention
}

// RunPar executes a spec on the real goroutine matcher (psmbench -match).
func RunPar(spec Spec, cfg parmatch.Config) (*ParRun, error) {
	cs := conflict.NewSet()
	pm := parmatch.New(spec.Net, cfg, cs)
	defer pm.Close()
	e, err := engine.New(spec.Prog, spec.Net, cs, pm, nil)
	if err != nil {
		return nil, err
	}
	if err := e.Init(); err != nil {
		return nil, err
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles})
	if err != nil {
		return nil, err
	}
	return &ParRun{Res: res, Match: pm.MatchStats(), Cont: pm.Contention()}, nil
}

func secs(d time.Duration) string { return fmt.Sprintf("%.3f", d.Seconds()) }

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

func mean(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
