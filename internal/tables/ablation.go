package tables

import (
	"fmt"

	"repro/internal/multimax"
	"repro/internal/parmatch"
)

// paperBest is the paper's best configuration: 1+13 processes, 8 queues,
// simple locks, pipelined.
var paperBest = pipelined(13, 8, parmatch.SchemeSimple)

// AblationRow is one design-variation measurement at 1+13 processes.
type AblationRow struct {
	Label   string
	Config  multimax.Config
	Speedup map[string]float64 // per program
}

// RunAblations measures the design choices DESIGN.md calls out, all at
// 1+13 match processes against the non-pipelined single-process
// baseline: the paper's best configuration, the hardware task scheduler
// the paper proposed but never built (§3.2), FIFO scheduling, no
// pipelining, starved hash tables, and the MRSW locks. The base and
// the rows Tables 4-5, 4-6 and 4-8 already hold are read from sr, not
// re-simulated.
func RunAblations(sr *SimResults) ([]AblationRow, error) {
	rows := []AblationRow{
		{Label: "8 queues, simple locks (paper best)", Config: paperBest},
		{Label: "hardware task scheduler (Gupta's proposal)", Config: multimax.Config{
			Procs: 13, Hardware: true, Scheme: parmatch.SchemeSimple, Pipelined: true}},
		{Label: "8 queues, FIFO instead of LIFO", Config: multimax.Config{
			Procs: 13, Queues: 8, Scheme: parmatch.SchemeSimple, Pipelined: true, FIFO: true}},
		{Label: "single queue (the paper's bottleneck)", Config: pipelined(13, 1, parmatch.SchemeSimple)},
		{Label: "no RHS/match pipelining", Config: multimax.Config{
			Procs: 13, Queues: 8, Scheme: parmatch.SchemeSimple}},
		{Label: "starved hash tables (64 lines)", Config: multimax.Config{
			Procs: 13, Queues: 8, Lines: 64, Scheme: parmatch.SchemeSimple, Pipelined: true}},
		{Label: "MRSW line locks", Config: pipelined(13, 8, parmatch.SchemeMRSW)},
	}
	for i := range rows {
		rows[i].Speedup = map[string]float64{}
	}
	for _, spec := range sr.Specs {
		base, err := sr.sim(spec, baseSimple)
		if err != nil {
			return nil, err
		}
		for i := range rows {
			r, err := sr.sim(spec, rows[i].Config)
			if err != nil {
				return nil, fmt.Errorf("%s / %s: %w", spec.Name, rows[i].Label, err)
			}
			rows[i].Speedup[spec.Name] = float64(base.MatchInstr) / float64(r.MatchInstr)
		}
	}
	return rows, nil
}

// ControlOverlapTable measures the first optimization of the paper's
// footnote 3 — conflict resolution overlapped with the match wait — on
// total run time (match speed-up is unaffected; the win is on the
// control process's critical path). The baseline is Table 4-6's 1+13/8Q
// cell, read from sr.
func ControlOverlapTable(sr *SimResults) (*Table, error) {
	t := &Table{
		ID:     "A-2",
		Title:  "Overlapped conflict resolution (paper footnote 3): total virtual seconds at 1+13/8Q",
		Header: []string{"PROGRAM", "baseline (s)", "overlapped CR (s)", "saved"},
	}
	costs := multimax.DefaultCosts()
	overlapped := paperBest
	overlapped.OverlapCR = true
	for _, spec := range sr.Specs {
		base, err := sr.sim(spec, paperBest)
		if err != nil {
			return nil, err
		}
		over, err := sr.sim(spec, overlapped)
		if err != nil {
			return nil, err
		}
		saved := float64(base.TotalInstr-over.TotalInstr) / float64(base.TotalInstr) * 100
		t.Rows = append(t.Rows, []string{
			spec.Name,
			f2(costs.Seconds(base.TotalInstr)),
			f2(costs.Seconds(over.TotalInstr)),
			fmt.Sprintf("%.1f%%", saved),
		})
	}
	return t, nil
}

// AblationTable renders the ablation results.
func AblationTable(specs []Spec, rows []AblationRow) *Table {
	t := &Table{
		ID:     "A-1",
		Title:  "Design-choice ablations, speed-up at 1+13 processes (simulated Multimax)",
		Header: []string{"CONFIGURATION"},
	}
	for _, s := range specs {
		t.Header = append(t.Header, s.Name)
	}
	for _, row := range rows {
		cells := []string{row.Label}
		for _, s := range specs {
			cells = append(cells, f2(row.Speedup[s.Name]))
		}
		t.Rows = append(t.Rows, cells)
	}
	return t
}
