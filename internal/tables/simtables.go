package tables

import (
	"fmt"

	"repro/internal/multimax"
	"repro/internal/parmatch"
	"repro/internal/rete"
)

// ProcCols are the paper's match-process counts (the k of "1+k").
var ProcCols = []int{1, 3, 5, 7, 11, 13}

// QueueCols are the task-queue counts paired with ProcCols in Tables
// 4-6 and 4-8.
var QueueCols = []int{1, 2, 4, 8, 8, 8}

// ContProcs are the process counts of the contention Table 4-9.
var ContProcs = []int{6, 12}

// SimResults is the simulation grid Tables 4-5..4-9, A-1 and A-2 are
// views over: each distinct configuration of each program is simulated
// once, on the program's one compiled network, whichever tables read it.
type SimResults struct {
	Specs []Spec
	// BaseSimple and BaseMRSW are the non-pipelined single-match-process
	// runs whose match time is each table's "uniproc execution time"
	// column (the paper's §4.2 baseline; MRSW has its own because the
	// complex locks slow the one-process case down, Table 4-8).
	BaseSimple map[string]*multimax.Result
	BaseMRSW   map[string]*multimax.Result
	// Simple1Q[name][i] is the pipelined run with ProcCols[i] match
	// processes and a single queue (Tables 4-5, 4-7).
	Simple1Q map[string][]*multimax.Result
	// SimpleMQ and MRSWMQ pair ProcCols[i] with QueueCols[i] (4-6, 4-8).
	SimpleMQ map[string][]*multimax.Result
	MRSWMQ   map[string][]*multimax.Result
	// ContSimple/ContMRSW are 8-queue runs at ContProcs (Table 4-9).
	ContSimple map[string][]*multimax.Result
	ContMRSW   map[string][]*multimax.Result

	runs map[simKey]*multimax.Result
}

// simKey names one simulation: a compiled program under one machine
// configuration.
type simKey struct {
	net *rete.Network
	cfg multimax.Config
}

// baseSimple is the paper's §4.2 baseline: one match process, one queue,
// simple locks, no pipelining.
var baseSimple = multimax.Config{Procs: 1, Queues: 1, Scheme: parmatch.SchemeSimple}

// pipelined is a pipelined configuration with procs match processes.
func pipelined(procs, queues int, scheme parmatch.Scheme) multimax.Config {
	return multimax.Config{Procs: procs, Queues: queues, Scheme: scheme, Pipelined: true}
}

// NewSimGrid returns an empty grid over specs; RunSimAll fills the
// cells Tables 4-5..4-9 read, and RunAblations and ControlOverlapTable
// add theirs.
func NewSimGrid(specs []Spec) *SimResults {
	return &SimResults{
		Specs:      specs,
		BaseSimple: map[string]*multimax.Result{},
		BaseMRSW:   map[string]*multimax.Result{},
		Simple1Q:   map[string][]*multimax.Result{},
		SimpleMQ:   map[string][]*multimax.Result{},
		MRSWMQ:     map[string][]*multimax.Result{},
		ContSimple: map[string][]*multimax.Result{},
		ContMRSW:   map[string][]*multimax.Result{},
		runs:       map[simKey]*multimax.Result{},
	}
}

// sim returns spec's run under cfg, simulating it on first use.
func (sr *SimResults) sim(spec Spec, cfg multimax.Config) (*multimax.Result, error) {
	key := simKey{spec.Net, cfg}
	if r := sr.runs[key]; r != nil {
		return r, nil
	}
	cfg.MaxCycles = maxCycles
	r, err := multimax.Simulate(spec.Prog, spec.Net, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: simulate: %w", spec.Name, err)
	}
	if !r.Halted {
		return nil, fmt.Errorf("%s: simulation did not halt (%d cycles)", spec.Name, r.Cycles)
	}
	sr.runs[key] = r
	return r, nil
}

// RunSimAll simulates every cell of Tables 4-5..4-9.
func RunSimAll(specs []Spec) (*SimResults, error) {
	sr := NewSimGrid(specs)
	for _, spec := range specs {
		var err error
		run := func(cfg multimax.Config) *multimax.Result {
			var r *multimax.Result
			if err == nil {
				r, err = sr.sim(spec, cfg)
			}
			return r
		}
		n := spec.Name
		sr.BaseSimple[n] = run(baseSimple)
		sr.BaseMRSW[n] = run(multimax.Config{Procs: 1, Queues: 1, Scheme: parmatch.SchemeMRSW})
		for i, procs := range ProcCols {
			sr.Simple1Q[n] = append(sr.Simple1Q[n], run(pipelined(procs, 1, parmatch.SchemeSimple)))
			sr.SimpleMQ[n] = append(sr.SimpleMQ[n], run(pipelined(procs, QueueCols[i], parmatch.SchemeSimple)))
			sr.MRSWMQ[n] = append(sr.MRSWMQ[n], run(pipelined(procs, QueueCols[i], parmatch.SchemeMRSW)))
		}
		for _, procs := range ContProcs {
			sr.ContSimple[n] = append(sr.ContSimple[n], run(pipelined(procs, 8, parmatch.SchemeSimple)))
			sr.ContMRSW[n] = append(sr.ContMRSW[n], run(pipelined(procs, 8, parmatch.SchemeMRSW)))
		}
		if err != nil {
			return nil, err
		}
	}
	return sr, nil
}

func speedupTable(id, title string, specs []Spec, base map[string]*multimax.Result,
	cells map[string][]*multimax.Result, queues []int) *Table {
	header := []string{"PROGRAM", "Uniproc (s)"}
	for i, p := range ProcCols {
		q := 1
		if queues != nil {
			q = queues[i]
		}
		header = append(header, fmt.Sprintf("1+%d/%dQ", p, q))
	}
	t := &Table{ID: id, Title: title, Header: header}
	costs := multimax.DefaultCosts()
	for _, spec := range specs {
		b := base[spec.Name]
		row := []string{spec.Name, f1(b.MatchSeconds(costs))}
		for _, r := range cells[spec.Name] {
			row = append(row, f2(float64(b.MatchInstr)/float64(r.MatchInstr)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table45 reproduces Table 4-5: speed-up with a single task queue and
// simple hash-table locks.
func Table45(sr *SimResults) *Table {
	ones := make([]int, len(ProcCols))
	for i := range ones {
		ones[i] = 1
	}
	return speedupTable("4-5", "Speed-up for single task queue and simple hash-table locks (simulated Multimax)",
		sr.Specs, sr.BaseSimple, sr.Simple1Q, ones)
}

// Table46 reproduces Table 4-6: speed-up with multiple task queues and
// simple hash-table locks.
func Table46(sr *SimResults) *Table {
	return speedupTable("4-6", "Speed-up for multiple task queues and simple hash-table locks (simulated Multimax)",
		sr.Specs, sr.BaseSimple, sr.SimpleMQ, QueueCols)
}

// Table47 reproduces Table 4-7: contention for the centralized task
// queue — mean spins before a process gets access.
func Table47(sr *SimResults) *Table {
	header := []string{"PROGRAM"}
	for _, p := range ProcCols {
		header = append(header, fmt.Sprintf("1+%d/1Q", p))
	}
	// The paper reports in-text that the 13-process contention drops to
	// ~5-6 with eight queues; the last column reproduces that remark.
	header = append(header, "1+13/8Q")
	t := &Table{
		ID:     "4-7",
		Title:  "Contention for the centralized task queue (spins before access)",
		Header: header,
	}
	for _, spec := range sr.Specs {
		row := []string{spec.Name}
		for _, r := range sr.Simple1Q[spec.Name] {
			c := r.Contention
			row = append(row, f2(mean(c.QueueSpins, c.QueueAcquires)))
		}
		mq := sr.SimpleMQ[spec.Name]
		c := mq[len(mq)-1].Contention
		row = append(row, f2(mean(c.QueueSpins, c.QueueAcquires)))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table48 reproduces Table 4-8: speed-up with multiple task queues and
// multiple-reader-single-writer hash-table locks.
func Table48(sr *SimResults) *Table {
	return speedupTable("4-8", "Speed-up for multiple task queues and MRSW hash-table locks (simulated Multimax)",
		sr.Specs, sr.BaseMRSW, sr.MRSWMQ, QueueCols)
}

// Table49 reproduces Table 4-9: contention for the token hash-table
// lines — mean spins before access, by activation side, simple vs MRSW
// locks at 6 and 12 match processes.
func Table49(sr *SimResults) *Table {
	header := []string{"PROGRAM",
		"simple 6p left", "simple 6p right", "simple 12p left", "simple 12p right",
		"mrsw 6p left", "mrsw 6p right", "mrsw 12p left", "mrsw 12p right"}
	t := &Table{
		ID:     "4-9",
		Title:  "Contention for token hash-table locks (spins before access)",
		Header: header,
	}
	for _, spec := range sr.Specs {
		row := []string{spec.Name}
		for _, set := range [][]*multimax.Result{sr.ContSimple[spec.Name], sr.ContMRSW[spec.Name]} {
			for _, r := range set {
				c := r.Contention
				row = append(row,
					f1(mean(c.LineSpinsLeft, c.LineAcquiresLeft)),
					f1(mean(c.LineSpinsRight, c.LineAcquiresRight)))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
