// Command psmbench regenerates the paper's evaluation tables (4-1
// through 4-9) from this repository's matchers and the Multimax
// simulator, printing them in the paper's layout. See EXPERIMENTS.md for
// the recorded paper-vs-measured comparison.
//
// Usage:
//
//	psmbench [-scale 1.0] [-table all|4-1|...|seq|sim] [-ablation]
//	psmbench -match [-procs 1,2,4,8] [-matchout BENCH_match.json]
//	psmbench ... [-cpuprofile cpu.prof] [-memprofile mem.prof]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/tables"
)

func main() {
	scale := flag.Float64("scale", 1.0, "workload scale factor (1.0 = paper-scale runs)")
	which := flag.String("table", "all", "table to print: all, seq (4-1..4-4), sim (4-5..4-9), or a single id like 4-6")
	ablation := flag.Bool("ablation", false, "run the design-choice ablations (hardware scheduler, FIFO, pipelining, ...)")
	match := flag.Bool("match", false, "run the multicore match microbenchmarks instead of the paper tables")
	matchOut := flag.String("matchout", "", "write -match results as JSON to this file (e.g. BENCH_match.json)")
	procsFlag := flag.String("procs", "1,2,4,8", "comma-separated match-process counts for -match")
	reps := flag.Int("reps", 3, "repetitions per -match workload point (fastest is recorded)")
	bigmemPairs := flag.Int("bigmem-pairs", 20000, "bigmem layout comparison size in (acct, txn) pairs — 2x this many WMEs")
	bigmemLines := flag.Int("bigmem-lines", 1024, "starting hash-table lines for the bigmem layout comparison")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fatal(err)
		fatal(pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			fatal(err)
			runtime.GC()
			fatal(pprof.WriteHeapProfile(f))
			f.Close()
		}()
	}

	if *match {
		procs, err := parseProcs(*procsFlag)
		fatal(err)
		runMatch(tables.MatchBenchOptions{
			Scale: *scale, Procs: procs, Reps: *reps,
			BigmemPairs: *bigmemPairs, BigmemLines: *bigmemLines,
		}, *matchOut)
		return
	}

	specs, err := tables.Programs(*scale)
	fatal(err)
	want := func(id string) bool {
		switch *which {
		case "all":
			return true
		case "seq":
			return strings.HasPrefix(id, "4-") && id <= "4-4"
		case "sim":
			return id >= "4-5"
		default:
			return id == *which
		}
	}

	needSeq := want("4-1") || want("4-2") || want("4-3") || want("4-4")
	needSim := want("4-5") || want("4-6") || want("4-7") || want("4-8") || want("4-9")

	if needSeq {
		sr, err := tables.RunSeqAll(specs, want("4-4"))
		fatal(err)
		for _, t := range []struct {
			id string
			f  func(*tables.SeqResults) *tables.Table
		}{
			{"4-1", tables.Table41}, {"4-2", tables.Table42},
			{"4-3", tables.Table43}, {"4-4", tables.Table44},
		} {
			if want(t.id) {
				fmt.Println(t.f(sr).Render())
			}
		}
	}
	// One grid: the ablations read the cells the tables already ran.
	sim := tables.NewSimGrid(specs)
	if needSim {
		fmt.Println("running Multimax simulation grid (deterministic)...")
		sim, err = tables.RunSimAll(specs)
		fatal(err)
		for _, t := range []struct {
			id string
			f  func(*tables.SimResults) *tables.Table
		}{
			{"4-5", tables.Table45}, {"4-6", tables.Table46},
			{"4-7", tables.Table47}, {"4-8", tables.Table48},
			{"4-9", tables.Table49},
		} {
			if want(t.id) {
				fmt.Println(t.f(sim).Render())
			}
		}
	}
	if *ablation {
		fmt.Println("running design-choice ablations (deterministic)...")
		rows, err := tables.RunAblations(sim)
		fatal(err)
		fmt.Println(tables.AblationTable(specs, rows).Render())
		t2, err := tables.ControlOverlapTable(sim)
		fatal(err)
		fmt.Println(t2.Render())
	}
}

// parseProcs parses the -procs list ("1,2,4,8").
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -procs entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-procs is empty")
	}
	return out, nil
}

// runMatch runs the multicore match sweep, prints a summary and
// optionally writes the BENCH_match.json payload. Rows whose proc count
// exceeds the host CPUs are marked "*": they timeshared real cores, so
// their wall-clock numbers measure oversubscription, not parallelism.
func runMatch(opt tables.MatchBenchOptions, outPath string) {
	fmt.Printf("match microbenchmarks: host CPUs %d, procs swept %v, scale %.2f, reps %d\n",
		runtime.NumCPU(), opt.Procs, opt.Scale, opt.Reps)
	rep, err := tables.RunMatchBench(opt)
	fatal(err)
	oversub := false
	mark := func(procs int, over bool) string {
		s := fmt.Sprintf("%d", procs)
		if over {
			s += "*"
			oversub = true
		}
		return s
	}
	fmt.Println("\nworkload        procs  match-s     acts/s  vs-vs2  requeues")
	for _, p := range rep.Workloads {
		label := mark(p.Procs, p.Oversubscribed)
		if p.Procs == 0 {
			label = "vs2"
		}
		fmt.Printf("%-15s %5s  %8.3f  %10.0f  %6.2f  %8d\n",
			p.Workload, label, p.MatchSeconds, p.ActsPerSec, p.SpeedupVsVS2, p.Contention.Requeues)
	}
	fmt.Println("\nkernel  procs     ns/op  allocs/op  bytes/op  acts/op")
	for _, k := range rep.Kernels {
		label := mark(k.Procs, k.Oversubscribed)
		if k.Procs == 0 {
			label = "seq"
		}
		fmt.Printf("%-7s %5s  %8d  %9d  %8d  %7.0f\n",
			k.Kernel, label, k.NsPerOp, k.AllocsPerOp, k.BytesPerOp, k.ActsPerOp)
	}
	fmt.Println("\nbigmem  layout  pairs   seconds      acts/s  opp/pair    lines  resizes  maxdepth")
	for _, p := range rep.Bigmem {
		fmt.Printf("%-7s %-6s  %5d  %8.3f  %10.0f  %8.2f  %7d  %7d  %8d\n",
			"", p.Layout, p.Pairs, p.Seconds, p.ActsPerSec, p.OppPerPair,
			p.Memory.Lines, p.Memory.Resizes, p.Memory.MaxLineDepth)
	}
	if oversub {
		fmt.Println("\n* procs exceed host CPUs: point ran oversubscribed (timeshared cores)")
	}
	fmt.Println("\nconflict   live     ns/op  allocs/op  bytes/op")
	for _, p := range rep.Conflict {
		fmt.Println(tables.FormatConflictPoint(p))
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		fatal(err)
		data = append(data, '\n')
		fatal(os.WriteFile(outPath, data, 0o644))
		fmt.Printf("\nwrote %s\n", outPath)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "psmbench:", err)
		os.Exit(1)
	}
}
