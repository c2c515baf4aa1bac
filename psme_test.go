package psme_test

import (
	"strings"
	"testing"

	psme "repro"
	"repro/internal/tables"
)

const facadeSrc = `
(literalize goal type color)
(literalize block id color selected)
(p find-colored-block
  (goal ^type find-block ^color <c>)
  (block ^id <i> ^color <c> ^selected no)
-->
  (modify 2 ^selected yes))
(p all-done
  (goal ^type find-block ^color <c>)
  - (block ^color <c> ^selected no)
-->
  (write done (crlf))
  (halt))
(make goal ^type find-block ^color red)
(make block ^id b1 ^color red ^selected no)
(make block ^id b2 ^color red ^selected no)
`

func TestFacadeAllMatchers(t *testing.T) {
	kinds := []psme.MatcherKind{psme.MatcherVS1, psme.MatcherVS2, psme.MatcherLisp, psme.MatcherParallel}
	for _, k := range kinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			prog, err := psme.Parse(facadeSrc)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			eng, err := psme.New(prog, psme.Config{
				Matcher: k, MatchProcs: 3, TaskQueues: 2, Output: &out,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			res, err := eng.Run(psme.RunOptions{MaxCycles: 100, RecordFiring: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || res.Cycles != 3 {
				t.Fatalf("halted=%v cycles=%d, want true/3", res.Halted, res.Cycles)
			}
			if !strings.Contains(out.String(), "done") {
				t.Fatalf("output %q", out.String())
			}
			found := 0
			for _, w := range eng.WorkingMemory() {
				if strings.Contains(w, "^selected yes") {
					found++
				}
			}
			if found != 2 {
				t.Fatalf("%d selected blocks in WM, want 2", found)
			}
		})
	}
}

func TestFacadeNetworkIntrospection(t *testing.T) {
	prog, err := psme.Parse(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Rules() != 2 {
		t.Fatalf("Rules = %d", prog.Rules())
	}
	var dump strings.Builder
	prog.DumpNetwork(&dump)
	if !strings.Contains(dump.String(), "find-colored-block") {
		t.Fatal("network dump missing production name")
	}
	s := prog.NetworkSummary()
	if s.Rules != 2 || s.Terminals != 2 {
		t.Fatalf("summary %+v", s)
	}
}

func TestFacadeSimulate(t *testing.T) {
	src, err := psme.BenchmarkProgram("tourney", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := psme.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	base, err := psme.Simulate(prog, psme.SimConfig{MatchProcs: 1, TaskQueues: 1, MaxCycles: 50000})
	if err != nil {
		t.Fatal(err)
	}
	par, err := psme.Simulate(prog, psme.SimConfig{
		MatchProcs: 8, TaskQueues: 8, Pipelined: true, MaxCycles: 50000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !base.Halted || !par.Halted {
		t.Fatal("simulated runs must halt")
	}
	if par.MatchSeconds >= base.MatchSeconds {
		t.Fatalf("8 procs (%f s) not faster than 1 (%f s)", par.MatchSeconds, base.MatchSeconds)
	}
}

func TestFacadeBenchmarkPrograms(t *testing.T) {
	for _, name := range []string{"weaver", "rubik", "tourney", "monkeys"} {
		src, err := psme.BenchmarkProgram(name, 0.3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := psme.Parse(src); err != nil {
			t.Fatalf("%s does not parse: %v", name, err)
		}
	}
	if _, err := psme.BenchmarkProgram("nonesuch", 1); err == nil {
		t.Fatal("unknown program should error")
	}
}

// TestOneProgramRegistry: the facade and the paper tables read one
// registry, so they generate the same sources at every scale.
func TestOneProgramRegistry(t *testing.T) {
	for _, scale := range []float64{0.2, 0.3, 0.5, 1} {
		specs, err := tables.Programs(scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			src, err := psme.BenchmarkProgram(strings.ToLower(spec.Name), scale)
			if err != nil {
				t.Fatal(err)
			}
			if src != spec.Src {
				t.Errorf("scale %v: %s differs between psme.BenchmarkProgram and tables.Programs", scale, spec.Name)
			}
		}
	}
}

func TestFacadeAcceptValues(t *testing.T) {
	src := `
(literalize t go)
(literalize got v)
(p read (t ^go yes) --> (make got ^v (accept)) (halt))
(make t ^go yes)
`
	prog, err := psme.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := psme.New(prog, psme.Config{
		Matcher:      psme.MatcherVS2,
		AcceptValues: []psme.Value{{Sym: "token-a"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Run(psme.RunOptions{MaxCycles: 5}); err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(eng.WorkingMemory(), " ")
	if !strings.Contains(joined, "token-a") {
		t.Fatalf("accept value not in WM: %s", joined)
	}
}

func TestFacadeParseError(t *testing.T) {
	if _, err := psme.Parse("(p broken"); err == nil {
		t.Fatal("expected parse error")
	}
}
