package parmatch_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
)

// runSeq runs a program on the vs2 sequential matcher.
func runSeq(t *testing.T, src string, maxCycles int) *engine.Result {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := conflict.NewSet()
	m := seqmatch.New(net, seqmatch.VS2, 0, cs)
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	res, err := e.Run(engine.Options{MaxCycles: maxCycles, RecordFiring: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

// builder is one way to build a parallel matcher for the equivalence
// tests, which run every config both ways.
type builder struct {
	name string
	new  func(*testing.T, *rete.Network, parmatch.Config, rete.TerminalSink) *parmatch.Matcher
}

// builders: "solo" is New at the real thresholds with the workers parked
// first, so the control process matches every cycle of these small
// programs alone; "eager" wakes a worker for every root, so units run
// the locked path and workers take some of them.
var builders = []builder{
	{"solo", func(t *testing.T, net *rete.Network, cfg parmatch.Config, sink rete.TerminalSink) *parmatch.Matcher {
		m := parmatch.New(net, cfg, sink)
		awaitParked(t, m, cfg.Procs)
		return m
	}},
	{"eager", func(t *testing.T, net *rete.Network, cfg parmatch.Config, sink rete.TerminalSink) *parmatch.Matcher {
		return parmatch.NewEager(net, cfg, sink, 2, 1)
	}},
}

// runPar runs a program on a parallel matcher built by b with the given
// config. everyCycle, if not nil, runs on the engine at the top of every
// cycle, where the matcher is drained; an error from it fails the run.
func runPar(t *testing.T, src string, b builder, cfg parmatch.Config, maxCycles int,
	everyCycle func(*engine.Engine) error) *engine.Result {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := conflict.NewSet()
	m := b.new(t, net, cfg, cs)
	defer m.Close()
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if err := e.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	opt := engine.Options{MaxCycles: maxCycles, RecordFiring: true, CheckEvery: true}
	if everyCycle != nil {
		opt.Hook = func(int) error { return everyCycle(e) }
	}
	res, err := e.Run(opt)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !cs.Drained() {
		t.Fatalf("conflict set has parked deletes after run")
	}
	if b.name == "solo" && m.SoloUnits() != m.Units() {
		t.Fatalf("solo: %d of %d units run alone", m.SoloUnits(), m.Units())
	}
	return res
}

// sameRun holds a parallel run to the sequential one: the same firing
// sequence and the same end state.
func sameRun(t *testing.T, got, want *engine.Result) {
	t.Helper()
	if len(got.Firings) != len(want.Firings) {
		t.Fatalf("firing count: got %d want %d", len(got.Firings), len(want.Firings))
	}
	for i := range want.Firings {
		if got.Firings[i].Rule != want.Firings[i].Rule {
			t.Fatalf("firing %d: got %s want %s", i, got.Firings[i].Rule, want.Firings[i].Rule)
		}
	}
	if got.Halted != want.Halted || got.WMSize != want.WMSize {
		t.Fatalf("end state: got halted=%v wm=%d want halted=%v wm=%d",
			got.Halted, got.WMSize, want.Halted, want.WMSize)
	}
}

// chainSrc builds a program whose rules join several classes and cascade
// makes/removes, stressing token propagation.
func chainSrc(n int) string {
	var b strings.Builder
	b.WriteString("(literalize item kind val)\n(literalize stage num)\n(literalize done num)\n")
	// Each stage rule consumes the stage marker, pairs items, and
	// advances; a final rule halts.
	fmt.Fprintf(&b, `
(p pair
  (stage ^num {<n> < %d})
  (item ^kind a ^val <v>)
  (item ^kind b ^val <v>)
-->
  (make done ^num <n>)
  (modify 1 ^num (compute <n> + 1)))
(p finish
  (stage ^num %d)
-->
  (halt))
(make stage ^num 0)
`, n, n)
	for i := 0; i < 6; i++ {
		fmt.Fprintf(&b, "(make item ^kind a ^val %d)\n", i)
		fmt.Fprintf(&b, "(make item ^kind b ^val %d)\n", i)
	}
	return b.String()
}

// negSrc mixes negation with churn: blockers appear and disappear.
const negSrc = `
(literalize gate open)
(literalize blocker id)
(literalize tick num)
(literalize out num)
(p spawn-blocker
  (tick ^num {<n> > 0})
  - (blocker ^id <n>)
  - (out ^num <n>)
-->
  (make blocker ^id <n>))
(p clear-blocker
  (tick ^num <n>)
  (blocker ^id <n>)
-->
  (remove 2)
  (make out ^num <n>)
  (modify 1 ^num (compute <n> - 1)))
(p finish
  (tick ^num 0)
-->
  (halt))
(make tick ^num 12)
`

func configs() []parmatch.Config {
	return []parmatch.Config{
		{Procs: 1, Queues: 1, Scheme: parmatch.SchemeSimple},
		{Procs: 3, Queues: 1, Scheme: parmatch.SchemeSimple},
		{Procs: 4, Queues: 4, Scheme: parmatch.SchemeSimple},
		{Procs: 3, Queues: 2, Scheme: parmatch.SchemeMRSW},
		{Procs: 7, Queues: 8, Scheme: parmatch.SchemeMRSW},
	}
}

// TestParallelMatchesSequential verifies that every parallel
// configuration, matching alone or with its workers, fires exactly the
// sequence the sequential matcher does.
func TestParallelMatchesSequential(t *testing.T) {
	srcs := map[string]string{
		"chain": chainSrc(25),
		"neg":   negSrc,
	}
	for name, src := range srcs {
		want := runSeq(t, src, 500)
		for _, cfg := range configs() {
			t.Run(fmt.Sprintf("%s/p%dq%d%s", name, cfg.Procs, cfg.Queues, cfg.Scheme), func(t *testing.T) {
				for _, b := range builders {
					t.Run(b.name, func(t *testing.T) {
						sameRun(t, runPar(t, src, b, cfg, 500, nil), want)
					})
				}
			})
		}
	}
}

// TestUnlinkMatchesSequential verifies that unlinking removed elements
// from the token store changes no result. A removal's minus tokens
// unlink every stored entry that names the element, and its slot is
// released for reuse only once the drain is done. On the cascading chain
// workload and the negation-churn workload, both full of removals, every
// configuration must fire exactly the sequential sequence; at the top of
// every cycle no stored entry may name a slot whose element is not live;
// and the slots of removed elements must have been reused.
func TestUnlinkMatchesSequential(t *testing.T) {
	srcs := map[string]string{
		"chain": chainSrc(25),
		"neg":   negSrc,
	}
	for name, src := range srcs {
		want := runSeq(t, src, 500)
		for _, cfg := range configs() {
			t.Run(fmt.Sprintf("%s/p%dq%d%s", name, cfg.Procs, cfg.Queues, cfg.Scheme), func(t *testing.T) {
				for _, b := range builders {
					t.Run(b.name, func(t *testing.T) {
						var stored int
						var last *engine.Engine
						got := runPar(t, src, b, cfg, 500, func(e *engine.Engine) error {
							last = e
							e.Matcher.(*parmatch.Matcher).ForEachSlot(func(uint32) { stored++ })
							return e.CheckSlots()
						})
						sameRun(t, got, want)
						if stored == 0 {
							t.Fatal("the token store named no slot at any cycle; the oracle checked nothing")
						}
						if issued, made := last.WM.Slots().Issued(), last.WM.NextTag()-1; int(issued) >= made {
							t.Errorf("slots issued = %d for %d elements made, want fewer (released slots reused)", issued, made)
						}
					})
				}
			})
		}
	}
}

// TestRepeatedParallelRunsAreStable reruns one config many times, both
// ways, to shake out schedule-dependent divergence.
func TestRepeatedParallelRunsAreStable(t *testing.T) {
	src := chainSrc(15)
	want := runSeq(t, src, 500)
	cfg := parmatch.Config{Procs: 4, Queues: 2, Scheme: parmatch.SchemeMRSW, Lines: 64}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			for i := 0; i < 10; i++ {
				got := runPar(t, src, b, cfg, 500, nil)
				if len(got.Firings) != len(want.Firings) {
					t.Fatalf("iteration %d: firing count %d want %d", i, len(got.Firings), len(want.Firings))
				}
			}
		})
	}
}
