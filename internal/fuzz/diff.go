package fuzz

import (
	"fmt"
	"sort"
	"strings"

	psme "repro"
)

// MaxCycles caps each backend run: generated programs terminate by
// construction except for rare modify-free feedback through shared
// classes, and a capped run still diffs exactly (same cap, same trace).
const MaxCycles = 150

// Backends is the full differential set.
var Backends = []psme.MatcherKind{psme.MatcherLisp, psme.MatcherVS1, psme.MatcherVS2, psme.MatcherParallel}

// Trace is one backend's observable behaviour: the complete firing
// log (rule, cycle, token time tags), the sorted final working memory
// with time tags, and the halt flag.
type Trace struct {
	Backend string
	Firings []string
	WM      []string
	Halted  bool
}

// Key canonicalizes the trace for comparison.
func (tr *Trace) Key() string {
	return fmt.Sprintf("halted=%v\nfirings:\n%s\nwm:\n%s",
		tr.Halted, strings.Join(tr.Firings, "\n"), strings.Join(tr.WM, "\n"))
}

// RunBackend executes the case on one backend.
func RunBackend(c Case, kind psme.MatcherKind) (*Trace, error) {
	prog, err := psme.Parse(c.Src)
	if err != nil {
		return nil, fmt.Errorf("seed %d: parse: %w", c.Seed, err)
	}
	cfg := psme.Config{Matcher: kind, AcceptValues: c.Accepts}
	if kind == psme.MatcherParallel {
		cfg.MatchProcs = 4
		cfg.TaskQueues = 2
	}
	eng, err := psme.New(prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("seed %d: new %s: %w", c.Seed, kind, err)
	}
	defer eng.Close()
	// One cycle at a time, so the slot-safety oracle sees every drained
	// point: no stored token may name a slot whose element is not live.
	tr := &Trace{Backend: kind.String()}
	for cycles := 0; cycles < MaxCycles; {
		res, err := eng.Run(psme.RunOptions{MaxCycles: 1, RecordFiring: true})
		if err != nil {
			return nil, fmt.Errorf("seed %d: run %s: %w", c.Seed, kind, err)
		}
		if err := eng.CheckSlots(); err != nil {
			return nil, fmt.Errorf("seed %d: %s after cycle %d: %w", c.Seed, kind, cycles, err)
		}
		for _, f := range res.Firings {
			tr.Firings = append(tr.Firings, fmt.Sprintf("c%d %s %v", cycles+f.Cycle, f.Rule, f.TimeTags))
		}
		cycles += res.Cycles
		if tr.Halted = res.Halted; res.Halted || res.Cycles == 0 {
			break
		}
	}
	tr.WM = eng.WorkingMemory()
	sort.Strings(tr.WM)
	return tr, nil
}

// Diff runs the case on every backend and returns an error describing
// the first disagreement, or nil when all backends agree.
func Diff(c Case) error {
	var ref *Trace
	for _, kind := range Backends {
		tr, err := RunBackend(c, kind)
		if err != nil {
			return err
		}
		if ref == nil {
			ref = tr
			continue
		}
		if tr.Key() != ref.Key() {
			return fmt.Errorf("seed %d: %s disagrees with %s\n--- %s ---\n%s\n--- %s ---\n%s\n--- program ---\n%s",
				c.Seed, tr.Backend, ref.Backend, ref.Backend, ref.Key(), tr.Backend, tr.Key(), c.Src)
		}
	}
	return nil
}
