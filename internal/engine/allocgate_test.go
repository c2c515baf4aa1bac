package engine_test

import (
	"os"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/workload"
)

// The allocation gate: what the token store allocates per node
// activation is a property of its layout, not of the host, so it is
// gated on counts. One Weaver(20, 9) session on vs2 — the
// serve-weaver-direct workload at library level — is built, initialised
// and played to halt in 25-cycle slices, and the heap counters around it
// must stay under the bounds below: the pointer-free token store reads
// 0.065 mallocs and 25.5 bytes per activation and 4.5 k mallocs in Init.
// The pointer layout before it read 0.124, 56.2 and 8.7 k (token slices
// cut from chunks that never recycled), and the one before that 0.88,
// 87.5 and 56.5 k (a sub-index per touched line, a slice per run, an
// entry per insert past a 1 024-entry pool).
//
// The token store holds no pointers, so the collector has almost
// nothing of a session to mark: replayed to its peak of live entries and
// collected, the session adds 0.17 MB of scannable heap, against 9.85 MB
// when entries, runs, lines and tokens were Go pointers.
//
// The same session pins the conflict set's shape: its 32 selection
// partitions rescan about 21.7 k instantiations over the session where
// one partition would rescan 554 k, and it takes no locks.
const (
	maxMallocsPerActivation = 0.14
	maxBytesPerActivation   = 33.0
	maxInitMallocs          = 13000
	maxScanBytes            = 1 << 20
	maxSelectScanned        = 30000
)

// TestMatchAllocationGate is wired into make bench-smoke (BENCH_SMOKE=1).
func TestMatchAllocationGate(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	prog, err := ops5.Parse(workload.Weaver(20, 9))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	// Right-hand sides are compiled once per program, as the server does.
	compiled, err := engine.CompileRHS(prog, net)
	if err != nil {
		t.Fatalf("rhs compile: %v", err)
	}

	// session builds and initialises one session; slice plays one
	// 25-cycle slice of it.
	session := func() (*seqmatch.Matcher, *conflict.Set, *engine.Engine) {
		cs := conflict.New(conflict.Config{})
		m := seqmatch.New(net, seqmatch.VS2, 0, cs)
		eng, err := engine.NewWithRHS(prog, net, compiled, cs, m, nil)
		if err != nil {
			t.Fatalf("engine: %v", err)
		}
		if err := eng.Init(); err != nil {
			t.Fatalf("init: %v", err)
		}
		return m, cs, eng
	}
	slice := func(eng *engine.Engine) {
		res, err := eng.Run(engine.Options{MaxCycles: 25})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		if res.Cycles == 0 {
			t.Fatal("session stopped without halting")
		}
	}

	var before, ready, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, cs, eng := session()
	runtime.ReadMemStats(&ready)
	var peak int64
	peakAt := 0
	for n := 1; !eng.Halted(); n++ {
		slice(eng)
		if e := m.MemStats().Entries; e > peak {
			peak, peakAt = e, n
		}
	}
	runtime.ReadMemStats(&after)

	acts := float64(m.MatchStats().Activations)
	mallocs := float64(after.Mallocs - before.Mallocs)
	bytes := float64(after.TotalAlloc - before.TotalAlloc)
	initMallocs := ready.Mallocs - before.Mallocs
	t.Logf("%.0f activations: %.3f mallocs and %.1f bytes per activation, Init %d mallocs",
		acts, mallocs/acts, bytes/acts, initMallocs)
	if got := mallocs / acts; got > maxMallocsPerActivation {
		t.Errorf("%.3f mallocs per activation, bound %.2f", got, maxMallocsPerActivation)
	}
	if got := bytes / acts; got > maxBytesPerActivation {
		t.Errorf("%.1f bytes per activation, bound %.0f", got, maxBytesPerActivation)
	}
	if initMallocs > maxInitMallocs {
		t.Errorf("Init made %d mallocs, bound %d", initMallocs, maxInitMallocs)
	}
	conf := cs.StatsSnapshot()
	t.Logf("conflict set: %d selects rescanned %d instantiations, %d lock spins",
		conf.Selects, conf.SelectScanned, conf.ShardSpins)
	if conf.SelectScanned > maxSelectScanned {
		t.Errorf("Select rescanned %d instantiations, bound %d: the selection partitions are not narrowing the rescans",
			conf.SelectScanned, maxSelectScanned)
	}
	if conf.ShardSpins != 0 {
		t.Errorf("conflict set reports %d lock spins; it takes no locks", conf.ShardSpins)
	}

	// What the collector marks of a session: a second, identical session
	// replayed to the slice that reached the peak, then collected.
	base := scanHeap()
	_, _, peakEng := session()
	for n := 0; n < peakAt; n++ {
		slice(peakEng)
	}
	added := int64(scanHeap()) - int64(base)
	runtime.KeepAlive(peakEng)
	t.Logf("at its peak of %d live entries (slice %d) the session adds %.2f MB of scannable heap",
		peak, peakAt, float64(added)/(1<<20))
	if added > maxScanBytes {
		t.Errorf("the session adds %d scannable bytes at its peak, bound %d: the token store is back on the collector's heap",
			added, maxScanBytes)
	}
}

// scanHeap collects and returns the scannable heap bytes the collector
// found.
func scanHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/scan/heap:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
