package parmatch_test

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/parmatch"
	"repro/internal/tables"
)

// TestLastUnitRace is the termination storm: every phase is a single
// unit (one WM change of the term kernel: a root task and the terminal
// activation under it), every Submit wakes a parked worker, and the
// control process goes straight into Drain — so control and workers
// race for the first unit of the phase, which is also its last. Whoever
// loses must see TaskCount reach zero and leave; whoever wins must have
// published everything it wrote before the control process reads it.
// The reads after each Drain are plain fields of whichever process ran
// the unit, so under -race this is the check on the TaskCount==0 edge.
// A phase the control process wins it runs alone (it holds the only
// unit); both outcomes must show, so rounds go on until each has.
func TestLastUnitRace(t *testing.T) {
	k, err := tables.NewKernel("term", 8)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	cs := tables.KernelSink()
	m := parmatch.NewEager(k.Net, parmatch.Config{Procs: 4, Queues: 2}, cs, 2, 1)
	defer m.Close()
	var phases, byWorkers int64
	for rep := 0; rep < 500 || (rep < 20000 && (byWorkers == 0 || m.SoloUnits() == 0)); rep++ {
		for _, w := range k.Wmes {
			for _, sign := range []bool{true, false} {
				m.Submit(sign, w)
				m.Drain()
				phases++
				if n := m.InFlight(); n != 0 {
					t.Fatalf("phase %d: TaskCount = %d after Drain", phases, n)
				}
				if got, want := cs.Len(), map[bool]int{true: 1, false: 0}[sign]; got != want {
					t.Fatalf("phase %d: %d instantiations, want %d", phases, got, want)
				}
				if got := m.Activations(); got != 2*phases {
					t.Fatalf("phase %d: %d activations, want %d", phases, got, 2*phases)
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		per := m.WorkerContention()
		byWorkers = 0
		for _, c := range per[:len(per)-1] {
			byWorkers += c.QueueAcquires // a worker's only queue traffic here is its pops
		}
	}
	checkUnitAccounting(t, m)
	solo := m.SoloUnits()
	t.Logf("%d single-unit phases: workers won %d, the control process ran %d alone",
		phases, byWorkers, solo)
	if byWorkers+solo != phases {
		t.Errorf("workers won %d and the control process ran %d alone: %d phases unaccounted for",
			byWorkers, solo, phases-byWorkers-solo)
	}
	if byWorkers == 0 || solo == 0 {
		t.Errorf("want both outcomes: workers won %d phases, the control process ran %d alone", byWorkers, solo)
	}
}

// parkedMatcher returns a matcher whose match goroutines have all been
// woken, have worked and have parked again.
func parkedMatcher(t *testing.T, procs int) *parmatch.Matcher {
	t.Helper()
	k, err := tables.NewKernel("join", 64)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	// Every Submit wakes a worker, to get them all out of bed first.
	m := parmatch.NewEager(k.Net, parmatch.Config{Procs: procs, Queues: 2}, tables.KernelSink(), 2, 1)
	t.Cleanup(m.Close)
	k.Round(m)
	awaitParked(t, m, procs)
	return m
}

// TestParkedIsFree: a drained matcher costs nothing. Once the match
// goroutines have parked, every one of them is blocked on its wake
// channel — none runnable, none on a timer. (What the process then
// accrues in CPU time is TestParkedAccruesNoCPU, where the OS says.)
func TestParkedIsFree(t *testing.T) {
	const procs = 4
	parkedMatcher(t, procs)
	// blocked returns the match goroutines' states and how many of them
	// are blocked on their wake channels.
	blocked := func() (states []string, n int) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "parmatch.(*Matcher).worker") {
				header, _, _ := strings.Cut(g, "\n")
				states = append(states, header)
				if strings.Contains(header, "[chan receive") {
					n++
				}
			}
		}
		return states, n
	}
	// A worker registers as parked one sweep before it blocks: give the
	// last of them that long, then hold all of them to staying blocked.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		states, n := blocked()
		if n == procs && len(states) == procs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d match goroutines of a drained matcher blocked on their wake channels: %q", n, procs, states)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if states, n := blocked(); n != procs {
		t.Errorf("a parked match goroutine woke with nothing submitted: %q", states)
	}
}

// TestControlHandOff: the control process is whoever holds the caller's
// lock. Successive Submit/Drain rounds come from different goroutines
// serialised by an external mutex, as the server's session lock does
// with its request handlers; the control-owned context (free list,
// stack, counters, recorder) travels between them on that lock alone.
func TestControlHandOff(t *testing.T) {
	net, wmes := fanWorkload(t)
	k := &tables.Kernel{Net: net, Wmes: wmes}
	cs := tables.KernelSink()
	m := parmatch.NewEager(net, parmatch.Config{Procs: 2, Queues: 2, Scheme: parmatch.SchemeMRSW}, cs, 2, 2)
	defer m.Close()
	var mu sync.Mutex
	var wg sync.WaitGroup
	const callers, rounds = 6, 40
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				mu.Lock()
				k.Round(m)
				err := m.CheckInvariants()
				left, entries := cs.Len(), m.MemStats().Entries
				mu.Unlock()
				if err != nil || left != 0 || entries != 0 {
					t.Errorf("round left %d instantiations, %d tokens, invariants: %v", left, entries, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	c := checkUnitAccounting(t, m)
	if want := int64(callers * rounds * 2 * len(wmes)); m.MatchStats().WMChanges != want {
		t.Errorf("%d WM changes recorded, want %d", m.MatchStats().WMChanges, want)
	}
	t.Logf("%d activations, %d requeues, workers took batches: %v",
		m.Activations(), c.Requeues, workersRan(m))
}
