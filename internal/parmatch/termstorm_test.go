package parmatch_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/hashmem"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/tables"
	"repro/internal/wm"
)

// requireNoParked holds the table's exact parked-delete count to a full
// walk of the extra-deletes lists, and both to zero. Park and
// annihilate adjust the count under the line locks from every match
// process at once; only call drained, like CheckInvariants.
func requireNoParked(t *testing.T, table *hashmem.Table) {
	t.Helper()
	var walk int64
	for i := range table.Lines {
		for s := rete.Left; s <= rete.Right; s++ {
			for e := table.Lines[i].ParkedHead(s); e != nil; e = e.Next {
				walk++
			}
		}
	}
	if n := table.Parked(); n != 0 || walk != 0 {
		t.Fatalf("parked-delete count %d, walk %d after drain; want both 0", n, walk)
	}
}

// TestTerminalStormDrains floods four match processes with terminal
// activations that each buffers privately, under both lock schemes: every
// phase asserts every WME and retracts every other one without an
// intervening drain, so a retracted WME's plus and minus land in any
// process's buffer, in any order, and the control process applies them
// all at the drained point. After each drain the conflict set must equal
// vs2's for the same submissions and hold no parked deletes — under
// -race this is also the check that the set is only ever touched by the
// control process. A refraction case follows: the dominant
// instantiation fires, its WME leaves and comes back in one phase, and
// it must be live and unfired again, as vs2 has it.
func TestTerminalStormDrains(t *testing.T) {
	k, err := tables.NewKernel("term", 256)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
		t.Run(scheme.String(), func(t *testing.T) {
			wantCS := tables.KernelSink()
			oracle := seqmatch.New(k.Net, seqmatch.VS2, 0, wantCS)
			cs := tables.KernelSink()
			m := parmatch.NewEager(k.Net, parmatch.Config{Procs: 4, Queues: 2, Scheme: scheme}, cs, 2, 2)
			defer m.Close()
			submit := func(sign bool, w *wm.WME) {
				oracle.Submit(sign, w)
				m.Submit(sign, w)
			}
			check := func(rep int, when string) {
				t.Helper()
				m.Drain()
				if !cs.Drained() {
					t.Fatalf("rep %d %s: pending conflict-set deletes after drain", rep, when)
				}
				if got, want := csSignature(cs), csSignature(wantCS); !reflect.DeepEqual(got, want) {
					t.Fatalf("rep %d %s: conflict set %v, vs2 has %v", rep, when, got, want)
				}
				if cs.Live() != wantCS.Live() || cs.Fired() != wantCS.Fired() {
					t.Fatalf("rep %d %s: %d live %d fired, vs2 has %d live %d fired",
						rep, when, cs.Live(), cs.Fired(), wantCS.Live(), wantCS.Fired())
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("rep %d %s: %v", rep, when, err)
				}
			}
			for rep := 0; rep < 5; rep++ {
				for i, w := range k.Wmes {
					submit(true, w)
					if i%2 == 1 {
						submit(false, w)
					}
				}
				check(rep, "after the storm")

				inst, want := cs.Select(), wantCS.Select()
				cs.MarkFired(inst)
				wantCS.MarkFired(want)
				w := inst.Wmes[0]
				submit(false, w)
				submit(true, w)
				check(rep, "after the refraction flicker")
				if got := cs.Select(); got == nil || got.Wmes[0] != w {
					t.Fatalf("rep %d: Select = %v after its WME left and came back, want it again", rep, got)
				}

				for i, w := range k.Wmes {
					if i%2 == 0 {
						submit(false, w)
					}
				}
				check(rep, "after retracting the rest")
				if n := cs.Len(); n != 0 {
					t.Fatalf("rep %d: %d instantiations after retracting everything", rep, n)
				}
			}
			if got, want := cs.StatsSnapshot(), wantCS.StatsSnapshot(); got.Inserts != want.Inserts || got.Deletes != want.Deletes {
				t.Fatalf("conflict stats = %+v, vs2 has %+v", got, want)
			}
		})
	}
}

// TestJoinConjugateStormDrains is the same storm aimed at the token
// memories: on the join and negation kernels a back-to-back plus/minus
// pair races into the same hash line, so a minus that overtakes its
// plus parks on the extra-deletes list and the late plus annihilates
// it — concurrently, from four match processes, under both lock
// schemes. After each drain nothing may be left parked, by the exact
// count and by the walk.
func TestJoinConjugateStormDrains(t *testing.T) {
	for _, name := range []string{"join", "neg"} {
		k, err := tables.NewKernel(name, 96)
		if err != nil {
			t.Fatalf("kernel %s: %v", name, err)
		}
		for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
			t.Run(fmt.Sprintf("%s/%s", name, scheme), func(t *testing.T) {
				cs := tables.KernelSink()
				m := parmatch.NewEager(k.Net, parmatch.Config{Procs: 4, Queues: 2, Scheme: scheme}, cs, 2, 2)
				defer m.Close()
				for rep := 0; rep < 5; rep++ {
					for _, w := range k.Wmes {
						m.Submit(true, w)
						m.Submit(false, w)
					}
					m.Drain()
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("rep %d: %v", rep, err)
					}
					requireNoParked(t, m.Table())
					if n := cs.Len(); n != 0 {
						t.Fatalf("rep %d: %d instantiations after balanced storm", rep, n)
					}
					if n := m.MemStats().Entries; n != 0 {
						t.Fatalf("rep %d: %d tokens left in memory after balanced storm", rep, n)
					}
				}
			})
		}
	}
}
