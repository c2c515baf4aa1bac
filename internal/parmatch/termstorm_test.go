package parmatch_test

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
	"repro/internal/hashmem"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/tables"
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

// TestTerminalStormDrains floods the parallel matcher with conjugate
// terminal activations: every WME's plus and minus are submitted
// back-to-back without an intervening drain, so match workers race the
// pairs into the conflict set in arbitrary order and any minus that
// wins its race must park as a pending delete and annihilate with the
// late plus. After each drain the set must be empty and drained —
// under -race this doubles as the data-race check on the sharded
// conflict set fed by real concurrent terminal tasks.
func TestTerminalStormDrains(t *testing.T) {
	k, err := tables.NewKernel("term", 256)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	for _, shards := range []int{1, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cs := conflict.New(conflict.Config{Shards: shards})
			// LocalCap 1 forces spills and steals, maximizing reordering.
			m := parmatch.New(k.Net, parmatch.Config{
				Procs: 4, Queues: 2, LocalCap: 1,
			}, cs)
			defer m.Close()
			for rep := 0; rep < 5; rep++ {
				for _, w := range k.Wmes {
					m.Submit(true, w)
					m.Submit(false, w)
				}
				m.Drain()
				if !cs.Drained() {
					t.Fatalf("rep %d: pending conflict-set deletes after drain", rep)
				}
				if n := cs.Len(); n != 0 {
					t.Fatalf("rep %d: %d instantiations after balanced storm", rep, n)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("rep %d: %v", rep, err)
				}
				requireNoParked(t, m.Table())
			}
			st := cs.StatsSnapshot()
			want := int64(5 * len(k.Wmes))
			if st.Inserts != want || st.Deletes != want {
				t.Fatalf("conflict stats = %+v, want %d inserts and deletes", st, want)
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
				m := parmatch.New(k.Net, parmatch.Config{
					Procs: 4, Queues: 2, Scheme: scheme, LocalCap: 1,
				}, cs)
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
