package hashmem_test

import (
	"slices"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/hashmem"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/wm"
	"repro/internal/workload"
)

// TestFrozenIsCompact: an image holds its table frozen, so it costs what
// the table holds, not its line array. Tourney(16) after Init, on the
// default 16 384-line vs2 table it is built with, stores tokens in about
// 124 lines and 2.5 k words: frozen, that is under 16 KB, where the
// dense line array alone is 704 KB. The thawed table must be the table
// again, line for line. A thaw still allocates the frozen geometry's
// whole line array, so every image is re-slotted before it is frozen
// (Reslot): Tourney's 291 live tokens then thaw into 1 024 lines, 44 KB.
func TestFrozenIsCompact(t *testing.T) {
	prog, err := ops5.Parse(workload.Tourney(16))
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet()
	m := seqmatch.New(net, seqmatch.VS2, 0, cs)
	eng, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		t.Fatal(err)
	}
	before := m.MemStats() // folds the live gauge
	f := m.Table.Freeze()
	lines, stored, words := f.Shape()
	t.Logf("%d lines, %d stored, %d words: %d bytes frozen", lines, stored, words, f.Bytes())
	if lines != 16384 || stored == 0 || stored > lines/64 {
		t.Fatalf("fixture: %d of %d lines hold tokens, want a sparse default table", stored, lines)
	}
	if f.Bytes() >= 16<<10 {
		t.Errorf("frozen table is %d bytes, want under 16 KB", f.Bytes())
	}
	thawed := f.Thaw()
	if !slices.Equal(thawed.Lines, m.Table.Lines) {
		t.Errorf("thawed lines differ from the frozen table's")
	}
	if got := thawed.MemStats(); got != before {
		t.Errorf("thawed memory stats %+v, frozen table %+v", got, before)
	}
	var want, got []uint32
	m.Table.ForEachSlot(func(s uint32) { want = append(want, s) })
	thawed.ForEachSlot(func(s uint32) { got = append(got, s) })
	if !slices.Equal(got, want) {
		t.Errorf("thawed table names %d slots, frozen table %d", len(got), len(want))
	}
	if lines, _, _ := m.Table.Reslot(&m.Pools).Freeze().Shape(); lines != 1024 {
		t.Errorf("re-slotted image has %d lines, want 1 024", lines)
	}
}

// filled returns a segregated table of n lines holding live left tokens
// of the fixture's join, each its own run.
func filled(t *testing.T, n, live int) *hashmem.Table {
	j := fixture(t, joinSrc).Joins[0]
	table := hashmem.New(n)
	for i := range live {
		apply(table, j, rete.Left, true, []*wm.WME{mkW(1, i+1, int64(i))})
	}
	return table
}

// TestReslotSizesEveryImage: an image's table is re-slotted to the
// smallest power of two of lines holding its live tokens, at least
// 1 024 and at most the larger of its own size and the 16 384 default;
// at its own size it is kept, rehashed into nothing new. A rebuilt table
// holds only what its source reaches: 2 000 runs on 1 024 lines outgrow
// their sub-indexes, and the re-slot leaves those words behind.
func TestReslotSizesEveryImage(t *testing.T) {
	cases := []struct {
		name        string
		lines, live int
		want        int
		fewerWords  bool
	}{
		{"empty default table floors", hashmem.DefaultLines, 0, 1024, false},
		{"rubik's init shrinks", hashmem.DefaultLines, 2063, 4096, false},
		{"template over a small image widens", 1024, 2000, 2048, true},
		{"weaver's init keeps the default", hashmem.DefaultLines, 18000, hashmem.DefaultLines, false},
		{"grown table caps at its own size", 2 * hashmem.DefaultLines, 40000, 2 * hashmem.DefaultLines, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			table := filled(t, c.lines, c.live)
			_, _, words := table.Freeze().Shape()
			before := table.MemStats()
			got := table.Reslot(poolsFor(table))
			if n := len(got.Lines); n != c.want {
				t.Fatalf("%d lines holding %d tokens re-slot to %d lines, want %d", c.lines, c.live, n, c.want)
			}
			if m := got.MemStats(); m.Entries != before.Entries || m.Resizes != before.Resizes {
				t.Errorf("re-slotted gauges %+v, table's %+v", m, before)
			}
			if _, _, w := got.Freeze().Shape(); c.fewerWords && w >= words {
				t.Errorf("re-slotted table holds %d store words, its source %d", w, words)
			}
			if c.want != c.lines {
				return
			}
			if got != table {
				t.Fatal("a table already at its image size was rebuilt")
			}
			if _, _, w := got.Freeze().Shape(); w != words {
				t.Errorf("frozen words went from %d to %d over a kept table", words, w)
			}
		})
	}
}
