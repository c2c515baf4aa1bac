package hashmem_test

import (
	"slices"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/workload"
)

// TestFrozenIsCompact: an image holds its table frozen, so it costs what
// the table holds, not its line array. Tourney(16) after Init, on the
// server's default 16 384-line vs2 table, stores tokens in about 124
// lines and 2.5 k words: frozen, that is under 16 KB, where the dense
// line array alone is 704 KB. The thawed table must be the table again,
// line for line.
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
}
