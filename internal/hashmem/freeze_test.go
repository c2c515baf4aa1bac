package hashmem_test

import (
	"fmt"
	"reflect"
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
	thawed := f.Thaw(nil)
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

// BenchmarkThaw times a thaw of Weaver(20, 9)'s init image, re-slotted
// as every image is (16 384 lines, seven store segments): into a new
// table, and into the table the previous thaw made, as a create after a
// delete thaws into the deleted session's.
func BenchmarkThaw(b *testing.B) {
	prog, err := ops5.Parse(workload.Weaver(20, 9))
	if err != nil {
		b.Fatal(err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		b.Fatal(err)
	}
	cs := conflict.NewSet()
	m := seqmatch.New(net, seqmatch.VS2, 0, cs)
	eng, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Init(); err != nil {
		b.Fatal(err)
	}
	m.Reslot()
	f := m.Table.Freeze()
	b.Run("new table", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			f.Thaw(nil)
		}
	})
	b.Run("into spare", func(b *testing.B) {
		b.ReportAllocs()
		t := f.Thaw(nil)
		for range b.N {
			t = f.Thaw(t)
		}
	})
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

// TestThawIntoSpare: a thaw takes over a dead table's memory where it
// fits and allocates only what does not: the line array when the
// spare's has the image's length, the segments when the ones the
// image's words fill form one array in the spare's store, as they do in
// every table thawed from the same image. The image here spans two
// segments, so a run may cross their boundary. Whatever it takes, the
// thaw freezes byte for byte as a fresh thaw does, keeps the segments
// the spare grew, and emits and ends the same under the same walk.
func TestThawIntoSpare(t *testing.T) {
	// An image of nothing thaws over a store that has no segment yet.
	empty := hashmem.New(8).Freeze()
	if got := empty.Thaw(empty.Thaw(nil)); got.Segments() != 0 {
		t.Fatalf("an empty image thawed into %d segments", got.Segments())
	}
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	f := filled(t, 1024, 6000).Freeze()
	if _, _, words := f.Shape(); words <= 1<<15 {
		t.Fatalf("fixture: %d store words fit in one segment", words)
	}
	want := f.Thaw(nil).Freeze()
	dirtied := func() *hashmem.Table {
		spare := f.Thaw(nil)
		churn(spare, j, 6000)
		return spare
	}
	// The walk: every third left token joined from the right, every fifth
	// deleted, and fresh tokens stored past the image's words.
	type act struct {
		side rete.Side
		sign bool
		w    []*wm.WME
	}
	var acts []act
	for i := 0; i < 6000; i += 3 {
		acts = append(acts, act{rete.Right, true, []*wm.WME{mkW(2, 3_000_000+i, int64(i))}})
	}
	for i := 0; i < 6000; i += 5 {
		acts = append(acts, act{rete.Left, false, []*wm.WME{mkW(1, i+1, int64(i))}})
	}
	for i := range 2000 {
		acts = append(acts, act{rete.Left, true, []*wm.WME{mkW(1, 4_000_000+i, int64(i))}})
	}
	walk := func(table *hashmem.Table) []string {
		var out []string
		for _, a := range acts {
			out = append(out, apply(table, j, a.side, a.sign, a.w)...)
		}
		return append(out, fmt.Sprint(table.MemStats()))
	}
	cases := []struct {
		name            string
		spare           func() *hashmem.Table
		lines, segments bool
	}{
		{"spare of the image", dirtied, true, true},
		{"spare that grew its lines", func() *hashmem.Table {
			s := dirtied()
			return s.Grow(2048, poolsFor(s))
		}, false, true},
		{"spare whose segments are not one array", func() *hashmem.Table {
			s := dirtied()
			s.SwapSegments()
			return s
		}, true, false},
		{"spare that fits in nothing", func() *hashmem.Table {
			s := dirtied()
			s = s.Grow(2048, poolsFor(s))
			s.SwapSegments()
			return s
		}, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spare := c.spare()
			grown := spare.Segments()
			if grown <= 2 {
				t.Fatalf("fixture: the spare's store holds %d segments, want it grown past the image's 2", grown)
			}
			got := f.Thaw(spare)
			if lines, segs := got.Shares(spare); lines != c.lines || segs != c.segments {
				t.Errorf("thaw took the spare's lines: %v, its segments: %v; want %v, %v", lines, segs, c.lines, c.segments)
			}
			if !reflect.DeepEqual(got.Freeze(), want) {
				t.Fatal("the thaw freezes differently from a fresh thaw")
			}
			if c.segments && got.Segments() != grown {
				t.Errorf("thaw kept %d segments of the spare's %d", got.Segments(), grown)
			}
			fresh := f.Thaw(nil)
			if w, g := walk(fresh), walk(got); !slices.Equal(g, w) {
				t.Fatalf("the same walk emitted %d items on the thaw, %d on a fresh one (last %s vs %s)", len(g), len(w), g[len(g)-1], w[len(w)-1])
			}
			if !reflect.DeepEqual(got.Freeze(), fresh.Freeze()) {
				t.Error("after the same walk the thaw freezes differently from a fresh thaw")
			}
		})
	}
}
