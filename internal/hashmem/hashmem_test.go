package hashmem_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/hashmem"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/symbols"
	"repro/internal/wm"
)

// fixture compiles a small join so tests have a real node to work with.
// Every test starts with it, so it also gives the test a fresh slot
// table and forgets the last test's pools.
func fixture(t *testing.T, src string) *rete.Network {
	t.Helper()
	testSlots = wm.NewSlots()
	clear(testPools)
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return net
}

const joinSrc = `(p r (a ^x <v>) (b ^y <v>) --> (halt))`
const notSrc = `(p r (a ^x <v>) - (b ^y <v>) --> (halt))`

// testSlots is the slot table every test WME is assigned in; slotsMu
// serializes the assignments of concurrent tests (reads need no lock).
var (
	slotsMu   sync.Mutex
	testSlots = wm.NewSlots()
)

func mkW(class uint32, tag int, vals ...int64) *wm.WME {
	fs := []wm.Value{wm.Sym(symbols.ID(class))}
	for _, v := range vals {
		fs = append(fs, wm.Int(v))
	}
	w := &wm.WME{TimeTag: tag, Fields: fs}
	slotsMu.Lock()
	testSlots.Assign(w)
	slotsMu.Unlock()
	return w
}

// toTok returns the slot span of a WME list.
func toTok(wmes []*wm.WME) []uint32 {
	tok := make([]uint32, len(wmes))
	for i, w := range wmes {
		tok[i] = w.Slot
	}
	return tok
}

// leftHash is j.LeftHash over a WME list.
func leftHash(j *rete.JoinNode, wmes []*wm.WME) uint64 {
	return j.LeftHash(testSlots.View(), toTok(wmes))
}

// testPools holds one Pools per recently used table for the
// single-goroutine tests; it forgets them all once it holds many, so the
// tables it keeps alive stay few.
var testPools = map[*hashmem.Table]*hashmem.Pools{}

// poolsFor returns t's pools with a fresh slot view.
func poolsFor(t *hashmem.Table) *hashmem.Pools {
	p := testPools[t]
	if p == nil {
		if len(testPools) >= 16 {
			clear(testPools)
		}
		p = &hashmem.Pools{}
		testPools[t] = p
	}
	p.Slots = testSlots.View()
	return p
}

// copyTable copies a settled table through an image: frozen and thawed
// at its own geometry, or re-slotted first, as every session image is
// when it is frozen (pin). A re-slotted source is dead afterwards unless
// Reslot returned it, as an image's live table is.
func copyTable(t *hashmem.Table, pin bool) *hashmem.Table {
	if pin {
		t = t.Reslot(poolsFor(t))
	}
	return t.Freeze().Thaw(nil)
}

// thawIntoSpare copies a settled table through an image the third way:
// thawed into a dirty spare, a table thawed from the same image that
// then ran on (dirty), as a deleted session's table is handed to the
// next session of its image. The thaw must take the spare's line array
// and segments and freeze byte for byte as a fresh thaw does.
func thawIntoSpare(t *testing.T, src *hashmem.Table, dirty func(*hashmem.Table)) *hashmem.Table {
	t.Helper()
	f := src.Freeze()
	spare := f.Thaw(nil)
	dirty(spare)
	got := f.Thaw(spare)
	if lines, segs := got.Shares(spare); !lines || !segs {
		t.Fatalf("thaw into a spare of its own image took its lines: %v, its segments: %v", lines, segs)
	}
	if !reflect.DeepEqual(got.Freeze(), f.Thaw(nil).Freeze()) {
		t.Fatal("a thaw into a dirty spare freezes differently from a fresh thaw")
	}
	return got
}

// churn runs a session's worth of traffic on table as its owner would:
// n left tokens of j inserted, every other one deleted again so its
// entry is recycled by a later insert, and every seventh an early
// right delete parked for a token that never arrives. The store grows
// past what the table was thawed with.
func churn(table *hashmem.Table, j *rete.JoinNode, n int) {
	for i := range n {
		w := []*wm.WME{mkW(1, 1_000_000+i, int64(i))}
		apply(table, j, rete.Left, true, w)
		if i%2 == 0 {
			apply(table, j, rete.Left, false, w)
		}
		if i%7 == 0 {
			apply(table, j, rete.Right, false, []*wm.WME{mkW(2, 2_000_000+i, int64(i))})
		}
	}
}

// layouts returns one table per storage layout so every behavioural test
// runs against both the node-segregated default and the legacy
// linked-list reference.
func layouts(nLines int) map[string]*hashmem.Table {
	return map[string]*hashmem.Table{
		"segregated": hashmem.New(nLines),
		"legacy":     hashmem.NewLegacy(nLines),
	}
}

// apply performs one activation against a table, returning emitted
// (sign, len) pairs. The table's live gauge is folded after each one.
func apply(table *hashmem.Table, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME) []string {
	var out []string
	var hash uint64
	if side == rete.Left {
		hash = leftHash(j, wmes)
	} else {
		hash = j.RightHash(wmes[0])
	}
	p := poolsFor(table)
	defer table.FoldLive(p)
	tok := toTok(wmes)
	idx := table.LineIndex(j, hash)
	entry, ref, res := table.UpdateOwn(idx, j, side, sign, tok, hash, nil, p)
	if !res.Proceeded {
		return out
	}
	table.SearchOpposite(ref, j, side, sign, tok, entry, nil, p, func(s bool, w []uint32) {
		tag := "+"
		if !s {
			tag = "-"
		}
		out = append(out, fmt.Sprintf("%s%d", tag, len(w)))
	})
	if !sign {
		p.FreeEntry(entry)
	}
	return out
}

func TestJoinEmitsPairs(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	for name, table := range layouts(4) {
		lw := mkW(1, 1, 5)
		rw := mkW(2, 2, 5)
		if got := apply(table, j, rete.Left, true, []*wm.WME{lw}); len(got) != 0 {
			t.Fatalf("%s: left with empty right emitted %v", name, got)
		}
		got := apply(table, j, rete.Right, true, []*wm.WME{rw})
		if len(got) != 1 || got[0] != "+2" {
			t.Fatalf("%s: right emitted %v, want [+2]", name, got)
		}
		// Deleting the left token retracts the pair.
		got = apply(table, j, rete.Left, false, []*wm.WME{lw})
		if len(got) != 1 || got[0] != "-2" {
			t.Fatalf("%s: left delete emitted %v, want [-2]", name, got)
		}
	}
}

func TestJoinRespectsTests(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	for name, table := range layouts(4) {
		apply(table, j, rete.Left, true, []*wm.WME{mkW(1, 1, 5)})
		if got := apply(table, j, rete.Right, true, []*wm.WME{mkW(2, 2, 6)}); len(got) != 0 {
			t.Fatalf("%s: mismatched values joined: %v", name, got)
		}
	}
}

// TestConjugateOrderings drives every interleaving of {+X, -X} pairs
// through one table and verifies the final memory is empty and no parked
// deletes remain — the invariant the parallel matchers rely on.
func TestConjugateOrderings(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	w := mkW(1, 1, 5)
	token := []*wm.WME{w}
	// Every multiset with equal + and - counts must drain, whatever the
	// processing order.
	seqs := [][]bool{
		{true, false},
		{false, true},
		{true, true, false, false},
		{true, false, true, false},
		{false, true, true, false},
		{false, false, true, true},
		{false, true, false, true},
		{true, false, false, true},
	}
	for i, seq := range seqs {
		for name, table := range layouts(4) {
			for _, sign := range seq {
				apply(table, j, rete.Left, sign, token)
			}
			if err := table.CheckDrained(); err != nil {
				t.Errorf("%s: sequence %d (%v): %v", name, i, seq, err)
			}
			if n := table.MemStats().Entries; n != 0 {
				t.Errorf("%s: sequence %d (%v): %d tokens left in memory", name, i, seq, n)
			}
		}
	}
}

func TestEarlyDeleteParksWithoutPropagating(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	for name, table := range layouts(4) {
		// A right WME is present, so a left delete *would* emit if processed.
		apply(table, j, rete.Right, true, []*wm.WME{mkW(2, 2, 5)})
		lw := []*wm.WME{mkW(1, 1, 5)}
		if got := apply(table, j, rete.Left, false, lw); len(got) != 0 {
			t.Fatalf("%s: early delete propagated: %v", name, got)
		}
		if err := table.CheckDrained(); err == nil {
			t.Fatalf("%s: parked delete not reported by CheckDrained", name)
		}
		// The matching add annihilates silently.
		if got := apply(table, j, rete.Left, true, lw); len(got) != 0 {
			t.Fatalf("%s: annihilating add propagated: %v", name, got)
		}
		if err := table.CheckDrained(); err != nil {
			t.Fatalf("%s: extra-deletes list not drained: %v", name, err)
		}
	}
}

func TestNegationCounts(t *testing.T) {
	net := fixture(t, notSrc)
	j := net.Joins[0]
	if !j.Negated {
		t.Fatal("fixture join should be negated")
	}
	for name, table := range layouts(4) {
		lw := []*wm.WME{mkW(1, 1, 5)}
		// Left token with no blockers passes through.
		if got := apply(table, j, rete.Left, true, lw); len(got) != 1 || got[0] != "+1" {
			t.Fatalf("%s: unblocked left emitted %v, want [+1]", name, got)
		}
		// A matching right WME retracts it.
		rw := []*wm.WME{mkW(2, 2, 5)}
		if got := apply(table, j, rete.Right, true, rw); len(got) != 1 || got[0] != "-1" {
			t.Fatalf("%s: blocker emitted %v, want [-1]", name, got)
		}
		// A second identical blocker changes nothing downstream.
		rw2 := []*wm.WME{mkW(2, 3, 5)}
		if got := apply(table, j, rete.Right, true, rw2); len(got) != 0 {
			t.Fatalf("%s: second blocker emitted %v", name, got)
		}
		// Removing one blocker: still blocked.
		if got := apply(table, j, rete.Right, false, rw); len(got) != 0 {
			t.Fatalf("%s: first unblock emitted %v", name, got)
		}
		// Removing the last blocker re-asserts the token.
		if got := apply(table, j, rete.Right, false, rw2); len(got) != 1 || got[0] != "+1" {
			t.Fatalf("%s: final unblock emitted %v, want [+1]", name, got)
		}
		// Deleting the passed left token retracts it.
		if got := apply(table, j, rete.Left, false, lw); len(got) != 1 || got[0] != "-1" {
			t.Fatalf("%s: left delete emitted %v, want [-1]", name, got)
		}
	}
}

func TestNegationNonMatchingBlockerIgnored(t *testing.T) {
	net := fixture(t, notSrc)
	j := net.Joins[0]
	for name, table := range layouts(4) {
		lw := []*wm.WME{mkW(1, 1, 5)}
		apply(table, j, rete.Left, true, lw)
		// Blocker with a different join value must not affect the token.
		if got := apply(table, j, rete.Right, true, []*wm.WME{mkW(2, 2, 7)}); len(got) != 0 {
			t.Fatalf("%s: non-matching blocker emitted %v", name, got)
		}
	}
}

func TestVS1PerNodeTable(t *testing.T) {
	net := fixture(t, joinSrc)
	table := hashmem.NewPerNode(len(net.Joins))
	j := net.Joins[0]
	if table.Hashed {
		t.Fatal("per-node table must not hash")
	}
	if table.Segregated() {
		t.Fatal("per-node table must not segregate")
	}
	if idx := table.LineIndex(j, 12345); idx != j.ID {
		t.Fatalf("LineIndex = %d, want node ID %d", idx, j.ID)
	}
}

func TestRecorderNodeCounts(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	for name, table := range layouts(4) {
		rec := hashmem.NewRecorder(len(net.Joins))
		w := []*wm.WME{mkW(1, 1, 5)}
		hash := leftHash(j, w)
		idx := table.LineIndex(j, hash)
		table.UpdateOwn(idx, j, rete.Left, true, toTok(w), hash, rec, poolsFor(table))
		if rec.NodeCount[rete.Left][j.ID] != 1 {
			t.Fatalf("%s: count after insert = %d", name, rec.NodeCount[rete.Left][j.ID])
		}
		table.UpdateOwn(idx, j, rete.Left, false, toTok(w), hash, rec, poolsFor(table))
		if rec.NodeCount[rete.Left][j.ID] != 0 {
			t.Fatalf("%s: count after delete = %d", name, rec.NodeCount[rete.Left][j.ID])
		}
	}
}

// TestGrowTargetPolicy pins the adaptive-growth policy: segregated
// tables ask to grow once the mean line depth passes the lazy trigger
// and size to the smallest power of two bringing the mean back to the
// target load; list layouts never grow.
func TestGrowTargetPolicy(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	seg := hashmem.New(1)
	leg := hashmem.NewLegacy(1)
	for i := 0; i < 20; i++ {
		tok := []*wm.WME{mkW(1, i+1, int64(i))}
		apply(seg, j, rete.Left, true, tok)
		apply(leg, j, rete.Left, true, tok)
	}
	// 20 live in 1 line exceeds the trigger (load 16); the target is the
	// smallest power of two whose mean load is back at 4: 8 lines.
	if n := seg.GrowTarget(); n != 8 {
		t.Errorf("segregated GrowTarget = %d, want 8 (smallest pow2 with load <= 4 for 20 live)", n)
	}
	if n := leg.GrowTarget(); n != 0 {
		t.Errorf("legacy GrowTarget = %d, want 0 (fixed layout)", n)
	}
	if n := hashmem.NewPerNode(len(net.Joins)).GrowTarget(); n != 0 {
		t.Errorf("per-node GrowTarget = %d, want 0", n)
	}
	if n := hashmem.New(64).GrowTarget(); n != 0 {
		t.Errorf("empty table GrowTarget = %d, want 0", n)
	}
}

// TestFoldLiveKeepsTheGaugeExact: activations count their inserts and
// deletes in their Pools, so the shared gauge moves only when the owner
// folds; two owners folding in any order must land on the same Entries —
// and the same growth decision — as a caller that folds after every
// activation.
func TestFoldLiveKeepsTheGaugeExact(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	direct, pooled := hashmem.New(1), hashmem.New(1)
	var a, b hashmem.Pools
	toks := map[int][]*wm.WME{}
	act := func(table *hashmem.Table, p *hashmem.Pools, sign bool, tag int) {
		if toks[tag] == nil {
			toks[tag] = []*wm.WME{mkW(1, tag, int64(tag))}
		}
		tok := toks[tag]
		hash := leftHash(j, tok)
		if p == nil {
			p = poolsFor(table)
			defer table.FoldLive(p)
		}
		table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, sign, toTok(tok), hash, nil, p)
	}
	for i := 1; i <= 24; i++ {
		owner := &a
		if i%3 == 0 {
			owner = &b
		}
		act(direct, nil, true, i)
		act(pooled, owner, true, i)
	}
	// b deletes what a inserted: its private delta goes negative.
	for _, tag := range []int{1, 2, 4} {
		act(direct, nil, false, tag)
		act(pooled, &b, false, tag)
	}
	if n := pooled.MemStats().Entries; n != 0 {
		t.Fatalf("gauge moved to %d before any fold", n)
	}
	pooled.FoldLive(&b)
	pooled.FoldLive(&a)
	pooled.FoldLive(&a) // a folded pool holds nothing more
	want := direct.MemStats()
	if got := pooled.MemStats(); got != want || got.Entries != 21 {
		t.Fatalf("folded gauges %+v, pool-less %+v, want equal with 21 entries", got, want)
	}
	if got, want := pooled.GrowTarget(), direct.GrowTarget(); got != want || got == 0 {
		t.Fatalf("GrowTarget %d after folds, %d pool-less, want equal and growing", got, want)
	}
}

// TestGrowPreservesNegationCounts grows a table holding a blocked left
// token and verifies the blocker count survives: Grow moves entry
// entries without copying them, so the NegCount a later unblock depends
// on stays intact.
func TestGrowPreservesNegationCounts(t *testing.T) {
	net := fixture(t, notSrc)
	j := net.Joins[0]
	table := hashmem.New(1)
	lw := []*wm.WME{mkW(1, 1, 5)}
	rw := []*wm.WME{mkW(2, 2, 5)}
	if got := apply(table, j, rete.Left, true, lw); len(got) != 1 || got[0] != "+1" {
		t.Fatalf("left add emitted %v", got)
	}
	if got := apply(table, j, rete.Right, true, rw); len(got) != 1 || got[0] != "-1" {
		t.Fatalf("blocker emitted %v", got)
	}
	// Pad until the load factor trips, then grow.
	for i := 0; i < 20; i++ {
		apply(table, j, rete.Left, true, []*wm.WME{mkW(1, 100+i, int64(50+i))})
	}
	n := table.GrowTarget()
	if n == 0 {
		t.Fatal("table did not reach its growth trigger")
	}
	table = table.Grow(n, poolsFor(table))
	if got := table.MemStats(); got.Resizes != 1 || got.Lines != int64(n) {
		t.Fatalf("post-grow stats = %+v, want resizes 1, lines %d", got, n)
	}
	// The unblock must find the moved entry's count and re-assert.
	if got := apply(table, j, rete.Right, false, rw); len(got) != 1 || got[0] != "+1" {
		t.Fatalf("unblock after grow emitted %v, want [+1]", got)
	}
}

// TestGrowRehashesParkedDeletes parks an early delete, grows the table,
// and verifies the conjugate add still annihilates: Grow re-slots the
// extra-deletes lists by stored hash along with the live entries.
func TestGrowRehashesParkedDeletes(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	table := hashmem.New(1)
	lw := []*wm.WME{mkW(1, 1, 5)}
	if got := apply(table, j, rete.Left, false, lw); len(got) != 0 {
		t.Fatalf("early delete propagated: %v", got)
	}
	for i := 0; i < 20; i++ {
		apply(table, j, rete.Left, true, []*wm.WME{mkW(1, 100+i, int64(50+i))})
	}
	n := table.GrowTarget()
	if n == 0 {
		t.Fatal("table did not reach its growth trigger")
	}
	table = table.Grow(n, poolsFor(table))
	if err := table.CheckDrained(); err == nil {
		t.Fatal("parked delete lost by Grow")
	}
	if got := apply(table, j, rete.Left, true, lw); len(got) != 0 {
		t.Fatalf("annihilating add after grow propagated: %v", got)
	}
	if err := table.CheckDrained(); err != nil {
		t.Fatalf("extra-deletes not drained after annihilation: %v", err)
	}
}

// emitKey renders one emission as sign plus the token's time tags, an
// order-independent identity for differential comparison.
func emitKey(sign bool, tok []uint32) string {
	s := "+"
	if !sign {
		s = "-"
	}
	for _, slot := range tok {
		s += fmt.Sprintf(",%d", testSlots.Get(slot).TimeTag)
	}
	return s
}

// TestStormDifferentialAcrossResize runs a randomized conjugate-balanced
// insert/remove/early-delete storm over three joins through the
// segregated layout — with adaptive growth firing mid-stream, including
// while deletes are parked, and the table swapped for a frozen copy
// (thawed as it is, re-slotted at a template pin first, or thawed into
// a dirty spare) at random points between activations — and in lockstep
// through the fixed legacy layout, and requires identical gauges at
// every such point, identical emission multisets, drained extra-deletes
// and empty final memories.
func TestStormDifferentialAcrossResize(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	joins := net.Joins[:3]
	rng := rand.New(rand.NewSource(7))

	type ev struct {
		j    *rete.JoinNode
		side rete.Side
		sign bool
		tok  []*wm.WME
	}
	var events []ev
	tag := 1
	const pairs = 900
	for i := 0; i < pairs; i++ {
		j := joins[rng.Intn(len(joins))]
		v := int64(rng.Intn(8)) // few distinct join values => real cross matches
		var side rete.Side
		var tok []*wm.WME
		if rng.Intn(2) == 0 {
			side, tok = rete.Left, []*wm.WME{mkW(1, tag, v)}
		} else {
			side, tok = rete.Right, []*wm.WME{mkW(2, tag, v)}
		}
		tag++
		// A full shuffle of conjugate pairs yields plenty of
		// minus-before-plus orderings, exercising the parking protocol.
		events = append(events, ev{j, side, true, tok}, ev{j, side, false, tok})
	}
	rng.Shuffle(len(events), func(a, b int) { events[a], events[b] = events[b], events[a] })

	step := func(table *hashmem.Table, e ev, got *[]string) {
		var hash uint64
		if e.side == rete.Left {
			hash = leftHash(e.j, e.tok)
		} else {
			hash = e.j.RightHash(e.tok[0])
		}
		p := poolsFor(table)
		defer table.FoldLive(p)
		tok := toTok(e.tok)
		idx := table.LineIndex(e.j, hash)
		entry, ref, res := table.UpdateOwn(idx, e.j, e.side, e.sign, tok, hash, nil, p)
		if res.Proceeded {
			table.SearchOpposite(ref, e.j, e.side, e.sign, tok, entry, nil, p,
				func(s bool, w []uint32) { *got = append(*got, emitKey(s, w)) })
			if !e.sign {
				p.FreeEntry(entry)
			}
		}
	}
	seg, leg := hashmem.New(1), hashmem.NewLegacy(64)
	sameGauges := func(i int, op string) {
		t.Helper()
		if s, l := seg.Parked(), leg.Parked(); s != l {
			t.Fatalf("event %d (%s): Parked() segregated %d, legacy %d", i, op, s, l)
		}
		if s, l := seg.MemStats().Entries, leg.MemStats().Entries; s != l {
			t.Fatalf("event %d (%s): Entries segregated %d, legacy %d", i, op, s, l)
		}
		s, l := seg.SizeByNode(net.NumJoinIDs()), leg.SizeByNode(net.NumJoinIDs())
		for id := range s {
			if s[id] != l[id] {
				t.Fatalf("event %d (%s): SizeByNode[%d] segregated %v, legacy %v", i, op, id, s[id], l[id])
			}
		}
	}
	var segGot, legGot []string
	copies := 0
	for i, e := range events {
		step(seg, e, &segGot)
		step(leg, e, &legGot)
		if n := seg.GrowTarget(); n > 0 {
			seg = seg.Grow(n, poolsFor(seg))
			sameGauges(i, "grow")
		}
		if rng.Intn(150) < 2 && i > len(events)/3 {
			// Carry on with the copy: thawed as it is, re-slotted (sized for
			// its live entries, so growth stops there), or thawed into a
			// spare that ran the next stretch of the storm first. The first
			// third of the storm is grow's.
			switch copies % 3 {
			case 2:
				rest := events[i+1:]
				seg = thawIntoSpare(t, seg, func(spare *hashmem.Table) {
					var discard []string
					for _, e := range rest[:min(len(rest), 300)] {
						step(spare, e, &discard)
					}
				})
			default:
				seg = copyTable(seg, copies%3 == 1)
			}
			copies++
			sameGauges(i, "copy")
		}
	}
	sort.Strings(segGot)
	sort.Strings(legGot)

	if len(segGot) != len(legGot) {
		t.Fatalf("emission counts differ: segregated %d, legacy %d", len(segGot), len(legGot))
	}
	for i := range segGot {
		if segGot[i] != legGot[i] {
			t.Fatalf("emission %d differs: segregated %q, legacy %q", i, segGot[i], legGot[i])
		}
	}
	if len(segGot) == 0 {
		t.Fatal("storm produced no emissions; workload too sparse to mean anything")
	}
	for name, table := range map[string]*hashmem.Table{"segregated": seg, "legacy": leg} {
		if err := table.CheckDrained(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if n := table.MemStats().Entries; n != 0 {
			t.Errorf("%s: %d tokens left in memory", name, n)
		}
	}
	if ms := seg.MemStats(); ms.Resizes == 0 || copies < 3 {
		t.Errorf("storm too tame: %d resizes, %d copies; raise the pair count", ms.Resizes, copies)
	}
}

// threeJoinSrc compiles to three independent two-CE joins, so a storm
// spreads over several node IDs.
const threeJoinSrc = `(p r1 (a ^x <v>) (b ^y <v>) --> (halt))
(p r2 (c ^x <v>) (d ^y <v>) --> (halt))
(p r3 (e ^x <v>) (f ^y <v>) --> (halt))`

// allLayouts returns one constructor per storage layout, per-node (vs1)
// included.
func allLayouts(numJoins int) map[string]func() *hashmem.Table {
	return map[string]func() *hashmem.Table{
		"segregated": func() *hashmem.Table { return hashmem.New(2) },
		"legacy":     func() *hashmem.Table { return hashmem.NewLegacy(8) },
		"pernode":    func() *hashmem.Table { return hashmem.NewPerNode(numJoins) },
	}
}

// TestParkedCountTracksWalk drives a randomized add/delete storm with
// forced early deletes through every layout, interleaving Grow, a frozen
// copy (thawed as it is, or re-slotted at a template pin first: the
// compacting and the fixed-geometry path) and Rebind, which must refuse
// while anything is held, and requires after every single step that the
// exact parked count equals a full walk of the extra-deletes lists and
// the model's own tally, and that CheckDrained fails exactly when that
// number is non-zero. Settled and emptied, the table rebinds.
func TestParkedCountTracksWalk(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	if len(net.Joins) < 3 {
		t.Fatalf("fixture compiled to %d joins, want >= 3", len(net.Joins))
	}
	joins := net.Joins[:3]

	type tok struct {
		j    *rete.JoinNode
		side rete.Side
		wmes []*wm.WME
	}
	for name, mk := range allLayouts(net.NumJoinIDs()) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			table := mk()
			var live, parked []tok
			tag := 1
			fresh := func() tok {
				j := joins[rng.Intn(len(joins))]
				side := rete.Side(rng.Intn(2))
				w := mkW(uint32(1+side), tag, int64(rng.Intn(6)))
				tag++
				return tok{j, side, []*wm.WME{w}}
			}
			take := func(s *[]tok) tok {
				i := rng.Intn(len(*s))
				x := (*s)[i]
				(*s)[i] = (*s)[len(*s)-1]
				*s = (*s)[:len(*s)-1]
				return x
			}
			check := func(step int, op string) {
				t.Helper()
				walk := table.WalkParked()
				if got := table.Parked(); got != walk || walk != int64(len(parked)) {
					t.Fatalf("step %d (%s): Parked() = %d, walk = %d, model = %d", step, op, got, walk, len(parked))
				}
				if err := table.CheckDrained(); (err != nil) != (walk != 0) {
					t.Fatalf("step %d (%s): CheckDrained = %v with %d parked", step, op, err, walk)
				}
			}
			var sawGrow, sawRefused bool
			copies := 0
			for step := 0; step < 4000; step++ {
				op := ""
				switch r := rng.Intn(100); {
				case r < 35:
					op = "add"
					x := fresh()
					apply(table, x.j, x.side, true, x.wmes)
					live = append(live, x)
				case r < 55 && len(live) > 0:
					op = "delete"
					x := take(&live)
					apply(table, x.j, x.side, false, x.wmes)
				case r < 75:
					op = "early delete"
					x := fresh()
					apply(table, x.j, x.side, false, x.wmes)
					parked = append(parked, x)
				case r < 92 && len(parked) > 0:
					op = "annihilating add"
					x := take(&parked)
					if got := apply(table, x.j, x.side, true, x.wmes); len(got) != 0 {
						t.Fatalf("step %d: annihilating add propagated %v", step, got)
					}
				case r < 95 && table.Segregated() && len(table.Lines) < 512:
					op = "grow"
					table = table.Grow(2*len(table.Lines), poolsFor(table))
					sawGrow = true
				case r < 98:
					op = "copy"
					// Carry on with the copy: what was frozen must be left as
					// it was, and the copy must count for itself from here on.
					orig := table
					if copies%2 == 1 {
						orig = table.Reslot(poolsFor(table))
					}
					before := orig.Parked()
					table = orig.Freeze().Thaw(nil)
					if orig.Parked() != before || orig.WalkParked() != before {
						t.Fatalf("step %d: Freeze disturbed the original's parked deletes", step)
					}
					copies++
				default:
					op = "rebind"
					if err := table.Rebind(len(joins)); (err == nil) != (len(live)+len(parked) == 0) {
						t.Fatalf("step %d: Rebind = %v with %d live and %d parked", step, err, len(live), len(parked))
					}
					sawRefused = sawRefused || len(live)+len(parked) > 0
				}
				if op != "" {
					check(step, op)
				}
			}
			if copies < 2 || !sawRefused || (table.Segregated() && !sawGrow) {
				t.Fatalf("storm too tame: grow %v copies %d rebind refused %v", sawGrow, copies, sawRefused)
			}
			// Settle: every outstanding conjugate arrives, the count reaches
			// zero, and CheckDrained is quiet again; emptied, the table
			// rebinds.
			for len(parked) > 0 {
				x := take(&parked)
				apply(table, x.j, x.side, true, x.wmes)
			}
			check(-1, "settle")
			for len(live) > 0 {
				x := take(&live)
				apply(table, x.j, x.side, false, x.wmes)
			}
			if err := table.Rebind(len(joins)); err != nil {
				t.Fatalf("Rebind of an empty table: %v", err)
			}
		})
	}
}

// TestCheckDrainedNamesLeftover pins the violation message: a parked
// delete nobody annihilates is reported with its line, node, side and
// token length, on every layout, exactly as the walking check did.
func TestCheckDrainedNamesLeftover(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	j := net.Joins[1]
	for name, mk := range allLayouts(net.NumJoinIDs()) {
		table := mk()
		rw := []*wm.WME{mkW(2, 1, 5)}
		apply(table, j, rete.Right, false, rw)
		idx := table.LineIndex(j, j.RightHash(rw[0]))
		want := fmt.Sprintf("line %d: unmatched early delete for node %d (right side, token len 1)", idx, j.ID)
		err := table.CheckDrained()
		if err == nil || err.Error() != want {
			t.Errorf("%s: CheckDrained = %v, want %q", name, err, want)
		}
	}
}

// TestLineFitsACacheLine pins the point of the layout: one activation on
// a one-run line touches one cache line of the table.
func TestLineFitsACacheLine(t *testing.T) {
	if hashmem.LineSize > 64 {
		t.Fatalf("Line is %d bytes, want <= 64", hashmem.LineSize)
	}
}

// own is apply's first half on a one-line table, leaving the search to
// the caller so tests can put other activations in between.
func own(table *hashmem.Table, j *rete.JoinNode, side rete.Side, sign bool, tok []*wm.WME) (uint32, hashmem.Ref) {
	entry, ref, _ := table.UpdateOwn(0, j, side, sign, toTok(tok), tokHash(j, side, tok), nil, poolsFor(table))
	return entry, ref
}

// tokHash is the line hash of a token of j's side.
func tokHash(j *rete.JoinNode, side rete.Side, tok []*wm.WME) uint64 {
	return j.TokenHash(testSlots.View(), side, toTok(tok))
}

// TestStaleRefReadsItsOppositeList holds a Ref across same-side
// activations of other nodes on the same line — what the MRSW scheme
// allows between an UpdateOwn and its SearchOpposite — that first grow
// the overflow sub-index out from under the run it came from and then
// re-key the inline run it came from: the search must still see exactly
// the opposite list of its own (node, hash).
func TestStaleRefReadsItsOppositeList(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	j1, j2, j3 := net.Joins[0], net.Joins[1], net.Joins[2]
	table := hashmem.New(1)
	line := &table.Lines[0]
	search := func(j *rete.JoinNode, side rete.Side, sign bool, tok []*wm.WME, entry uint32, ref hashmem.Ref) []string {
		var out []string
		table.SearchOpposite(ref, j, side, sign, toTok(tok), entry, nil, poolsFor(table),
			func(s bool, w []uint32) { out = append(out, emitKey(s, w)) })
		return out
	}
	left := func(tag int, v int64) []*wm.WME { return []*wm.WME{mkW(1, tag, v)} }

	// An overflow run outgrown. (j1, 5) takes the inline slot, (j1, 6) the
	// first overflow slot, where the left token's ref comes from.
	r5 := []*wm.WME{mkW(2, 1, 5)}
	apply(table, j1, rete.Right, true, r5)
	apply(table, j1, rete.Right, true, []*wm.WME{mkW(2, 2, 6)})
	l6 := left(3, 6)
	entry, ref := own(table, j1, rete.Left, true, l6)
	if line.InlineHolds(j1.ID, tokHash(j1, rete.Left, l6)) || line.OverflowSlots() == 0 {
		t.Fatalf("fixture: (j1, 6) should sit in the overflow sub-index (slots %d)", line.OverflowSlots())
	}
	before := line.OverflowSlots()
	for i, j := range []*rete.JoinNode{j2, j3, j2, j3, j2, j3} {
		own(table, j, rete.Left, true, left(10+i, int64(20+i))) // six new keys, left side only
	}
	own(table, j1, rete.Left, true, left(4, 6)) // and a sibling in the ref's own run, new array
	if line.OverflowSlots() <= before {
		t.Fatalf("fixture: overflow sub-index did not grow (%d slots)", line.OverflowSlots())
	}
	if got := search(j1, rete.Left, true, l6, entry, ref); len(got) != 1 || got[0] != "+,3,2" {
		t.Fatalf("search through an outgrown ref emitted %v, want [+,3,2]", got)
	}

	// The inline run emptied and re-keyed. Deleting (j1, 5)'s only token
	// leaves both its lists empty; the next new key on the line takes the
	// slot while the delete's ref is still to be searched.
	if !line.InlineHolds(j1.ID, tokHash(j1, rete.Right, r5)) {
		t.Fatal("fixture: (j1, 5) should be the inline run")
	}
	entry, ref = own(table, j1, rete.Right, false, r5)
	r99 := []*wm.WME{mkW(2, 30, 99)}
	own(table, j2, rete.Right, true, r99)
	if !line.InlineHolds(j2.ID, tokHash(j2, rete.Right, r99)) {
		t.Fatal("fixture: the new key did not re-key the emptied inline run")
	}
	if got := search(j1, rete.Right, false, r5, entry, ref); len(got) != 0 {
		t.Fatalf("search through a re-keyed ref emitted %v, want nothing", got)
	}
}

// TestFreezeAndGrowKeepRunOrder: a run's tokens must come out of
// Freeze→Thaw, a thaw into a dirty spare, an image's re-slot (up from a
// small table, down from a grown one, or kept at its own size) and Grow
// in the order they went in, or a copy's delete scans (Table 4-3's
// same-memory counts) would differ from the original's.
func TestFreezeAndGrowKeepRunOrder(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	orig := hashmem.New(2)
	var toks [][]*wm.WME
	for i := 0; i < 40; i++ {
		tok := []*wm.WME{mkW(1, i+1, int64(i%3))} // three runs of 13-14 tokens
		toks = append(toks, tok)
		apply(orig, j, rete.Left, true, tok)
	}
	rand.New(rand.NewSource(3)).Shuffle(len(toks), func(a, b int) { toks[a], toks[b] = toks[b], toks[a] })
	scans := func(table *hashmem.Table) []int {
		var out []int
		for _, tok := range toks {
			hash := leftHash(j, tok)
			_, _, res := table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, false, toTok(tok), hash, nil, poolsFor(table))
			if !res.Proceeded {
				t.Fatalf("token %d not found", tok[0].TimeTag)
			}
			out = append(out, res.OwnScanned)
		}
		return out
	}
	thawed := copyTable(orig, false)
	pinned := copyTable(copyTable(orig, false), true)
	grown := copyTable(orig, false)
	grown = grown.Grow(64, poolsFor(grown))
	regrown := copyTable(grown, false)
	regrown = copyTable(regrown.Grow(4096, poolsFor(regrown)), false)
	repinned := copyTable(regrown, false)
	repinned = copyTable(repinned.Grow(8192, poolsFor(repinned)), true)
	kept := copyTable(orig, false)
	kept = kept.Grow(1024, poolsFor(kept))
	if kept.Reslot(poolsFor(kept)) != kept {
		t.Fatal("re-slotting a 1 024-line table of 40 tokens rebuilt it")
	}
	kept = copyTable(kept, true)
	recycled := thawIntoSpare(t, orig, func(spare *hashmem.Table) { churn(spare, j, 6000) })
	want := scans(orig)
	if deepest := slices.Max(want); deepest < 5 {
		t.Fatalf("fixture: deepest delete scan %d, runs too short to tell orders apart", deepest)
	}
	for name, table := range map[string]*hashmem.Table{"thawed": thawed, "pinned": pinned, "grown": grown, "regrown": regrown, "repinned": repinned, "kept": kept, "recycled": recycled} {
		if got := scans(table); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: delete scan counts %v, original %v", name, got, want)
		}
	}
}

// TestEntriesRecycleWithoutACap: every entry a delete unlinks is reused
// by a later insert, however many there are — the free list has no cap,
// so a working memory that swells and shrinks allocates its peak once.
func TestEntriesRecycleWithoutACap(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	const n = 5000
	table := hashmem.New(n)
	pools := poolsFor(table)
	toks := make([][]uint32, n)
	hashes := make([]uint64, n)
	for i := range toks {
		w := []*wm.WME{mkW(1, i+1, int64(i))}
		toks[i], hashes[i] = toTok(w), leftHash(j, w)
	}
	round := func() {
		for _, sign := range []bool{true, false} {
			for i, tok := range toks {
				hash := hashes[i]
				e, _, res := table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, sign, tok, hash, nil, pools)
				if !res.Proceeded {
					t.Fatal("activation did not proceed")
				}
				if !sign {
					pools.FreeEntry(e)
				}
			}
		}
	}
	round() // allocates the slabs and the overflow runs
	if allocs := testing.AllocsPerRun(3, round); allocs > 0 {
		t.Fatalf("a round of %d inserts and deletes over recycled entries made %.0f allocations, want 0", n, allocs)
	}
}

// TestSameSideEpochKeepsRefsSound is the MRSW discipline on one line
// under the race detector: several goroutines run left activations of
// three nodes at once, UpdateOwn under a shared modification lock and
// SearchOpposite outside it, while run slots are created, outgrown,
// emptied and re-keyed around the Refs in flight. The right memories are
// frozen for the epoch, so every insert must pair with exactly the right
// tokens of its own (node, value) and every delete retract as many.
func TestSameSideEpochKeepsRefsSound(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	joins := net.Joins[:3]
	table := hashmem.New(1)
	// A partnerless left token takes the inline run before any right token
	// arrives, so the slot is free to empty and re-key during the epoch.
	l0 := []*wm.WME{mkW(1, 1, 100)}
	apply(table, joins[0], rete.Left, true, l0)
	tag := 2
	rights := func(j *rete.JoinNode, v int64) int { return (j.ID + int(v)) % 3 } // 0..2 partners
	for _, j := range joins {
		for v := int64(0); v < 4; v++ {
			for k := 0; k < rights(j, v); k++ {
				apply(table, j, rete.Right, true, []*wm.WME{mkW(2, tag, v)})
				tag++
			}
		}
	}

	var mod sync.Mutex
	activate := func(p *hashmem.Pools, j *rete.JoinNode, sign bool, wmes []*wm.WME) (pairs int) {
		p.Slots = testSlots.View()
		tok := toTok(wmes)
		hash := j.LeftHash(p.Slots, tok)
		mod.Lock()
		entry, ref, res := table.UpdateOwn(0, j, rete.Left, sign, tok, hash, nil, p)
		mod.Unlock()
		if !res.Proceeded {
			return -1
		}
		table.SearchOpposite(ref, j, rete.Left, sign, tok, entry, nil, p, func(bool, []uint32) { pairs++ })
		if !sign {
			p.FreeEntry(entry)
		}
		return pairs
	}
	const workers, rounds = 4, 400
	pools := make([]hashmem.Pools, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			p := &pools[w]
			if w == 0 {
				if got := activate(p, joins[0], false, l0); got != 0 {
					t.Errorf("partnerless delete emitted %d pairs", got)
				}
			}
			for i := 0; i < rounds; i++ {
				j := joins[rng.Intn(len(joins))]
				v := int64(rng.Intn(4))
				if rng.Intn(3) == 0 {
					v = int64(1000 + rng.Intn(50)) // a key of its own: new slots, no partners
				}
				want := 0
				if v < 4 {
					want = rights(j, v)
				}
				tok := []*wm.WME{mkW(1, 1_000_000*(w+1)+i, v)}
				for _, sign := range []bool{true, false} {
					if got := activate(p, j, sign, tok); got != want {
						t.Errorf("worker %d: node %d value %d sign %v emitted %d pairs, want %d", w, j.ID, v, sign, got, want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range pools {
		table.FoldLive(&pools[i])
	}
	if err := table.CheckDrained(); err != nil {
		t.Error(err)
	}
	if got, want := table.MemStats().Entries, int64(tag-2); got != want {
		t.Errorf("%d entries left, want the %d right tokens", got, want)
	}
}

// TestListRemoveDuplicates covers duplicate tokens on the list layouts,
// where out-of-order parallel processing can legitimately store the
// same token twice: each delete takes out exactly one instance, and a
// third finds nothing and parks.
func TestListRemoveDuplicates(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	for name, mk := range allLayouts(net.NumJoinIDs()) {
		table := mk()
		w := []*wm.WME{mkW(1, 1, 1)}
		apply(table, j, rete.Left, true, w)
		apply(table, j, rete.Left, true, w)
		if n := table.MemStats().Entries; n != 2 {
			t.Fatalf("%s: %d entries after two inserts, want 2", name, n)
		}
		hash := leftHash(j, w)
		idx := table.LineIndex(j, hash)
		for i, want := range []bool{true, true, false} {
			_, _, res := table.UpdateOwn(idx, j, rete.Left, false, toTok(w), hash, nil, poolsFor(table))
			if res.Proceeded != want {
				t.Fatalf("%s: delete %d proceeded = %v, want %v", name, i+1, res.Proceeded, want)
			}
		}
		if table.Parked() != 1 {
			t.Fatalf("%s: the unmatched third delete did not park", name)
		}
	}
}

// TestOverflowSubIndexSpansSegments crowds one line with more runs than
// a store segment can index, so the overflow sub-index outgrows a
// segment and is laid out across fresh ones; every run must still be
// found, joined and deleted, in the table and in its frozen copies.
func TestOverflowSubIndexSpansSegments(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	table := hashmem.New(1)
	const n = 8000 // a 16 384-slot sub-index: 80 k words, past a 32 k-word segment
	lefts := make([][]*wm.WME, n)
	for i := range lefts {
		lefts[i] = []*wm.WME{mkW(1, i+1, int64(i))}
		apply(table, j, rete.Left, true, lefts[i])
	}
	if slots := table.Lines[0].OverflowSlots(); slots*5 <= 1<<15 {
		t.Fatalf("fixture: %d overflow slots fit one segment", slots)
	}
	copies := map[string]*hashmem.Table{"table": table, "thawed": copyTable(table, false), "pinned": copyTable(copyTable(table, false), true)}
	for name, tb := range copies {
		for i := 0; i < n; i += 97 {
			rw := []*wm.WME{mkW(2, n+i+1, int64(i))}
			if got := apply(tb, j, rete.Right, true, rw); len(got) != 1 || got[0] != "+2" {
				t.Fatalf("%s: right %d emitted %v, want [+2]", name, i, got)
			}
			if got := apply(tb, j, rete.Right, false, rw); len(got) != 1 || got[0] != "-2" {
				t.Fatalf("%s: right delete %d emitted %v, want [-2]", name, i, got)
			}
		}
	}
	for i := range lefts {
		apply(table, j, rete.Left, false, lefts[i])
	}
	if n := table.MemStats().Entries; n != 0 || table.CheckDrained() != nil {
		t.Fatalf("%d entries left after deleting every token", n)
	}
}
