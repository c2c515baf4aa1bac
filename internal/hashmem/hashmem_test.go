package hashmem_test

import (
	"fmt"
	"math/rand"
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
func fixture(t *testing.T, src string) *rete.Network {
	t.Helper()
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

func mkW(class uint32, tag int, vals ...int64) *wm.WME {
	fs := []wm.Value{wm.Sym(symbols.ID(class))}
	for _, v := range vals {
		fs = append(fs, wm.Int(v))
	}
	return &wm.WME{TimeTag: tag, Fields: fs}
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
// (sign, len) pairs.
func apply(table *hashmem.Table, j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME) []string {
	var out []string
	var hash uint64
	if side == rete.Left {
		hash = j.LeftHash(wmes)
	} else {
		hash = j.RightHash(wmes[0])
	}
	idx := table.LineIndex(j, hash)
	entry, ref, res := table.UpdateOwn(idx, j, side, sign, wmes, hash, nil, nil)
	if !res.Proceeded {
		return out
	}
	table.SearchOpposite(idx, ref, j, side, sign, wmes, entry, nil, nil, func(s bool, w []*wm.WME) {
		tag := "+"
		if !s {
			tag = "-"
		}
		out = append(out, fmt.Sprintf("%s%d", tag, len(w)))
	})
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
		hash := j.LeftHash(w)
		idx := table.LineIndex(j, hash)
		table.UpdateOwn(idx, j, rete.Left, true, w, hash, rec, nil)
		if rec.NodeCount[rete.Left][j.ID] != 1 {
			t.Fatalf("%s: count after insert = %d", name, rec.NodeCount[rete.Left][j.ID])
		}
		table.UpdateOwn(idx, j, rete.Left, false, w, hash, rec, nil)
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

// TestFoldLiveKeepsTheGaugeExact: activations that bring a Pools count
// their inserts and deletes there, so the shared gauge moves only when
// the owner folds; two owners folding in any order must land on the
// same Entries — and the same growth decision — as pool-less callers
// that write the gauge directly.
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
		hash := j.LeftHash(tok)
		table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, sign, tok, hash, nil, p)
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
// objects rather than copying them, so the NegCount identity a later
// unblock depends on stays intact.
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
	table = table.Grow(n)
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
	table = table.Grow(n)
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
func emitKey(sign bool, wmes []*wm.WME) string {
	s := "+"
	if !sign {
		s = "-"
	}
	for _, w := range wmes {
		s += fmt.Sprintf(",%d", w.TimeTag)
	}
	return s
}

// TestStormDifferentialAcrossResize runs a randomized conjugate-balanced
// insert/remove/early-delete storm over three joins through the
// segregated layout — with adaptive growth firing mid-stream, including
// while deletes are parked, and the table swapped for its Clone and
// joins excised at random points between activations — and in lockstep
// through the fixed legacy layout (which sees the same excises), and
// requires identical gauges at every such point, identical emission
// multisets, drained extra-deletes and empty final memories.
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
			hash = e.j.LeftHash(e.tok)
		} else {
			hash = e.j.RightHash(e.tok[0])
		}
		idx := table.LineIndex(e.j, hash)
		entry, ref, res := table.UpdateOwn(idx, e.j, e.side, e.sign, e.tok, hash, nil, nil)
		if res.Proceeded {
			table.SearchOpposite(idx, ref, e.j, e.side, e.sign, e.tok, entry, nil, nil,
				func(s bool, w []*wm.WME) { *got = append(*got, emitKey(s, w)) })
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
	dead := map[*rete.JoinNode]bool{}
	clones := 0
	for i, e := range events {
		if dead[e.j] {
			continue // its tokens left with the node, in both tables
		}
		step(seg, e, &segGot)
		step(leg, e, &legGot)
		if n := seg.GrowTarget(); n > 0 {
			seg = seg.Grow(n)
			sameGauges(i, "grow")
		}
		switch r := rng.Intn(150); {
		case r < 2 && i > len(events)/3:
			// Carry on with the copy. It is sized for its live entries, so
			// growth stops here: the first third of the storm is grow's.
			seg = seg.Clone()
			clones++
			sameGauges(i, "clone")
		case r == 2 && i > len(events)/2 && len(dead) < 2:
			j := joins[rng.Intn(len(joins))]
			if dead[j] {
				break
			}
			dead[j] = true
			ns, nl := seg.ExciseNodes(map[int]bool{j.ID: true}, nil), leg.ExciseNodes(map[int]bool{j.ID: true}, nil)
			if ns != nl {
				t.Fatalf("event %d: ExciseNodes dropped %d segregated, %d legacy", i, ns, nl)
			}
			sameGauges(i, "excise")
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
	if ms := seg.MemStats(); ms.Resizes == 0 || clones == 0 || len(dead) == 0 {
		t.Errorf("storm too tame: %d resizes, %d clones, %d excises; raise the pair count", ms.Resizes, clones, len(dead))
	}
}

// walkParked counts parked early deletes the slow way — every line's
// extra-deletes lists, entry by entry — which is what CheckDrained did
// before the table kept an exact count. The tests hold Table.Parked to
// it after every mutation.
func walkParked(table *hashmem.Table) int64 {
	var n int64
	for i := range table.Lines {
		for s := rete.Left; s <= rete.Right; s++ {
			for e := table.Lines[i].ParkedHead(s); e != nil; e = e.Next {
				n++
			}
		}
	}
	return n
}

// threeJoinSrc compiles to three independent two-CE joins, so the storm
// has several node IDs to excise one at a time.
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
// forced early deletes through every layout, interleaving Grow, Clone
// (the compacting and the fixed-geometry path) and ExciseNodes, and
// requires after every single step that the exact parked count equals
// a full walk of the extra-deletes lists and the model's own tally, and
// that CheckDrained fails exactly when that number is non-zero.
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
				walk := walkParked(table)
				if got := table.Parked(); got != walk || walk != int64(len(parked)) {
					t.Fatalf("step %d (%s): Parked() = %d, walk = %d, model = %d", step, op, got, walk, len(parked))
				}
				if err := table.CheckDrained(); (err != nil) != (walk != 0) {
					t.Fatalf("step %d (%s): CheckDrained = %v with %d parked", step, op, err, walk)
				}
			}
			var sawGrow, sawClone, sawExcise, sawParkedExcise bool
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
					table = table.Grow(2 * len(table.Lines))
					sawGrow = true
				case r < 98:
					op = "clone"
					// Carry on with the copy: the original must be left as it
					// was, and the copy must count for itself from here on.
					orig, before := table, table.Parked()
					table = table.Clone()
					if orig.Parked() != before || walkParked(orig) != before {
						t.Fatalf("step %d: Clone disturbed the original's parked deletes", step)
					}
					sawClone = true
				default:
					op = "excise"
					dead := joins[rng.Intn(len(joins))]
					keep := func(s []tok) []tok {
						out := s[:0]
						for _, x := range s {
							if x.j != dead {
								out = append(out, x)
							}
						}
						return out
					}
					n := len(parked)
					table.ExciseNodes(map[int]bool{dead.ID: true}, nil)
					live, parked = keep(live), keep(parked)
					sawExcise = true
					sawParkedExcise = sawParkedExcise || len(parked) < n
				}
				if op != "" {
					check(step, op)
				}
			}
			if !sawClone || !sawExcise || !sawParkedExcise || (table.Segregated() && !sawGrow) {
				t.Fatalf("storm too tame: grow %v clone %v excise %v excise-with-parked %v",
					sawGrow, sawClone, sawExcise, sawParkedExcise)
			}
			// Settle: every outstanding conjugate arrives, the count reaches
			// zero, and CheckDrained is quiet again.
			for len(parked) > 0 {
				x := take(&parked)
				apply(table, x.j, x.side, true, x.wmes)
			}
			check(-1, "settle")
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
func own(table *hashmem.Table, j *rete.JoinNode, side rete.Side, sign bool, tok []*wm.WME) (*rete.Entry, hashmem.Ref) {
	hash := j.RightHash(tok[0])
	if side == rete.Left {
		hash = j.LeftHash(tok)
	}
	entry, ref, _ := table.UpdateOwn(0, j, side, sign, tok, hash, nil, nil)
	return entry, ref
}

// TestStaleRefReadsItsOppositeList holds a Ref across same-side
// activations of other nodes on the same line — what the MRSW scheme
// allows between an UpdateOwn and its SearchOpposite — that first grow
// the overflow sub-index out from under it and then re-key the inline
// run it points at: the search must still see exactly the opposite list
// of its own (node, hash).
func TestStaleRefReadsItsOppositeList(t *testing.T) {
	net := fixture(t, threeJoinSrc)
	j1, j2, j3 := net.Joins[0], net.Joins[1], net.Joins[2]
	table := hashmem.New(1)
	line := &table.Lines[0]
	search := func(j *rete.JoinNode, side rete.Side, sign bool, tok []*wm.WME, entry *rete.Entry, ref hashmem.Ref) []string {
		var out []string
		table.SearchOpposite(0, ref, j, side, sign, tok, entry, nil, nil,
			func(s bool, w []*wm.WME) { out = append(out, emitKey(s, w)) })
		return out
	}
	left := func(tag int, v int64) []*wm.WME { return []*wm.WME{mkW(1, tag, v)} }

	// An overflow run outgrown. (j1, 5) takes the inline slot, (j1, 6) the
	// first overflow slot; the left token's ref points into that array.
	r5 := []*wm.WME{mkW(2, 1, 5)}
	apply(table, j1, rete.Right, true, r5)
	apply(table, j1, rete.Right, true, []*wm.WME{mkW(2, 2, 6)})
	l6 := left(3, 6)
	entry, ref := own(table, j1, rete.Left, true, l6)
	if ref.Inline(line) || line.OverflowSlots() == 0 {
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
	// slot while the delete's ref still points at it.
	entry, ref = own(table, j1, rete.Right, false, r5)
	if !ref.Inline(line) {
		t.Fatal("fixture: (j1, 5) should be the inline run")
	}
	r99 := []*wm.WME{mkW(2, 30, 99)}
	own(table, j2, rete.Right, true, r99)
	if _, again := own(table, j2, rete.Right, false, r99); !again.Inline(line) {
		t.Fatal("fixture: the new key did not re-key the emptied inline run")
	}
	if got := search(j1, rete.Right, false, r5, entry, ref); len(got) != 0 {
		t.Fatalf("search through a re-keyed ref emitted %v, want nothing", got)
	}
}

// TestCloneAndGrowKeepRunOrder: a run's tokens must come out of Clone
// and Grow in the order they went in, or a copy's delete scans (Table
// 4-3's same-memory counts) would differ from the original's.
func TestCloneAndGrowKeepRunOrder(t *testing.T) {
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
			hash := j.LeftHash(tok)
			_, _, res := table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, false, tok, hash, nil, nil)
			if !res.Proceeded {
				t.Fatalf("token %d not found", tok[0].TimeTag)
			}
			out = append(out, res.OwnScanned)
		}
		return out
	}
	clone := orig.Clone()
	grown := orig.Clone().Grow(64)
	regrown := grown.Clone().Grow(4096).Clone()
	want := scans(orig)
	if deepest := slices.Max(want); deepest < 5 {
		t.Fatalf("fixture: deepest delete scan %d, runs too short to tell orders apart", deepest)
	}
	for name, table := range map[string]*hashmem.Table{"clone": clone, "grown": grown, "regrown": regrown} {
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
	var pools hashmem.Pools
	toks := make([][]*wm.WME, n)
	for i := range toks {
		toks[i] = []*wm.WME{mkW(1, i+1, int64(i))}
	}
	round := func() {
		for _, sign := range []bool{true, false} {
			for _, tok := range toks {
				hash := j.LeftHash(tok)
				e, _, res := table.UpdateOwn(table.LineIndex(j, hash), j, rete.Left, sign, tok, hash, nil, &pools)
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
	activate := func(p *hashmem.Pools, j *rete.JoinNode, sign bool, tok []*wm.WME) (pairs int) {
		hash := j.LeftHash(tok)
		mod.Lock()
		entry, ref, res := table.UpdateOwn(0, j, rete.Left, sign, tok, hash, nil, p)
		mod.Unlock()
		if !res.Proceeded {
			return -1
		}
		table.SearchOpposite(0, ref, j, rete.Left, sign, tok, entry, nil, p, func(bool, []*wm.WME) { pairs++ })
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
