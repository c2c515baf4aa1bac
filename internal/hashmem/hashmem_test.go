package hashmem_test

import (
	"fmt"
	"math/rand"
	"sort"
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
// insert/remove/early-delete storm through the segregated layout — with
// adaptive growth firing mid-stream, including while deletes are parked —
// and through the fixed legacy layout, and requires identical emission
// multisets, drained extra-deletes and empty final memories.
func TestStormDifferentialAcrossResize(t *testing.T) {
	net := fixture(t, joinSrc)
	j := net.Joins[0]
	rng := rand.New(rand.NewSource(7))

	type ev struct {
		side rete.Side
		sign bool
		tok  []*wm.WME
	}
	var events []ev
	tag := 1
	const pairs = 400
	for i := 0; i < pairs; i++ {
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
		events = append(events, ev{side, true, tok}, ev{side, false, tok})
	}
	rng.Shuffle(len(events), func(a, b int) { events[a], events[b] = events[b], events[a] })

	run := func(table *hashmem.Table, grow bool) ([]string, *hashmem.Table) {
		var got []string
		for _, e := range events {
			var hash uint64
			if e.side == rete.Left {
				hash = j.LeftHash(e.tok)
			} else {
				hash = j.RightHash(e.tok[0])
			}
			idx := table.LineIndex(j, hash)
			entry, ref, res := table.UpdateOwn(idx, j, e.side, e.sign, e.tok, hash, nil, nil)
			if res.Proceeded {
				table.SearchOpposite(idx, ref, j, e.side, e.sign, e.tok, entry, nil, nil,
					func(s bool, w []*wm.WME) { got = append(got, emitKey(s, w)) })
			}
			if grow {
				if n := table.GrowTarget(); n > 0 {
					table = table.Grow(n)
				}
			}
		}
		sort.Strings(got)
		return got, table
	}

	segGot, seg := run(hashmem.New(1), true)
	legGot, leg := run(hashmem.NewLegacy(64), false)

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
	ms := seg.MemStats()
	if ms.Resizes == 0 || ms.Lines == 1 {
		t.Errorf("storm never grew the table (resizes %d, lines %d); raise the pair count", ms.Resizes, ms.Lines)
	}
}

// walkParked counts parked early deletes the slow way — every line's
// extra-deletes lists, entry by entry — which is what CheckDrained did
// before the table kept an exact count. The tests hold Table.Parked to
// it after every mutation.
func walkParked(table *hashmem.Table) int64 {
	var n int64
	for i := range table.Lines {
		for s := 0; s < 2; s++ {
			for e := table.Lines[i].XDel[s].Head; e != nil; e = e.Next {
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
