package engine_test

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/lispemu"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
)

// dynBase is the standing program the dynamic tests grow and shrink.
// keep yields two instantiations over the initial working memory
// (red/3 and red/8 both fit the red box; blue/5 overflows the blue box).
const dynBase = `
(literalize item kind size)
(literalize box kind cap)
(literalize tally size)
(make item ^kind red ^size 3)
(make item ^kind blue ^size 5)
(make item ^kind red ^size 8)
(make box ^kind red ^cap 10)
(make box ^kind blue ^cap 4)
(p keep (item ^kind <k> ^size <s>) (box ^kind <k> ^cap > <s>) --> (write fits))
`

// dynNewRules adds a negated join (lonely) and a rule that shares
// keep's (item,box) join and extends it (pair).
const dynNewRules = `
(p lonely (box ^kind <k> ^cap <c>) - (item ^kind <k> ^size > <c>) --> (write empty))
(p pair (item ^kind <k> ^size <s>) (box ^kind <k> ^cap > <s>) (item ^kind blue ^size <s2>) --> (write pair))
`

type dynBackend struct {
	name string
	new  func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func())
}

func dynBackends() []dynBackend {
	out := []dynBackend{
		{"vs1", func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
			return seqmatch.New(net, seqmatch.VS1, 0, cs), func() {}
		}},
		{"vs2", func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
			return seqmatch.New(net, seqmatch.VS2, 0, cs), func() {}
		}},
	}
	for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
		for _, procs := range []int{1, 2, 4, 8} {
			scheme, procs := scheme, procs
			out = append(out, dynBackend{
				fmt.Sprintf("par-%s-%d", scheme, procs),
				func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
					m := parmatch.New(net, parmatch.Config{Procs: procs, Queues: 2, Scheme: scheme}, cs)
					return m, m.Close
				},
			})
		}
	}
	return out
}

// newDynEngine compiles src onto backend b and runs Init.
func newDynEngine(t *testing.T, src string, b dynBackend) (*engine.Engine, func()) {
	t.Helper()
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cs := conflict.NewSet()
	m, closer := b.new(net, cs)
	e, err := engine.New(prog, net, cs, m, nil)
	if err != nil {
		closer()
		t.Fatalf("engine: %v", err)
	}
	if err := e.Init(); err != nil {
		closer()
		t.Fatalf("init: %v", err)
	}
	return e, closer
}

// csKeys renders the unfired conflict set as sorted rule+timetag keys,
// the equivalence currency of these tests: the same working memory
// matched by the same rule set must produce the same set regardless of
// whether the rules were compiled up front or built at runtime.
func csKeys(e *engine.Engine) []string {
	var out []string
	for _, inst := range e.CS.Snapshot() {
		if inst.Fired {
			continue
		}
		tags := make([]int, len(inst.Wmes))
		for i, w := range inst.Wmes {
			tags[i] = w.TimeTag
		}
		out = append(out, fmt.Sprintf("%s%v", inst.Rule.Rule.Name, tags))
	}
	sort.Strings(out)
	return out
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDynamicAddEquivalence: building rules into a live engine must
// leave the conflict set identical to compiling everything up front —
// per backend, including 1..8 parallel workers under both lock schemes.
func TestDynamicAddEquivalence(t *testing.T) {
	for _, b := range dynBackends() {
		t.Run(b.name, func(t *testing.T) {
			e, closeE := newDynEngine(t, dynBase, b)
			defer closeE()
			added, _, err := e.AddRules(dynNewRules)
			if err != nil {
				t.Fatalf("AddRules: %v", err)
			}
			if len(added) != 2 || e.Epoch() != 2 {
				t.Fatalf("added %v at epoch %d, want 2 rules at epoch 2", added, e.Epoch())
			}
			fresh, closeF := newDynEngine(t, dynBase+dynNewRules, b)
			defer closeF()
			got, want := csKeys(e), csKeys(fresh)
			if !sameKeys(got, want) {
				t.Errorf("dynamic CS %v != from-scratch CS %v", got, want)
			}
			if err := e.Matcher.CheckInvariants(); err != nil {
				t.Errorf("invariants after add: %v", err)
			}
		})
	}
}

// TestDynamicExciseEquivalence: excising must drop exactly the excised
// rule's state — the remaining conflict set and token table match a
// from-scratch compile without the rule.
func TestDynamicExciseEquivalence(t *testing.T) {
	for _, b := range dynBackends() {
		t.Run(b.name, func(t *testing.T) {
			e, closeE := newDynEngine(t, dynBase+dynNewRules, b)
			defer closeE()
			if err := e.Excise("keep"); err != nil {
				t.Fatalf("excise: %v", err)
			}
			// The from-scratch reference uses the top-level (excise) form.
			fresh, closeF := newDynEngine(t, dynBase+dynNewRules+`(excise keep)`, b)
			defer closeF()
			got, want := csKeys(e), csKeys(fresh)
			if !sameKeys(got, want) {
				t.Errorf("post-excise CS %v != from-scratch CS %v", got, want)
			}
			if err := e.Matcher.CheckInvariants(); err != nil {
				t.Errorf("invariants after excise: %v", err)
			}
			// The rebuilt network is the from-scratch one, node for node,
			// and holds exactly its tokens: none leaked from the old one.
			if sm, ok := e.Matcher.(*seqmatch.Matcher); ok {
				n := e.Net.NumJoinIDs()
				got, want := sm.Table.SizeByNode(n), fresh.Matcher.(*seqmatch.Matcher).Table.SizeByNode(n)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("tokens by join %v, from-scratch %v", got, want)
				}
			}
			if st := e.EpochStats(); st.RulesExcised != 1 || st.ReplayedWMEs != 5 {
				t.Errorf("epoch stats %+v, want one excised rule and 5 re-matched WMEs", st)
			}
		})
	}
}

// TestDynamicAddFiresOnReplayedWM: a production built mid-run fires on
// working memory asserted before it existed.
func TestDynamicAddFiresOnReplayedWM(t *testing.T) {
	for _, b := range dynBackends() {
		t.Run(b.name, func(t *testing.T) {
			e, closeE := newDynEngine(t, dynBase, b)
			defer closeE()
			if _, err := e.Run(engine.Options{}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.AddRules(`(p old-red (item ^kind red ^size <s>) --> (make tally ^size <s>))`); err != nil {
				t.Fatal(err)
			}
			res, err := e.Run(engine.Options{RecordFiring: true, CheckEvery: true})
			if err != nil {
				t.Fatal(err)
			}
			if res.Cycles != 2 {
				t.Errorf("cycles = %d, want 2 (one firing per pre-existing red item)", res.Cycles)
			}
		})
	}
}

// TestDynamicRedefinition: re-building an existing production excises
// the old version first and the new body takes over.
func TestDynamicRedefinition(t *testing.T) {
	b := dynBackends()[1] // vs2
	e, closeE := newDynEngine(t, dynBase, b)
	defer closeE()
	before := len(csKeys(e))
	if before != 2 {
		t.Fatalf("keep instantiations = %d, want 2", before)
	}
	added, excised, err := e.AddRules(`(p keep (item ^kind blue ^size <s>) --> (write blue))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(added) != 1 || len(excised) != 1 {
		t.Fatalf("added %v excised %v, want keep/keep", added, excised)
	}
	keys := csKeys(e)
	if len(keys) != 1 {
		t.Fatalf("CS after redefinition = %v, want the one blue item", keys)
	}
	if e.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2 (excise + add)", e.Epoch())
	}
}

// TestDynamicUnsupportedBackend: the interpreted Lisp baseline refuses
// dynamic changes, builds and excises alike, with the sentinel error.
func TestDynamicUnsupportedBackend(t *testing.T) {
	prog, err := ops5.Parse(dynBase)
	if err != nil {
		t.Fatal(err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	cs := conflict.NewSet()
	e, err := engine.New(prog, net, cs, lispemu.New(prog, net, cs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.AddRules(`(p x (item ^kind red) --> (halt))`); !errors.Is(err, engine.ErrDynamicUnsupported) {
		t.Fatalf("AddRules err = %v, want ErrDynamicUnsupported", err)
	}
	if err := e.Excise(net.Rules[0].Rule.Name); !errors.Is(err, engine.ErrDynamicUnsupported) {
		t.Fatalf("Excise err = %v, want ErrDynamicUnsupported", err)
	}
}

// TestDynamicFrozenProgram: runtime batches cannot mutate the class
// tables — unknown classes and attributes are rejected.
func TestDynamicFrozenProgram(t *testing.T) {
	e, closeE := newDynEngine(t, dynBase, dynBackends()[1])
	defer closeE()
	if !e.Prog.Frozen() {
		t.Fatal("program should be frozen after engine.New")
	}
	if _, _, err := e.AddRules(`(p x (mystery ^f 1) --> (halt))`); err == nil {
		t.Error("unknown class must be rejected on a frozen program")
	}
	if _, _, err := e.AddRules(`(p x (item ^mystery 1) --> (halt))`); err == nil {
		t.Error("unknown attribute must be rejected on a frozen program")
	}
	if _, _, err := e.AddRules(`(p x (item ^kind red) --> (make mystery ^f 1))`); err == nil {
		t.Error("make of an unknown class must be rejected on a frozen program")
	}
	if err := e.Excise("nope"); err == nil {
		t.Error("excising an unknown production must fail")
	}
}

// TestDynamicKeepsRefraction: a program change re-matches working
// memory, but an instantiation that fired stays fired — on every
// backend, with the same firing trace. Redefining the production that
// fired gives its instantiations a new identity, so they fire again.
// (csKeys compares unfired instantiations only, so the equivalence
// tests above do not see refraction.)
func TestDynamicKeepsRefraction(t *testing.T) {
	var want string
	for _, b := range dynBackends() {
		t.Run(b.name, func(t *testing.T) {
			e, closeE := newDynEngine(t, dynBase, b)
			defer closeE()
			var trace []string
			run := func(max int) {
				t.Helper()
				res, err := e.Run(engine.Options{MaxCycles: max, RecordFiring: true, CheckEvery: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Firings {
					trace = append(trace, fmt.Sprintf("%s%v", f.Rule, f.TimeTags))
				}
			}
			count := func(key string) (n int) {
				for _, f := range trace {
					if f == key {
						n++
					}
				}
				return n
			}
			run(1)
			if len(trace) != 1 {
				t.Fatalf("first cycle fired %v, want one keep instantiation", trace)
			}
			first := trace[0]
			if _, _, err := e.AddRules(`(p blue-box (box ^kind blue) --> (write blue))
(p red-box (box ^kind red) --> (write red))`); err != nil {
				t.Fatal(err)
			}
			if err := e.Excise("red-box"); err != nil {
				t.Fatal(err)
			}
			run(0)
			if count(first) != 1 {
				t.Fatalf("%s fired %d times across an add and an excise: %v", first, count(first), trace)
			}
			if count("blue-box[5]") != 1 || len(trace) != 3 {
				t.Fatalf("trace %v, want %s, the other keep and blue-box[5]", trace, first)
			}
			if _, _, err := e.AddRules(`(p keep (item ^kind <k> ^size <s>) (box ^kind <k> ^cap > <s>) --> (write fits))`); err != nil {
				t.Fatal(err)
			}
			run(0)
			if count(first) != 2 || len(trace) != 5 {
				t.Fatalf("trace after redefining keep %v, want both keep instantiations again", trace)
			}
			got := fmt.Sprint(trace)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("trace %s, want %s (the first backend's)", got, want)
			}
		})
	}
}
