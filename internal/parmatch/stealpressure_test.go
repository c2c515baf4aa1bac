package parmatch_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/tables"
	"repro/internal/wm"
)

// csSignature reduces a conflict set to a canonical, order-independent
// form: one "rule:tags" string per live instantiation, sorted.
func csSignature(cs *conflict.Set) []string {
	var out []string
	for _, inst := range cs.Snapshot() {
		tags := make([]int, len(inst.Wmes))
		for i, w := range inst.Wmes {
			tags[i] = w.TimeTag
		}
		out = append(out, fmt.Sprintf("%s:%v", inst.Rule.Rule.Name, tags))
	}
	sort.Strings(out)
	return out
}

// fanWorkload builds a high-fan-out join: a few "a" WMEs each matching
// many "b" WMEs on ^val, so one node activation emits dozens of output
// tokens in a single burst. With tiny local deques those bursts are
// what drives the overflow spill path.
func fanWorkload(t *testing.T) (*rete.Network, []*wm.WME) {
	t.Helper()
	src := `(literalize item kind val)
(p pairup (item ^kind a ^val <v>) (item ^kind b ^val <v>) --> (halt))`
	prog, err := ops5.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	cls := prog.ClassOf(prog.Symbols.Intern("item"))
	kindIdx, err := prog.FieldIndex(cls, prog.Symbols.Intern("kind"))
	if err != nil {
		t.Fatalf("field kind: %v", err)
	}
	valIdx, err := prog.FieldIndex(cls, prog.Symbols.Intern("val"))
	if err != nil {
		t.Fatalf("field val: %v", err)
	}
	var wmes []*wm.WME
	tag := 1
	add := func(kind string, val int) {
		fields := make([]wm.Value, cls.NumFields())
		fields[0] = wm.Sym(cls.Name)
		fields[kindIdx] = wm.Sym(prog.Symbols.Intern(kind))
		fields[valIdx] = wm.Int(int64(val))
		wmes = append(wmes, &wm.WME{TimeTag: tag, Fields: fields})
		tag++
	}
	for i := 0; i < 4; i++ {
		add("a", 1)
	}
	for i := 0; i < 24; i++ {
		add("b", 1)
	}
	return net, wmes
}

// TestStealPressureMatchesSequential runs the match kernels with local
// deques of capacity 1, forcing every multi-child activation through
// the overflow spill and giving idle workers constant steal
// opportunities. The final conflict set must equal the sequential
// oracle's exactly — no task lost, duplicated, or misrouted — for both
// locking schemes. Negated kernels legitimately emit transient
// insert/remove pairs under parallel schedules, so the comparison is on
// final state, not the event stream.
func TestStealPressureMatchesSequential(t *testing.T) {
	type workload struct {
		name string
		net  *rete.Network
		wmes []*wm.WME
	}
	var cases []workload
	for _, name := range tables.KernelNames() {
		k, err := tables.NewKernel(name, 96)
		if err != nil {
			t.Fatalf("kernel %s: %v", name, err)
		}
		cases = append(cases, workload{name, k.Net, k.Wmes})
	}
	fanNet, fanWmes := fanWorkload(t)
	cases = append(cases, workload{"fan", fanNet, fanWmes})

	for _, k := range cases {
		for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
			t.Run(fmt.Sprintf("%s/%s", k.name, scheme), func(t *testing.T) {
				oracleCS := tables.KernelSink()
				oracle := seqmatch.New(k.net, seqmatch.VS2, 0, oracleCS)
				for _, w := range k.wmes {
					oracle.Submit(true, w)
				}
				want := csSignature(oracleCS)
				if len(want) == 0 {
					t.Fatal("oracle produced no instantiations; kernel is not exercising the match")
				}

				cs := tables.KernelSink()
				m := parmatch.New(k.net, parmatch.Config{
					Procs: 4, Queues: 2, Scheme: scheme, LocalCap: 1,
				}, cs)
				defer m.Close()
				for rep := 0; rep < 3; rep++ {
					for _, w := range k.wmes {
						m.Submit(true, w)
					}
					m.Drain()
					if !cs.Drained() {
						t.Fatalf("rep %d: pending conflict-set deletes after assert drain", rep)
					}
					if got := csSignature(cs); !reflect.DeepEqual(got, want) {
						t.Fatalf("rep %d: conflict set diverged from sequential oracle\n got %d: %v\nwant %d: %v",
							rep, len(got), got, len(want), want)
					}
					for _, w := range k.wmes {
						m.Submit(false, w)
					}
					m.Drain()
					if err := m.CheckInvariants(); err != nil {
						t.Fatalf("rep %d: %v", rep, err)
					}
					requireNoParked(t, m.Table())
					if n := cs.Len(); n != 0 {
						t.Fatalf("rep %d: %d instantiations left after retract-all", rep, n)
					}
				}
				c := m.Contention()
				if c.LocalPushes == 0 {
					t.Error("no local deque pushes recorded")
				}
				if k.name == "fan" && c.Overflows == 0 {
					t.Error("fan workload with LocalCap=1 never spilled to the central queues")
				}
			})
		}
	}
}

// TestLocalDequeCounters checks the scheduler counters stay consistent:
// every task is accounted to exactly one source (local pop, central
// pop, or steal), and pushes route either locally or as overflow.
func TestLocalDequeCounters(t *testing.T) {
	k, err := tables.NewKernel("join", 64)
	if err != nil {
		t.Fatalf("kernel: %v", err)
	}
	cs := tables.KernelSink()
	m := parmatch.New(k.Net, parmatch.Config{Procs: 2, Queues: 2, LocalCap: 4}, cs)
	defer m.Close()
	k.Round(m)
	c := m.Contention()
	acts := m.Activations()
	sources := c.LocalPops + c.Steals + c.QueueAcquires
	// QueueAcquires also counts Submit-side pushes and overflow spills,
	// so it upper-bounds the central pops; the three sources together
	// must cover every processed task.
	if sources < acts {
		t.Errorf("task sources (%d local + %d steals + %d queue ops) < %d activations",
			c.LocalPops, c.Steals, c.QueueAcquires, acts)
	}
	spawned := c.LocalPushes + c.Overflows
	if spawned == 0 {
		t.Error("no worker-side spawns recorded for the join kernel")
	}
	if c.LocalPops > c.LocalPushes {
		t.Errorf("more local pops (%d) than local pushes (%d)", c.LocalPops, c.LocalPushes)
	}
}
