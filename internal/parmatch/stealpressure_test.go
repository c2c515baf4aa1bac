package parmatch_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/conflict"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/stats"
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
// tokens in a single burst onto the private stack of whichever process
// runs it. The WMEs' slots are assigned in the kernel's Slots.
func fanWorkload(t *testing.T) *tables.Kernel {
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
	k := &tables.Kernel{Name: "fan", Prog: prog, Net: net, Slots: wm.NewSlots()}
	tag := 1
	add := func(kind string, val int) {
		fields := make([]wm.Value, cls.NumFields())
		fields[0] = wm.Sym(cls.Name)
		fields[kindIdx] = wm.Sym(prog.Symbols.Intern(kind))
		fields[valIdx] = wm.Int(int64(val))
		w := &wm.WME{TimeTag: tag, Fields: fields}
		k.Slots.Assign(w)
		k.Wmes = append(k.Wmes, w)
		tag++
	}
	for i := 0; i < 4; i++ {
		add("a", 1)
	}
	for i := 0; i < 24; i++ {
		add("b", 1)
	}
	return k
}

// pressureCase is one kernel of the scheduling-pressure tests.
type pressureCase struct {
	name  string
	net   *rete.Network
	wmes  []*wm.WME
	slots *wm.Slots
}

// pressureCases returns every match kernel plus the fan workload.
func pressureCases(t *testing.T) []pressureCase {
	t.Helper()
	var cases []pressureCase
	for _, name := range tables.KernelNames() {
		k, err := tables.NewKernel(name, 96)
		if err != nil {
			t.Fatalf("kernel %s: %v", name, err)
		}
		cases = append(cases, pressureCase{name, k.Net, k.Wmes, k.Slots})
	}
	fan := fanWorkload(t)
	return append(cases, pressureCase{"fan", fan.Net, fan.Wmes, fan.Slots})
}

// checkUnitAccounting holds a drained matcher's scheduler counters to
// the unit protocol: every unit was made exactly once (a Submit or an
// MRSW requeue) and retired exactly once, by whoever popped it off a
// central queue. The matcher must have replayed nothing (no unlinking,
// no epoch swap): replay tasks are units too, and nothing here counts
// them.
func checkUnitAccounting(t *testing.T, m *parmatch.Matcher) stats.Contention {
	t.Helper()
	if n := m.InFlight(); n != 0 {
		t.Fatalf("TaskCount = %d on a drained matcher", n)
	}
	c := m.Contention()
	submitted := m.MatchStats().WMChanges
	made := submitted + c.Requeues
	if retired := m.Units(); made != retired {
		t.Errorf("units made %d (submitted %d + requeued %d) != retired %d",
			made, submitted, c.Requeues, retired)
	}
	// Every push is one lock acquisition; a pop is one for the whole
	// batch it takes, and empty-handed pops count nothing.
	if pops := c.QueueAcquires - made; made > 0 && (pops < 1 || pops > made) {
		t.Errorf("central queues: %d acquisitions for %d pushes leaves %d pops", c.QueueAcquires, made, pops)
	}
	return c
}

// workersRan reports whether any match goroutine (not the control
// process) popped a batch off the central queues.
func workersRan(m *parmatch.Matcher) bool {
	per := m.WorkerContention()
	for _, c := range per[:len(per)-1] {
		if c.QueueAcquires > 0 {
			return true
		}
	}
	return false
}

// runPressure drives one kernel through three assert-all/retract-all
// rounds on a matcher built with the given scheduling thresholds — low
// enough that every few pending roots wake a parked worker and the
// queues are split between the processes that find them. After every
// drain the conflict set must equal the sequential oracle's exactly — no
// task lost, duplicated or misrouted, no terminal activation lost in a
// process's buffer. Negated kernels legitimately emit transient
// insert/remove pairs under parallel schedules, so the comparison is on
// final state, not the event stream.
func runPressure(t *testing.T, k pressureCase, cfg parmatch.Config, whole, wake int) {
	oracleCS := tables.KernelSink()
	oracle := seqmatch.New(k.net, seqmatch.VS2, 0, oracleCS)
	oracle.UseSlots(k.slots)
	for _, w := range k.wmes {
		oracle.Submit(true, w)
	}
	want := csSignature(oracleCS)
	if len(want) == 0 {
		t.Fatal("oracle produced no instantiations; kernel is not exercising the match")
	}
	for _, w := range k.wmes {
		oracle.Submit(false, w)
	}

	cs := tables.KernelSink()
	m := parmatch.NewEager(k.net, cfg, cs, whole, wake)
	m.UseSlots(k.slots)
	defer m.Close()
	// Three rounds, or on the fan workload as many as it takes for a
	// worker to win a batch from the control process, for up to
	// workerBudget: a round is over in microseconds, and on a loaded host
	// with few CPUs a worker may not be scheduled for many of them.
	var reps int64
	deadline := time.Now().Add(workerBudget)
	for rep := 0; rep < 3 || (k.name == "fan" && !workersRan(m) && time.Now().Before(deadline)); rep++ {
		reps++
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
	c := checkUnitAccounting(t, m)
	if n := m.MemStats().Entries; n != 0 {
		t.Errorf("%d tokens left in memory after retract-all", n)
	}
	// Without negation the set of activations does not depend on the
	// schedule: it is vs2's, plus one root task per WM change (which vs2
	// does not count as an activation) and one more per MRSW requeue.
	if k.name != "neg" {
		seq := oracle.MatchStats()
		if got, want := m.Activations()-c.Requeues, reps*(seq.Activations+seq.WMChanges); got != want {
			t.Errorf("activations = %d (requeues excluded), want vs2's %d", got, want)
		}
	}
	if k.name == "fan" && !workersRan(m) {
		t.Errorf("fan workload: no worker took a batch in %d rounds (%v)", reps, workerBudget)
	}
}

// workerBudget is how long a test that needs a worker to win a batch
// from the control process keeps playing rounds for it.
const workerBudget = 10 * time.Second

// TestStealPressureMatchesSequential runs every kernel under both lock
// schemes on four match processes with one central queue each, every
// pending root waking a worker and every queue deeper than one split:
// processes keep taking tasks off queues other than their own.
func TestStealPressureMatchesSequential(t *testing.T) {
	for _, k := range pressureCases(t) {
		for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
			t.Run(fmt.Sprintf("%s/%s", k.name, scheme), func(t *testing.T) {
				runPressure(t, k, parmatch.Config{Procs: 4, Queues: 4, Scheme: scheme}, 1, 1)
			})
		}
	}
}

// TestForcedSharingMatchesSequential is the same equivalence over two
// central queues shared by all the processes, swept over the process
// counts the dynamic-equivalence suite uses.
func TestForcedSharingMatchesSequential(t *testing.T) {
	for _, k := range pressureCases(t) {
		for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
			for _, procs := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%s/p%d", k.name, scheme, procs), func(t *testing.T) {
					runPressure(t, k, parmatch.Config{Procs: procs, Queues: 2, Scheme: scheme}, 2, 2)
				})
			}
		}
	}
}

// awaitParked waits until n of m's match goroutines have parked.
func awaitParked(t *testing.T, m *parmatch.Matcher, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); m.Parked() < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d match goroutines parked after 5s", m.Parked(), n)
		}
	}
}

// TestSchedulerCounters checks the scheduler counters on the fan
// workload. At the real thresholds its 28 pending roots are not worth a
// wake-up, so the control process must match every unit alone — with
// vs2's activations plus one root task per WM change — and a worker may
// show nothing but the empty-handed looks it took before it parked; on
// a matcher built with eager thresholds the workers do take batches,
// and the unit accounting balances either way.
func TestSchedulerCounters(t *testing.T) {
	k := fanWorkload(t)
	net := k.Net
	cfg := parmatch.Config{Procs: 2, Queues: 2}

	m := parmatch.New(net, cfg, tables.KernelSink())
	defer m.Close()
	awaitParked(t, m, cfg.Procs) // newborn workers poll once before they park
	k.Round(m)
	checkUnitAccounting(t, m)
	if m.SoloUnits() != m.Units() {
		t.Errorf("%d of %d units run alone below the wake threshold", m.SoloUnits(), m.Units())
	}
	oracle := seqmatch.New(net, seqmatch.VS2, 0, tables.KernelSink())
	k.Round(oracle)
	if seq := oracle.MatchStats(); m.Activations() != seq.Activations+seq.WMChanges {
		t.Errorf("solo drain: %d activations, want vs2's %d + %d roots",
			m.Activations(), seq.Activations, seq.WMChanges)
	}
	for i, c := range m.WorkerContention()[:cfg.Procs] {
		if c.QueueSpins == 0 {
			t.Errorf("worker %d parked without an empty-handed look counted", i)
		}
		if c.QueueSpins = 0; c != (stats.Contention{}) {
			t.Errorf("worker %d took part in cycles below the wake threshold: %+v", i, c)
		}
	}

	// A worker needs to win a batch from the control process, and a round
	// is over in microseconds: give it rounds until one does, for up to
	// workerBudget.
	f := parmatch.NewEager(net, cfg, tables.KernelSink(), 2, 2)
	defer f.Close()
	for deadline := time.Now().Add(workerBudget); !workersRan(f) && time.Now().Before(deadline); {
		k.Round(f)
		checkUnitAccounting(t, f)
	}
	if !workersRan(f) {
		t.Errorf("eager thresholds: no worker took a batch in %v", workerBudget)
	}
}
