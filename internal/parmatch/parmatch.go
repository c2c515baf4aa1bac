// Package parmatch is the PSM-E parallel matcher: one control process
// (the engine goroutine, which calls Submit/Drain) plus k match
// goroutines that cooperate to pass tokens through a single shared Rete
// network (§3.1). Node memories live in the two global hash tables, with
// one lock per line in either the simple or the multiple-reader-single-
// writer scheme; the global TaskCount tells the control process when
// match is over.
//
// The unit of parallel work is not the paper's single node activation
// but a run-to-completion unit: a process takes a task off the central
// queues — a root WM change, an MRSW requeue, a replay task — and runs
// its whole activation subtree depth-first on a private, unsynchronised
// stack. TaskCount counts units. The control process runs units itself
// in Drain instead of waiting for the workers, and a parked worker is
// woken only when the pending roots are worth a wake-up (wakeDepth), so
// a cycle too small to pay for one is matched by one warm process. The
// match hot path is allocation-free in the steady state: task objects and
// memory entries recycle through per-process free lists, and in-flight
// tokens come from per-process arenas (hashmem.Pools) that rewind at
// each drained point.
//
// A control process that holds every unit in existence matches alone,
// as vs2 does, with no line locks, task objects or private stack: the
// protocol is paid only while a peer could hold a unit.
//
// Terminal activations do not touch the conflict set from the match
// goroutines: each process buffers its (+)/(−) instantiations privately,
// and the control process applies them to the TerminalSink once the
// phase has drained, so the sink is only ever called from one goroutine.
//
// This backend runs real concurrency and is exercised under the race
// detector; the deterministic Encore Multimax timing model lives in
// internal/multimax, keeps the paper's per-activation grain, and shares
// this package's protocol semantics.
package parmatch

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/hashmem"
	"repro/internal/rete"
	"repro/internal/spinlock"
	"repro/internal/stats"
	"repro/internal/taskqueue"
	"repro/internal/wm"
)

// Scheme selects the hash-line locking discipline.
type Scheme int

// Locking schemes (§3.2).
const (
	SchemeSimple Scheme = iota // one Free/Taken flag per line
	SchemeMRSW                 // multiple-reader-single-writer per line
)

func (s Scheme) String() string {
	if s == SchemeSimple {
		return "simple"
	}
	return "mrsw"
}

// Config sizes the matcher.
type Config struct {
	Procs  int    // number of match processes (the k of "1+k")
	Queues int    // number of central task queues
	Lines  int    // initial hash-table lines (0 = 16384)
	Scheme Scheme // line-lock scheme
	// Legacy pins the paper's fixed-size linked-list line layout instead
	// of the adaptive node-segregated default — the reference the
	// differential tests and bigmem benchmarks compare against.
	Legacy bool
}

// memState is one published generation of the token storage: the table
// plus the per-line lock array of the configured scheme, sized together
// so every line has exactly one lock at every table size. Workers load
// the whole bundle once per join task; the control process swaps it only
// while drained.
type memState struct {
	table  *hashmem.Table
	simple []spinlock.Lock
	mrsw   []spinlock.MRSW
}

// newMemState pairs a table with a fresh lock array of its size.
func newMemState(table *hashmem.Table, scheme Scheme) *memState {
	ms := &memState{table: table}
	n := len(table.Lines)
	if scheme == SchemeSimple {
		ms.simple = make([]spinlock.Lock, n)
	} else {
		ms.mrsw = make([]spinlock.MRSW, n)
	}
	return ms
}

// taskPoolCap bounds each process's private task free list; past it a
// retired task goes to the garbage collector.
const taskPoolCap = 256

// The scheduling thresholds, in tasks. Getting a parked goroutine onto
// a CPU costs several microseconds on bare metal and 100-160 us (p50) on
// the 2-vCPU VM the benchmarks run on — tens to a thousand node
// activations at 0.1-0.25 us each — and a token-memory line last written
// by another core roughly doubles the cost of the update that touches
// it, so work moved to a peer runs slower there than it would have here:
//
//   - wakeDepth: this many pending roots pay for waking a parked peer.
//   - popWhole: a central queue holding no more than this is popped
//     whole by the process that finds it; a deeper one by its newest
//     half, leaving the rest to a peer.
//
// EXPERIMENTS.md, "Run-to-completion match units", has the sweep these
// come from: lazy, not tuned.
const (
	wakeDepth = 256
	popWhole  = 64
)

// idlePolls is how many empty-handed looks a process that ran dry takes
// before it parks, and drainSpins how many the control process takes
// between yields while the last units are in peers' hands. A look writes
// nothing shared and costs a few tens of nanoseconds, so both bound a
// wait of a few microseconds — about what the park and wake-up (or the
// yield, which wakes an idle P) they put off would cost.
const (
	idlePolls  = 128
	drainSpins = 128
)

// Matcher is the parallel match backend. It implements engine.Matcher.
type Matcher struct {
	// net is the current network epoch. Workers load it once per task;
	// SwapEpoch publishes a new epoch while the matcher is drained, so a
	// task never straddles two epochs and the atomic load is all the
	// steady-state match path pays for versioning.
	net atomic.Pointer[rete.Network]
	// mem bundles the token table with its per-line lock arrays. Workers
	// load the bundle once per join task; the control process publishes a
	// grown table (with lock arrays resized to match, so footnote 4's
	// one-lock-per-line discipline holds at every size) only while the
	// matcher is drained — the same atomic-pointer discipline net uses.
	mem    atomic.Pointer[memState]
	queues *taskqueue.Queues
	sink   rete.TerminalSink
	cfg    Config
	// whole and wake are popWhole and wakeDepth, unless a test built the
	// matcher with lower ones.
	whole, wake int
	// procs holds every process's context: the k match goroutines', then
	// the control process's own (ctl, index Procs), on which Submit
	// allocates and Drain runs units. Whoever calls Submit/Drain is the
	// control process; successive callers must be ordered by a lock of
	// theirs, never concurrent.
	procs []*wctx
	ctl   *wctx

	// A worker with nothing to do polls briefly and then parks on its own
	// wake channel (counted in parked); Submit kicks one awake when the
	// pending roots reach wake. No wake-up is ever needed for progress:
	// the control process drains whatever nobody took.
	parked atomic.Int32

	stop    atomic.Bool
	wg      sync.WaitGroup
	pushRR  int          // control-only: round-robin cursor over the central queues
	changes atomic.Int64 // working-memory changes submitted

	// slots resolves the slot spans tokens are made of (UseSlots). Match
	// processes take views of it while the control process assigns.
	slots *wm.Slots
	// inst is the control process's scratch for resolving a buffered
	// terminal token into WMEs for the sink.
	inst []*wm.WME
}

// termOp is one terminal activation, buffered by the process that ran
// it until the control process applies it to the sink.
type termOp struct {
	rule *rete.CompiledRule
	sign bool
	tok  []uint32
}

// wctx is one process's private state: the stack its current unit runs
// on, free lists, arena, buffered terminal activations, counters and the
// pre-bound closures that keep the hot path from allocating a closure
// per task. Everything plain in it is written only while the process
// holds a unit (TaskCount > 0), so the control process may read it once
// TaskCount == 0.
type wctx struct {
	m     *Matcher
	pref  int               // preferred central queue
	rr    int               // rotating central-queue cursor for requeues
	stack []*taskqueue.Task // the running unit's pending activations
	free  []*taskqueue.Task
	pools hashmem.Pools
	terms []termOp // terminal activations since the last drain
	cs    stats.Contention
	acts  int64 // node activations processed (tasks completed)
	held  int64 // units taken and not yet retired: what the stack runs for
	units int64 // units retired
	solo  int64 // of which run alone (control process only)
	// polls counts empty-handed takes: the one counter written while no
	// unit is held — a drained read can meet an idle worker's — so atomic.
	polls atomic.Int64
	// rec carries this worker's per-node token counts and cumulative
	// opposite-memory examination counters. Each worker owns its own
	// recorder (no locks); the control process sums them at drained
	// points for the engine's match budget. Its
	// aggregate Match counters are not folded into MatchStats — the
	// scan statistics stay with the sequential instrumentation runs.
	rec *hashmem.Recorder

	// Per-task state read by the pre-bound closures below.
	curNet  *rete.Network  // epoch loaded at task start (emit fan-out)
	curJoin *rete.JoinNode // join whose outputs emit fans out
	curSign bool           // sign of the root change being delivered
	curWME  *wm.WME        // root WME being delivered
	curRoot []uint32       // shared length-1 token for curWME, built lazily

	emitFn    hashmem.Emit         // bound once to (*wctx).emit
	deliverFn func(rete.AlphaDest) // bound once to (*wctx).deliver
	// The control process's solo-drain twins of the two above.
	soloEmitFn    hashmem.Emit
	soloDeliverFn func(rete.AlphaDest)

	wake     chan struct{} // cap-1 park channel; kicks land here
	isParked atomic.Bool   // registered as parked (kick target scan)
}

// New builds the matcher and starts its match goroutines. Call Close
// when done with it.
func New(net *rete.Network, cfg Config, sink rete.TerminalSink) *Matcher {
	return newMatcher(net, cfg, sink, popWhole, wakeDepth)
}

// newMatcher is New with the scheduling thresholds as parameters, for
// tests.
func newMatcher(net *rete.Network, cfg Config, sink rete.TerminalSink, whole, wake int) *Matcher {
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	if cfg.Lines <= 0 {
		cfg.Lines = 16384
	}
	m := &Matcher{
		queues: taskqueue.New(cfg.Queues),
		sink:   sink,
		cfg:    cfg,
		whole:  whole,
		wake:   wake,
		slots:  wm.NewSlots(),
	}
	m.net.Store(net)
	var table *hashmem.Table
	if cfg.Legacy {
		table = hashmem.NewLegacy(cfg.Lines)
	} else {
		table = hashmem.New(cfg.Lines)
	}
	m.mem.Store(newMemState(table, cfg.Scheme))
	m.procs = make([]*wctx, cfg.Procs+1)
	for i := range m.procs {
		w := &wctx{
			m:    m,
			pref: i % m.queues.Len(),
			rr:   i,
			rec:  hashmem.NewRecorder(net.NumJoinIDs()),
			wake: make(chan struct{}, 1),
		}
		w.emitFn = w.emit
		w.deliverFn = w.deliver
		m.procs[i] = w
	}
	m.ctl = m.procs[cfg.Procs]
	m.ctl.soloEmitFn = m.ctl.soloEmit
	m.ctl.soloDeliverFn = m.ctl.soloDeliver
	for i := 0; i < cfg.Procs; i++ {
		m.wg.Add(1)
		go m.worker(i)
	}
	return m
}

// UseSlots makes the matcher resolve tokens through s, the slot table
// the submitted WMEs' slots were assigned in: the working memory's
// (engine.New does this), or the one a caller that builds WMEs outside
// a wm.Memory assigned them in. Call it before the first Submit.
func (m *Matcher) UseSlots(s *wm.Slots) { m.slots = s }

// Submit pushes one working-memory change as a root token. The control
// process proceeds with RHS evaluation, and a match goroutine that is
// already awake picks the token up meanwhile — the pipelining of §3.1;
// a parked one is woken only for a backlog worth the wake-up, and what
// nobody has taken by Drain the control process matches itself.
func (m *Matcher) Submit(sign bool, w *wm.WME) {
	m.changes.Add(1)
	t := m.ctl.newTask()
	t.Root, t.Sign = w, sign
	m.inject(t)
}

// inject pushes one task onto the central queues from the control
// process, charging its lock traffic to the control slot.
func (m *Matcher) inject(t *taskqueue.Task) {
	m.pushRR++
	spins, depth := m.queues.Push(m.pushRR, t)
	m.ctl.cs.QueueAcquires++
	m.ctl.cs.QueueSpins += spins
	// Pushes rotate over the queues, so one queue's depth times their
	// number estimates the pending backlog.
	if int(depth)*m.queues.Len() >= m.wake {
		m.wakeOne()
	}
}

// wakeOne kicks one parked worker, if any.
func (m *Matcher) wakeOne() {
	if m.parked.Load() == 0 {
		return
	}
	for _, w := range m.procs[:m.cfg.Procs] {
		if w.isParked.Load() {
			w.kick()
			return
		}
	}
}

// kick drops a wake token on this worker's park channel; a full
// channel means a token is already pending and the worker will wake.
func (w *wctx) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// Drain matches until TaskCount reaches zero — the control process runs
// units on its own context alongside whichever workers are awake, and
// only waits, a bounded spin and then a yield, while the last units are
// in peers' hands, or runs them all alone when no peer holds one
// (takeAll) — and then applies the phase's buffered terminal
// activations to the sink. Drained is also the adaptive table's resize
// point — the TaskCount==0 edge ordered the workers' line writes before
// this read, so the control process can rehash into a bigger table and
// publish it, locks and all, before the next Submit — and the in-flight
// tokens' reset point: with the terminals flushed, no task, stack or
// buffer holds a token any more, so every process's arena rewinds.
func (m *Matcher) Drain() {
	m.drain()
	m.flushTerminals()
	for _, w := range m.procs {
		w.pools.ResetTokens()
	}
	t := m.Table()
	if n := t.GrowTarget(); n > 0 {
		m.mem.Store(newMemState(t.Grow(n, &m.ctl.pools), m.cfg.Scheme))
	}
}

func (m *Matcher) drain() {
	c := m.ctl
	if c.takeAll() {
		c.runSolo()
		return
	}
	if len(c.stack) > 0 {
		c.run(c.hold())
	}
	for m.queues.TaskCount.Load() != 0 {
		t := c.take()
		for wait := 1; t == nil && m.queues.TaskCount.Load() != 0; wait++ {
			// What is left is in peers' hands.
			if wait%drainSpins == 0 {
				runtime.Gosched()
			}
			t = c.take()
		}
		if t == nil {
			return
		}
		c.run(t)
	}
}

// flushTerminals applies every process's buffered terminal activations
// to the sink, all removals before all insertions. Any order would leave
// the same instantiations (a removal that finds nothing parks as a
// pending delete and annihilates with its insertion), but removals first
// also leaves them with the same refraction state a sequential matcher's
// order would: an instantiation that left and re-entered the conflict
// set during the phase comes back unfired.
func (m *Matcher) flushTerminals() {
	v := m.slots.View()
	for _, sign := range [2]bool{false, true} {
		for _, w := range m.procs {
			for _, op := range w.terms {
				if op.sign != sign {
					continue
				}
				m.inst = v.Resolve(m.inst, op.tok)
				if sign {
					m.sink.InsertInstantiation(op.rule, m.inst)
				} else {
					m.sink.RemoveInstantiation(op.rule, m.inst)
				}
			}
		}
	}
	for _, w := range m.procs {
		clear(w.terms)
		w.terms = w.terms[:0]
	}
}

// Close stops the match goroutines. The matcher must be idle.
func (m *Matcher) Close() {
	m.stop.Store(true)
	for _, w := range m.procs[:m.cfg.Procs] {
		w.kick()
	}
	m.wg.Wait()
}

// Activations reports the number of tasks processed so far, summed over
// the processes' own counts. Exact while drained.
func (m *Matcher) Activations() (n int64) {
	for _, w := range m.procs {
		n += w.acts
	}
	return n
}

// MatchStats returns the counters the parallel matcher can attribute
// exactly: WM changes submitted and node activations (tasks) processed.
// The memory-scan statistics stay with the instrumented sequential
// matchers, as in the paper. Safe to call while drained.
func (m *Matcher) MatchStats() stats.Match {
	out := stats.Match{
		WMChanges:   m.changes.Load(),
		Activations: m.Activations(),
	}
	return out
}

// JoinExamined returns the cumulative per-join opposite-memory
// candidate counts summed across the worker recorders, indexed by join
// ID. Only meaningful while drained. The engine's match budget reads
// per-cycle deltas of it.
func (m *Matcher) JoinExamined() []int64 {
	out := make([]int64, m.net.Load().NumJoinIDs())
	for _, w := range m.procs {
		for id, v := range w.rec.NodeExamined {
			if id < len(out) {
				out[id] += v
			}
		}
	}
	return out
}

// Contention merges the per-process lock, queue and requeue counters.
// Only meaningful while drained.
func (m *Matcher) Contention() stats.Contention {
	var out stats.Contention
	for _, w := range m.procs {
		out.Add(&w.cs)
		out.QueueSpins += w.polls.Load()
	}
	return out
}

// WorkerContention returns each match process's own counters (index
// Procs is the control process). Only meaningful while drained.
func (m *Matcher) WorkerContention() []stats.Contention {
	out := make([]stats.Contention, len(m.procs))
	for i, w := range m.procs {
		out[i] = w.cs
		out[i].QueueSpins += w.polls.Load()
	}
	return out
}

// CheckInvariants verifies the conjugate-pair invariant after a phase.
// Only call while drained (the TaskCount==0 edge makes worker writes
// visible).
func (m *Matcher) CheckInvariants() error {
	if n := m.queues.TaskCount.Load(); n != 0 {
		return fmt.Errorf("parmatch: CheckInvariants while %d tasks in flight", n)
	}
	return m.mem.Load().table.CheckDrained()
}

// ForEachSlot calls fn with every slot the token table names, for the
// slot-safety oracles. Only while drained.
func (m *Matcher) ForEachSlot(fn func(slot uint32)) { m.mem.Load().table.ForEachSlot(fn) }

// MemStats returns the current table's memory gauges and resize
// counters. Only while drained, like the other counters.
func (m *Matcher) MemStats() stats.Memory { return m.Table().MemStats() }

// Table exposes the current token table for introspection (REPL matches
// command, tests), with every process's private live-entry delta folded
// into its gauge. Only while drained.
func (m *Matcher) Table() *hashmem.Table {
	t := m.mem.Load().table
	for _, w := range m.procs {
		t.FoldLive(&w.pools)
	}
	return t
}

// worker is one match goroutine: run units while there are any, poll
// briefly when there are none, then park until kicked. The sleeper
// protocol — register as parked, look once more, then block — means a
// publisher that saw no parked worker pushed before the registration,
// so that last look finds its task.
func (m *Matcher) worker(id int) {
	defer m.wg.Done()
	w := m.procs[id]
	for !m.stop.Load() {
		t := w.take()
		for i := 0; t == nil && i < idlePolls; i++ {
			t = w.take()
		}
		if t == nil {
			w.isParked.Store(true)
			m.parked.Add(1)
			if t = w.take(); t == nil && !m.stop.Load() {
				<-w.wake
			}
			m.parked.Add(-1)
			w.isParked.Store(false)
		}
		if t != nil {
			w.run(t)
		}
	}
}

// take pops a batch of a central queue and returns its first task to
// run; the rest of the batch waits on the private stack. An empty-handed
// take writes nothing shared, so idle polls do not disturb busy peers,
// and counts as one queue spin: a look that got no work, which is what
// waiting on the queues costs now that their locks are almost never busy.
func (w *wctx) take() *taskqueue.Task {
	var spins int64
	w.stack, spins = w.m.queues.Pop(w.pref, w.m.whole, w.stack)
	n := len(w.stack)
	if n == 0 {
		// spins != 0: a pop that lost the queue's last tasks to a peer.
		w.polls.Add(1 + spins)
		return nil
	}
	w.cs.QueueSpins += spins
	w.cs.QueueAcquires++
	return w.hold()
}

// hold takes the stack's tasks as units and returns the first to run.
func (w *wctx) hold() *taskqueue.Task {
	n := len(w.stack)
	w.held = int64(n)
	t := w.stack[n-1]
	w.stack = w.stack[:n-1]
	return t
}

// takeAll pops the central queues whole until TaskCount equals what the
// control process holds, and reports whether it got there. Then no peer
// holds a unit and none can get one before the next Submit: only the
// control process injects, and an MRSW requeue needs a running unit. The
// load also orders every peer's Done before the solo run.
func (w *wctx) takeAll() bool {
	q := w.m.queues
	for {
		n := len(w.stack)
		if int64(n) == q.TaskCount.Load() {
			return true
		}
		var spins int64
		w.stack, spins = q.Pop(w.pref, math.MaxInt, w.stack)
		if len(w.stack) == n {
			w.polls.Add(1 + spins)
			return false
		}
		w.cs.QueueSpins += spins
		w.cs.QueueAcquires++
	}
}

// runSolo runs the units on the stack in queue order, depth-first as vs2
// does. Activation counts and terminal buffers are kept as
// the locked path keeps them.
func (w *wctx) runSolo() {
	n := int64(len(w.stack))
	w.curNet = w.m.net.Load()
	w.pools.Slots = w.m.slots.View() // alone: no slot is assigned meanwhile
	for i, t := range w.stack {
		w.stack[i] = nil
		switch {
		case t.Root != nil:
			w.acts++
			w.curSign, w.curWME, w.curRoot = t.Sign, t.Root, nil
			w.curNet.RootDeliver(t.Root, w.soloDeliverFn)
		case t.Term != nil:
			w.soloTerm(t.Term, t.Sign, t.Tok)
		default:
			w.soloJoin(t.Join, t.Side, t.Sign, t.Tok)
		}
		w.freeTask(t)
	}
	w.stack = w.stack[:0]
	w.units += n
	w.solo += n
	w.m.queues.Done(n)
}

// soloDeliver runs one alpha destination of the current root alone.
func (w *wctx) soloDeliver(d rete.AlphaDest) {
	if d.Terminal != nil {
		w.soloTerm(d.Terminal, w.curSign, w.rootToken())
		return
	}
	w.soloJoin(d.Join, d.Side, w.curSign, w.rootToken())
}

// soloEmit recurses into one output token's successors, restoring the
// curJoin the recursion overwrote: SearchOpposite may emit again.
func (w *wctx) soloEmit(csign bool, ctok []uint32) {
	j := w.curJoin
	for _, succ := range w.curNet.SuccsOf(j) {
		w.soloJoin(succ, rete.Left, csign, ctok)
	}
	for _, term := range w.curNet.TermsOf(j) {
		w.soloTerm(term, csign, ctok)
	}
	w.curJoin = j
}

// soloTerm buffers one terminal activation of a solo run.
func (w *wctx) soloTerm(term *rete.Terminal, sign bool, tok []uint32) {
	w.acts++
	w.terms = append(w.terms, termOp{rule: term.Rule, sign: sign, tok: tok})
}

// soloJoin is join without the protocol: the same table update and
// search, its outputs recursed into rather than stacked.
func (w *wctx) soloJoin(j *rete.JoinNode, side rete.Side, sign bool, tok []uint32) {
	w.acts++
	hash := j.TokenHash(w.pools.Slots, side, tok)
	table := w.m.mem.Load().table
	idx := table.LineIndex(j, hash)
	entry, ref, res := table.UpdateOwn(idx, j, side, sign, tok, hash, w.rec, &w.pools)
	if !res.Proceeded {
		return
	}
	w.curJoin = j
	table.SearchOpposite(ref, j, side, sign, tok, entry, w.rec, &w.pools, w.soloEmitFn)
	if !sign {
		w.pools.FreeEntry(entry) // removed from its memory; nothing else holds it
	}
}

// run takes the units in hand to completion: the task and, depth-first
// off the private stack, every activation they lead to. Its last act,
// Done, is the release edge the control process's TaskCount==0 read
// acquires.
func (w *wctx) run(t *taskqueue.Task) {
	for {
		if !w.process(t) {
			w.freeTask(t)
		}
		w.acts++
		n := len(w.stack)
		if n == 0 {
			break
		}
		t = w.stack[n-1]
		w.stack = w.stack[:n-1]
	}
	w.units += w.held
	w.m.queues.Done(w.held)
}

// newTask takes a task from the process's free list, or allocates.
func (w *wctx) newTask() *taskqueue.Task {
	n := len(w.free) - 1
	if n < 0 {
		return &taskqueue.Task{}
	}
	t := w.free[n]
	w.free[n] = nil
	w.free = w.free[:n]
	return t
}

// freeTask recycles a retired task on the process that ran it.
func (w *wctx) freeTask(t *taskqueue.Task) {
	if len(w.free) < taskPoolCap {
		t.Reset()
		w.free = append(w.free, t)
	}
}

// process runs one task. It reports whether the task was requeued (and
// so must not be recycled).
func (w *wctx) process(t *taskqueue.Task) (requeued bool) {
	switch {
	case t.Root != nil:
		w.curSign = t.Sign
		w.curWME = t.Root
		w.curRoot = nil
		w.m.net.Load().RootDeliver(t.Root, w.deliverFn)
	case t.Term != nil:
		w.terms = append(w.terms, termOp{rule: t.Term.Rule, sign: t.Sign, tok: t.Tok})
	default:
		return w.join(t)
	}
	return false
}

// deliver stacks one alpha-destination task for the root change being
// processed. All destinations share one immutable length-1 token.
func (w *wctx) deliver(d rete.AlphaDest) {
	nt := w.newTask()
	nt.Sign = w.curSign
	nt.Tok = w.rootToken()
	if d.Terminal != nil {
		nt.Term = d.Terminal
	} else {
		nt.Join = d.Join
		nt.Side = d.Side
	}
	w.stack = append(w.stack, nt)
}

// rootToken is the current root's length-1 token, built on first use.
func (w *wctx) rootToken() []uint32 {
	if w.curRoot == nil {
		s := w.pools.Token(1)
		s[0] = w.curWME.Slot
		w.curRoot = s
	}
	return w.curRoot
}

// emit fans one output token of the current join out to its successor
// joins and terminals.
func (w *wctx) emit(csign bool, ctok []uint32) {
	j := w.curJoin
	for _, succ := range w.curNet.SuccsOf(j) {
		nt := w.newTask()
		nt.Join, nt.Side, nt.Sign, nt.Tok = succ, rete.Left, csign, ctok
		w.stack = append(w.stack, nt)
	}
	for _, term := range w.curNet.TermsOf(j) {
		nt := w.newTask()
		nt.Term, nt.Sign, nt.Tok = term, csign, ctok
		w.stack = append(w.stack, nt)
	}
}

func (w *wctx) join(t *taskqueue.Task) (requeued bool) {
	m := w.m
	j := t.Join
	// The slot view is taken twice: here for the task's own token, and
	// again once the line is held, for the slots of the entries stored
	// there, which may postdate this task.
	w.pools.Slots = m.slots.View()
	hash := j.TokenHash(w.pools.Slots, t.Side, t.Tok)
	// One bundle load per task: the table and its lock arrays always
	// match, and a resize can only intervene while drained, so no task
	// straddles two table generations.
	ms := m.mem.Load()
	table := ms.table
	idx := table.LineIndex(j, hash)
	w.curNet = m.net.Load()
	w.curJoin = j
	if m.cfg.Scheme == SchemeSimple {
		spins := ms.simple[idx].Acquire()
		w.recordLine(t.Side, spins)
		w.pools.Slots = m.slots.View()
		entry, ref, res := table.UpdateOwn(idx, j, t.Side, t.Sign, t.Tok, hash, w.rec, &w.pools)
		if res.Proceeded {
			table.SearchOpposite(ref, j, t.Side, t.Sign, t.Tok, entry, w.rec, &w.pools, w.emitFn)
		}
		ms.simple[idx].Release()
		if !t.Sign && res.Proceeded {
			w.pools.FreeEntry(entry) // unlinked under the line lock; now exclusively ours
		}
		return false
	}
	// MRSW: register for our side; wrong-side arrivals re-queue.
	ok, spins := ms.mrsw[idx].Enter(int(t.Side))
	w.recordLine(t.Side, spins)
	if !ok {
		// The token becomes a unit of its own at the bottom of a central
		// queue; this unit carries on with the rest of its stack.
		w.cs.Requeues++
		w.rr++
		spins := m.queues.Requeue(w.rr, t)
		w.cs.QueueAcquires++
		w.cs.QueueSpins += spins
		return true
	}
	spins = ms.mrsw[idx].Mod.Acquire()
	w.recordLine(t.Side, spins)
	w.pools.Slots = m.slots.View()
	entry, ref, res := table.UpdateOwn(idx, j, t.Side, t.Sign, t.Tok, hash, w.rec, &w.pools)
	if j.Negated && t.Side == rete.Left {
		// Negated-node left activations must compute or read the join
		// count atomically with the memory update: a concurrent left
		// delete of the same token would otherwise observe the entry
		// before its count is stored and emit an unmatched retraction.
		if res.Proceeded {
			table.SearchOpposite(ref, j, t.Side, t.Sign, t.Tok, entry, w.rec, &w.pools, w.emitFn)
		}
		ms.mrsw[idx].Mod.Release()
	} else {
		// Positive nodes search outside the modification lock; the ref
		// resolved under it keeps the sub-index off this unlocked path.
		ms.mrsw[idx].Mod.Release()
		if res.Proceeded {
			table.SearchOpposite(ref, j, t.Side, t.Sign, t.Tok, entry, w.rec, &w.pools, w.emitFn)
		}
	}
	ms.mrsw[idx].Exit()
	if !t.Sign && res.Proceeded {
		w.pools.FreeEntry(entry) // Remove unlinked it; no reader survives Exit
	}
	return false
}

func (w *wctx) recordLine(side rete.Side, spins int64) {
	if side == rete.Left {
		w.cs.LineAcquiresLeft++
		w.cs.LineSpinsLeft += spins
	} else {
		w.cs.LineAcquiresRight++
		w.cs.LineSpinsRight += spins
	}
}

// SwapEpoch adopts a network epoch derived from the matcher's current
// one. Must be called from the control process with the matcher drained
// (no tasks in flight), the same condition under which the engine reads
// the conflict set. Removals drop the excised joins' memory entries
// directly — safe because the TaskCount==0 edge ordered every worker's
// line writes before this read. Additions replay the live working
// memory in two drained phases: first right-side tasks fill the new
// joins' right memories (left memories are empty, so nothing emits and
// negation counts settle), then left-side seeds — root deliveries for
// new first-stage joins and terminals, plus historical outputs of grown
// joins re-derived from the table while it is quiescent — propagate
// through the ordinary worker machinery. Phase-2 tasks are all gathered
// before any is injected, so the table enumeration never races worker
// inserts.
func (m *Matcher) SwapEpoch(next *rete.Network, live []*wm.WME) (removed int, err error) {
	cur := m.net.Load()
	if next.Parent() != cur {
		return 0, fmt.Errorf("parmatch: epoch %d is not derived from the current epoch %d", next.Epoch, cur.Epoch)
	}
	d := next.Delta
	if d == nil {
		return 0, fmt.Errorf("parmatch: epoch %d has no delta", next.Epoch)
	}
	if n := m.queues.TaskCount.Load(); n != 0 {
		return 0, fmt.Errorf("parmatch: SwapEpoch while %d tasks in flight", n)
	}
	table := m.Table()
	if len(d.DeadJoins) > 0 {
		dead := make(map[int]bool, len(d.DeadJoins))
		for _, j := range d.DeadJoins {
			dead[j.ID] = true
		}
		removed = table.ExciseNodes(dead, nil, &m.ctl.pools)
		for id := range dead {
			for _, w := range m.procs {
				w.rec.NodeCount[0][id] = 0
				w.rec.NodeCount[1][id] = 0
				w.rec.NodeExamined[id] = 0
			}
		}
	}
	m.net.Store(next)
	nj := next.NumJoinIDs()
	for _, w := range m.procs {
		w.rec.EnsureNodes(nj)
	}

	targets := next.ReplayDests()
	if len(targets) == 0 && len(d.GrownJoins) == 0 {
		return removed, nil
	}
	// Replay tokens come from the control process's arena: they live
	// until the drain that runs them.
	pools := &m.ctl.pools
	pools.Slots = m.slots.View()
	injected := false
	for _, cd := range targets {
		for _, dst := range cd.Dests {
			if dst.Join == nil || dst.Side != rete.Right {
				continue
			}
			for _, w := range live {
				if w.Class() != cd.Chain.Class || !cd.Chain.Matches(w) {
					continue
				}
				tok := pools.Token(1)
				tok[0] = w.Slot
				t := &taskqueue.Task{Join: dst.Join, Side: rete.Right, Sign: true, Tok: tok}
				m.inject(t)
				injected = true
			}
		}
	}
	if injected {
		// Drain may grow and republish the table; re-load it so the
		// phase-2 gather below enumerates the live generation.
		m.Drain()
		table = m.Table()
	}
	var phase2 []*taskqueue.Task
	for _, cd := range targets {
		for _, dst := range cd.Dests {
			if dst.Join != nil && dst.Side == rete.Right {
				continue
			}
			for _, w := range live {
				if w.Class() != cd.Chain.Class || !cd.Chain.Matches(w) {
					continue
				}
				tok := pools.Token(1)
				tok[0] = w.Slot
				if dst.Terminal != nil {
					phase2 = append(phase2, &taskqueue.Task{Term: dst.Terminal, Sign: true, Tok: tok})
				} else {
					phase2 = append(phase2, &taskqueue.Task{Join: dst.Join, Side: rete.Left, Sign: true, Tok: tok})
				}
			}
		}
	}
	for i := range d.GrownJoins {
		g := &d.GrownJoins[i]
		table.ForEachOutput(g.Join, pools, func(tok []uint32) {
			for _, succ := range g.NewSuccs {
				phase2 = append(phase2, &taskqueue.Task{Join: succ, Side: rete.Left, Sign: true, Tok: tok})
			}
			for _, term := range g.NewTerms {
				phase2 = append(phase2, &taskqueue.Task{Term: term, Sign: true, Tok: tok})
			}
		})
	}
	if len(phase2) == 0 {
		return removed, nil
	}
	for _, t := range phase2 {
		m.inject(t)
	}
	m.Drain()
	return removed, nil
}
