// Package parmatch is the PSM-E parallel matcher: one control process
// (the engine goroutine, which calls Submit/Drain) plus k match
// goroutines that cooperate to pass tokens through a single shared Rete
// network (§3.1). Tokens awaiting processing live on per-worker local
// deques and one or more central task queues; node memories live in the
// two global hash tables, with one lock per line in either the simple
// or the multiple-reader-single-writer scheme; the global TaskCount
// tells the control process when match is over.
//
// Scheduling follows the paper's multiple-queue remedy for central
// queue contention (§4.2) taken one step further: each worker owns a
// bounded lock-free deque it pushes and pops without synchronization,
// spilling to the central spin-locked queues only on overflow and
// stealing from peers only when both its deque and the central queues
// are dry. The match hot path is also allocation-free in the steady
// state: task objects and memory entries recycle through per-worker
// free lists, and output token slices come from per-worker arenas
// (hashmem.Pools).
//
// This backend runs real concurrency and is exercised under the race
// detector; the deterministic Encore Multimax timing model lives in
// internal/multimax and shares this package's protocol semantics.
package parmatch

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

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
	// LocalCap bounds each worker's local deque (0 = 256). Small values
	// force the overflow and steal paths, which the tests exploit.
	LocalCap int
	// Legacy pins the paper's fixed-size linked-list line layout instead
	// of the adaptive node-segregated default — the reference the
	// differential tests and bigmem benchmarks compare against.
	Legacy bool
	// Unlink enables right-unlinking of empty-left joins: right-side
	// tasks for a join whose left memory has never been non-empty are
	// buffered (per worker, lock-free) instead of hashed, stored and
	// searched, and the join is relinked — its buffer replayed through
	// the ordinary task machinery — at the next drain after its first
	// left token arrives. Negated joins never unlink.
	Unlink bool
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

// taskPoolCap bounds each worker's task free list.
const taskPoolCap = 1024

// stealWatermark is the local-deque depth at which a worker wakes a
// parked peer to steal from it.
const stealWatermark = 16

// pollBudget is how many scheduler yields a worker that ran dry spends
// polling before it parks: long enough for the control process to
// finish a typical RHS and submit the next phase, so one warm worker
// rides across phase boundaries instead of handing each phase to a
// cold peer.
const pollBudget = 512

// pad keeps per-worker counters on separate cache lines.
type workerStats struct {
	c stats.Contention
	_ [64]byte
}

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
	mem      atomic.Pointer[memState]
	queues   *taskqueue.Queues
	rootFree *taskqueue.FreeList
	sink     rete.TerminalSink
	cfg      Config
	workers  []*wctx

	// Parked workers block on their own wake channel, and every path
	// that makes work visible outside a worker's own deque (Submit,
	// overflow spill, MRSW requeue, deep local backlog) kicks one of
	// them awake with a non-blocking token. This keeps phase-start
	// latency at a channel send instead of a sleep period, which is what
	// lets procs > cores configurations run at near-sequential speed.
	// lastParked remembers the most recent parker so a kick can target
	// the worker with the warmest cache (the one that drained the
	// previous phase) rather than an arbitrary cold one.
	multiCPU   bool         // >1 physical CPUs: backlog kicks can buy real parallelism
	parked     atomic.Int64 // workers currently registered as parked
	lastParked atomic.Int32 // id of the most recent parker (-1 before any)

	stop    atomic.Bool
	wg      sync.WaitGroup
	ws      []workerStats // index Procs is the control process
	pushRR  atomic.Int64
	actives atomic.Int64 // node activations processed (tasks completed)
	changes atomic.Int64 // working-memory changes submitted

	// unlinkSt is the right-unlinking state (nil when Config.Unlink is
	// off). Workers read the linked flags per task; the control process
	// flips them and replays buffers only at drained points, so a flag
	// is constant within a work phase.
	unlinkSt atomic.Pointer[unlinkState]
	relinks  int64 // control-only: joins relinked so far
}

// unlinkState carries the per-join-ID linked flags (1 = process
// normally; accessed atomically by workers) and the merged right-side
// buffers (net delivery count per WME; control-only, touched at
// drained points).
type unlinkState struct {
	linked []uint32
	bufs   []map[*wm.WME]int
}

// unlinkOp is one skipped right-side delivery, logged privately by the
// worker that would have processed it. The control process merges the
// logs while drained; the counts commute, so cross-worker op order
// doesn't matter.
type unlinkOp struct {
	join int32
	sign bool
	wme  *wm.WME
}

// wctx is one match process's private state: its local deque, free
// lists, arena, contention counters and the pre-bound closures that
// keep the hot path from allocating a closure per task.
type wctx struct {
	m     *Matcher
	id    int
	pref  int // preferred central queue
	rr    int // rotating central-queue cursor for spills and requeues
	local *taskqueue.Deque
	free  []*taskqueue.Task
	pools hashmem.Pools
	cs    *stats.Contention
	// idleSpins holds queue spins from pops that came back empty, until
	// the next acquire folds them into cs (see next).
	idleSpins int64
	// rec carries this worker's per-node token counts and cumulative
	// opposite-memory examination counters. Each worker owns its own
	// recorder (no locks); the control process sums them at drained
	// points for relink decisions and the engine's match budget. Its
	// aggregate Match counters are not folded into MatchStats — the
	// scan statistics stay with the sequential instrumentation runs.
	rec *hashmem.Recorder
	// unlinkOps / unlinkSkips log this worker's skipped right-side
	// deliveries; merged and cleared by the control process at drains.
	unlinkOps   []unlinkOp
	unlinkSkips int64

	// Per-task state read by the pre-bound closures below.
	curNet  *rete.Network  // epoch loaded at task start (emit fan-out)
	curJoin *rete.JoinNode // join whose outputs emit fans out
	curSign bool           // sign of the root change being delivered
	curWME  *wm.WME        // root WME being delivered
	curRoot []*wm.WME      // shared length-1 token for curWME, built lazily

	emitFn    hashmem.Emit         // bound once to (*wctx).emit
	deliverFn func(rete.AlphaDest) // bound once to (*wctx).deliver

	wake     chan struct{} // cap-1 park channel; kicks land here
	isParked atomic.Bool   // registered as parked (kick target scan)
	didWork  bool          // processed a task since last claiming lastParked
	stealRot int
}

// New builds the matcher and starts its match goroutines. Call Close
// when done with it.
func New(net *rete.Network, cfg Config, sink rete.TerminalSink) *Matcher {
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
		queues:   taskqueue.New(cfg.Queues),
		rootFree: taskqueue.NewFreeList(0),
		sink:     sink,
		cfg:      cfg,
		multiCPU: runtime.NumCPU() > 1,
		ws:       make([]workerStats, cfg.Procs+1),
	}
	m.net.Store(net)
	m.lastParked.Store(-1)
	var table *hashmem.Table
	if cfg.Legacy {
		table = hashmem.NewLegacy(cfg.Lines)
	} else {
		table = hashmem.New(cfg.Lines)
	}
	m.mem.Store(newMemState(table, cfg.Scheme))
	// Build every worker context before starting any goroutine: workers
	// steal from each other's deques through this slice.
	m.workers = make([]*wctx, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		w := &wctx{
			m:     m,
			id:    i,
			pref:  i % m.queues.Len(),
			rr:    i,
			local: taskqueue.NewDeque(cfg.LocalCap),
			cs:    &m.ws[i].c,
			rec:   hashmem.NewRecorder(net.NumJoinIDs()),
			wake:  make(chan struct{}, 1),
		}
		w.emitFn = w.emit
		w.deliverFn = w.deliver
		m.workers[i] = w
	}
	if cfg.Unlink {
		us := &unlinkState{
			linked: make([]uint32, net.NumJoinIDs()),
			bufs:   make([]map[*wm.WME]int, net.NumJoinIDs()),
		}
		for i := range us.linked {
			us.linked[i] = 1
		}
		for _, j := range net.Joins {
			if !j.Negated {
				us.linked[j.ID] = 0
			}
		}
		m.unlinkSt.Store(us)
	}
	for i := 0; i < cfg.Procs; i++ {
		m.wg.Add(1)
		go m.worker(i)
	}
	return m
}

// Submit pushes one working-memory change as a root token. The control
// process proceeds with RHS evaluation while match goroutines pick the
// token up — the pipelining of §3.1. Root tasks recycle through a
// shared free list refilled by the workers that retire them.
func (m *Matcher) Submit(sign bool, w *wm.WME) {
	m.changes.Add(1)
	t := m.rootFree.Get()
	if t == nil {
		t = &taskqueue.Task{}
	}
	t.Root, t.Sign = w, sign
	spins := m.queues.Push(int(m.pushRR.Add(1)), t)
	cs := &m.ws[m.cfg.Procs].c
	cs.QueueAcquires++
	cs.QueueSpins += spins
	m.kick()
}

// kick wakes one parked worker, if any. On a uniprocessor the kick is
// suppressed while any worker is awake — that worker will sweep the
// central queues before it parks (workers re-check after registering
// as parked, so the task cannot be missed), and waking a second worker
// there only creates a thief racing the one that takes the work — and
// otherwise targets the most recent parker, whose caches are still
// warm from draining the previous phase. On multicore any parked
// worker will do.
func (m *Matcher) kick() {
	if !m.multiCPU {
		// One CPU wants exactly one drainer.
		if m.parked.Load() < int64(m.cfg.Procs) {
			return
		}
		id := m.lastParked.Load()
		if id < 0 {
			id = 0
		}
		m.workers[id].kick()
		return
	}
	start := int(m.pushRR.Load())
	n := len(m.workers)
	for i := 0; i < n; i++ {
		w := m.workers[(start+i)%n]
		if w.isParked.Load() {
			w.kick()
			return
		}
	}
	// Every worker is awake; the sleeper protocol guarantees one of
	// them sweeps the queues before parking, so no wake is lost.
}

// kick drops a wake token on this worker's park channel; a full
// channel means a token is already pending and the worker will wake.
func (w *wctx) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// unkick consumes this worker's pending wake token, if any. A worker
// that takes advertised work (a central-queue pop or a steal) retires
// the token that advertised it, so stale tokens don't wake it again
// into a fruitless poll-steal cycle — on a host with fewer cores than
// workers those spurious wakes were the dominant parallel overhead.
// Kicks are hints, not a count: the park-timer backstop covers any
// token lost to this race.
func (w *wctx) unkick() {
	select {
	case <-w.wake:
	default:
	}
}

// Drain blocks until TaskCount reaches zero. Drained is also the
// adaptive table's resize point: with no task in flight the workers are
// out of the table (the TaskCount==0 edge ordered their line writes
// before this read), so the control process can rehash into a bigger
// table and publish it, locks and all, before the next Submit.
func (m *Matcher) Drain() {
	m.queues.WaitIdle()
	if us := m.unlinkSt.Load(); us != nil {
		m.relinkLoop(us)
	}
	ms := m.mem.Load()
	if n := ms.table.GrowTarget(); n > 0 {
		m.mem.Store(newMemState(ms.table.Grow(n), m.cfg.Scheme))
	}
}

// relinkLoop runs at a drained point: it folds every worker's skipped
// right-delivery log into the per-join buffers (the counts commute, so
// cross-worker merge order doesn't matter), relinks each unlinked join
// whose left memory has become non-empty by replaying its buffer
// through the ordinary task machinery, and repeats — a relinked join's
// replay can emit left tokens into other unlinked joins downstream —
// until no join changes state. The left counts come from summing the
// per-worker recorders, which the TaskCount==0 edge made visible.
func (m *Matcher) relinkLoop(us *unlinkState) {
	for {
		for _, w := range m.workers {
			for _, op := range w.unlinkOps {
				b := us.bufs[op.join]
				if b == nil {
					b = make(map[*wm.WME]int)
					us.bufs[op.join] = b
				}
				if op.sign {
					b[op.wme]++
				} else {
					b[op.wme]--
				}
				if b[op.wme] == 0 {
					delete(b, op.wme)
				}
			}
			w.unlinkOps = w.unlinkOps[:0]
		}
		// Gather every replay before injecting any: an injected task wakes
		// workers, and the recorder reads below are only race-free while
		// the matcher stays drained.
		net := m.net.Load()
		var replay []*taskqueue.Task
		for _, j := range net.Joins {
			if j.Negated || atomic.LoadUint32(&us.linked[j.ID]) == 1 {
				continue
			}
			var left int64
			for _, w := range m.workers {
				left += w.rec.NodeCount[rete.Left][j.ID]
			}
			if left <= 0 {
				continue
			}
			atomic.StoreUint32(&us.linked[j.ID], 1)
			m.relinks++
			buf := us.bufs[j.ID]
			us.bufs[j.ID] = nil
			if len(buf) == 0 {
				continue
			}
			// Replay in timetag order: the order the WMEs would have
			// arrived had the join been linked all along.
			wmes := make([]*wm.WME, 0, len(buf))
			for rw, c := range buf {
				if c > 0 {
					wmes = append(wmes, rw)
				}
			}
			sort.Slice(wmes, func(a, b int) bool { return wmes[a].TimeTag < wmes[b].TimeTag })
			// Replay tokens escape into node memories, so they come from a
			// throwaway arena, not a worker pool.
			var pools hashmem.Pools
			for _, rw := range wmes {
				tok := pools.MakeToken(1)
				tok[0] = rw
				replay = append(replay, &taskqueue.Task{Join: j, Side: rete.Right, Sign: true, Wmes: tok})
			}
		}
		if len(replay) == 0 {
			return
		}
		for _, t := range replay {
			m.inject(t)
		}
		m.queues.WaitIdle()
	}
}

// Close stops the match goroutines. The matcher must be idle.
func (m *Matcher) Close() {
	m.stop.Store(true)
	// Direct sends, bypassing kick's uniprocessor gate: every parked
	// worker must wake to observe stop (the park timer would get there
	// too, just slower).
	for _, w := range m.workers {
		w.kick()
	}
	m.wg.Wait()
}

// Activations reports the number of tasks processed so far.
func (m *Matcher) Activations() int64 { return m.actives.Load() }

// MatchStats returns the counters the parallel matcher can attribute
// exactly: WM changes submitted and node activations (tasks) processed.
// The memory-scan statistics stay with the instrumented sequential
// matchers, as in the paper. Safe to call while drained.
func (m *Matcher) MatchStats() stats.Match {
	out := stats.Match{
		WMChanges:   m.changes.Load(),
		Activations: m.actives.Load(),
		Relinks:     m.relinks,
	}
	for _, w := range m.workers {
		out.UnlinkSkips += w.unlinkSkips
	}
	return out
}

// JoinExamined returns the cumulative per-join opposite-memory
// candidate counts summed across the worker recorders, indexed by join
// ID. Only meaningful while drained. The engine's match budget reads
// per-cycle deltas of it.
func (m *Matcher) JoinExamined() []int64 {
	out := make([]int64, m.net.Load().NumJoinIDs())
	for _, w := range m.workers {
		for id, v := range w.rec.NodeExamined {
			if id < len(out) {
				out[id] += v
			}
		}
	}
	return out
}

// UnlinkedJoins reports how many live joins are currently unlinked.
// Only meaningful while drained.
func (m *Matcher) UnlinkedJoins() int {
	us := m.unlinkSt.Load()
	if us == nil {
		return 0
	}
	n := 0
	for _, j := range m.net.Load().Joins {
		if !j.Negated && atomic.LoadUint32(&us.linked[j.ID]) == 0 {
			n++
		}
	}
	return n
}

// Contention merges the per-process spin, steal and overflow counters.
func (m *Matcher) Contention() stats.Contention {
	var out stats.Contention
	for i := range m.ws {
		out.Add(&m.ws[i].c)
	}
	return out
}

// WorkerContention returns each match process's own counters (index
// Procs is the control process) for load-balance diagnostics. Like
// Contention, only meaningful while drained.
func (m *Matcher) WorkerContention() []stats.Contention {
	out := make([]stats.Contention, len(m.ws))
	for i := range m.ws {
		out[i] = m.ws[i].c
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

// MemStats returns the current table's memory gauges and resize
// counters. Exact while drained, like the other counters.
func (m *Matcher) MemStats() stats.Memory { return m.mem.Load().table.MemStats() }

// Table exposes the current token table for introspection (REPL matches
// command, tests). Only meaningful while drained.
func (m *Matcher) Table() *hashmem.Table { return m.mem.Load().table }

func (m *Matcher) worker(id int) {
	defer m.wg.Done()
	w := m.workers[id]
	// park timer: the fallback poll period while blocked on the wake
	// channel, covering lost kicks and Close.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	// Born past the poll budget: a new worker parks immediately instead
	// of spinning at startup, so a working-memory burst right after New
	// (the engine's initial asserts) is drained by one kicked worker
	// rather than split across every newborn polling at once.
	idle := pollBudget + 1
	for {
		t := w.next()
		if t == nil {
			if m.stop.Load() {
				return
			}
			// A few yields to catch work already in flight, then park on
			// the wake channel. Parked workers cost nothing, so procs >
			// cores configurations run at near-sequential speed instead of
			// starving the one busy worker. The sleeper protocol: register
			// as parked, re-check for work, then block — a submitter that
			// saw us awake must have pushed before we registered, so the
			// re-check finds its task and no wakeup is lost. The timer is
			// a pure backstop (Close and pathological races).
			idle++
			if idle <= pollBudget {
				runtime.Gosched()
				continue
			}
			w.isParked.Store(true)
			m.parked.Add(1)
			// Only a worker that drained real work claims the warm-drainer
			// title; fruitless timer wakes re-park without shuffling it.
			if w.didWork {
				w.didWork = false
				m.lastParked.Store(int32(w.id))
			}
			if t = w.next(); t == nil {
				for {
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
					timer.Reset(100 * time.Millisecond)
					select {
					case <-w.wake:
					case <-timer.C:
					}
					// Waking on a uniprocessor while another worker is awake
					// would only poach its work and contend on its hash
					// lines; stay parked and let it drain alone. (Reached on
					// channel wakes too: the kicker may have raced a worker
					// that re-checked, took the task and deregistered.)
					if !m.multiCPU && !m.stop.Load() &&
						m.parked.Load() < int64(m.cfg.Procs) {
						continue
					}
					break
				}
				m.parked.Add(-1)
				w.isParked.Store(false)
				continue
			}
			m.parked.Add(-1)
			w.isParked.Store(false)
		}
		idle = 0
		w.didWork = true
		requeued := w.process(t)
		m.queues.Done()
		m.actives.Add(1)
		if !requeued {
			w.freeTask(t)
		}
	}
}

// next finds the worker's next task: own deque first (no locks), then
// the central queues, then a steal sweep over the peers.
func (w *wctx) next() *taskqueue.Task {
	if t := w.local.Pop(); t != nil {
		w.cs.LocalPops++
		return t
	}
	t, spins := w.m.queues.Pop(w.pref)
	// No counter is written on the idle path, so Contention() is
	// data-race-free for a drained matcher, as the protocol promises. An
	// empty-handed pop can still have spun — it lost the last task to a
	// peer, whose completion may already have released Drain — so those
	// spins wait in the worker-private idleSpins for the next acquire.
	if t != nil {
		w.cs.QueueSpins += spins + w.idleSpins
		w.idleSpins = 0
		w.cs.QueueAcquires++
		w.unkick()
		return t
	}
	w.idleSpins += spins
	peers := w.m.workers
	if n := len(peers); n > 1 {
		w.stealRot++
		for i := 0; i < n; i++ {
			v := peers[(w.id+w.stealRot+i)%n]
			if v == w {
				continue
			}
			if t := v.local.Steal(); t != nil {
				w.cs.Steals++
				w.unkick()
				return t
			}
		}
	}
	return nil
}

// spawn schedules a child task: TaskCount first (the task must be
// counted before any other process can retire it), then the local
// deque, spilling to the central queues when full.
func (w *wctx) spawn(t *taskqueue.Task) {
	w.m.queues.TaskCount.Add(1)
	if w.local.Push(t) {
		w.cs.LocalPushes++
		// Deep backlog: wake a parked peer to come steal. The size check
		// is owner-exact and the kick is a non-blocking send, so this
		// costs one branch in the common (shallow) case. Only worth it
		// when another CPU can actually run the thief — on a uniprocessor
		// the stolen sibling token just collides with the owner on the
		// same hash lines, so deep backlogs stay local there.
		if w.m.multiCPU && w.local.Size() == stealWatermark {
			w.m.kick()
		}
		return
	}
	w.cs.Overflows++
	w.rr++
	spins := w.m.queues.Spill(w.rr, t)
	w.cs.QueueAcquires++
	w.cs.QueueSpins += spins
	w.m.kick()
}

// newTask takes a task from the worker's free list, or allocates.
func (w *wctx) newTask() *taskqueue.Task {
	if n := len(w.free); n > 0 {
		t := w.free[n-1]
		w.free[n-1] = nil
		w.free = w.free[:n-1]
		return t
	}
	return &taskqueue.Task{}
}

// freeTask recycles a retired task. Root tasks go back to the shared
// list Submit draws from; everything else stays worker-local.
func (w *wctx) freeTask(t *taskqueue.Task) {
	if t.Root != nil {
		w.m.rootFree.Put(t)
		return
	}
	t.Reset()
	if len(w.free) < taskPoolCap {
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
		if t.Sign {
			w.m.sink.InsertInstantiation(t.Term.Rule, t.Wmes)
		} else {
			w.m.sink.RemoveInstantiation(t.Term.Rule, t.Wmes)
		}
	default:
		return w.join(t)
	}
	return false
}

// deliver spawns one alpha-destination task for the root change being
// processed. All destinations share one immutable length-1 token.
func (w *wctx) deliver(d rete.AlphaDest) {
	if w.curRoot == nil {
		s := w.pools.MakeToken(1)
		s[0] = w.curWME
		w.curRoot = s
	}
	nt := w.newTask()
	nt.Sign = w.curSign
	nt.Wmes = w.curRoot
	if d.Terminal != nil {
		nt.Term = d.Terminal
	} else {
		nt.Join = d.Join
		nt.Side = d.Side
	}
	w.spawn(nt)
}

// emit fans one output token of the current join out to its successor
// joins and terminals.
func (w *wctx) emit(csign bool, cwmes []*wm.WME) {
	j := w.curJoin
	for _, succ := range w.curNet.SuccsOf(j) {
		nt := w.newTask()
		nt.Join, nt.Side, nt.Sign, nt.Wmes = succ, rete.Left, csign, cwmes
		w.spawn(nt)
	}
	for _, term := range w.curNet.TermsOf(j) {
		nt := w.newTask()
		nt.Term, nt.Sign, nt.Wmes = term, csign, cwmes
		w.spawn(nt)
	}
}

func (w *wctx) join(t *taskqueue.Task) (requeued bool) {
	m := w.m
	j := t.Join
	if us := m.unlinkSt.Load(); us != nil && t.Side == rete.Right &&
		atomic.LoadUint32(&us.linked[j.ID]) == 0 {
		// Right delivery into an unlinked join: log it privately instead
		// of hashing, storing and searching. The control process merges
		// the logs while drained and replays them through the ordinary
		// task machinery when the join's first left token relinks it.
		w.unlinkOps = append(w.unlinkOps, unlinkOp{join: int32(j.ID), sign: t.Sign, wme: t.Wmes[0]})
		w.unlinkSkips++
		return false
	}
	var hash uint64
	if t.Side == rete.Left {
		hash = j.LeftHash(t.Wmes)
	} else {
		hash = j.RightHash(t.Wmes[0])
	}
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
		entry, ref, res := table.UpdateOwn(idx, j, t.Side, t.Sign, t.Wmes, hash, w.rec, &w.pools)
		if res.Proceeded {
			table.SearchOpposite(idx, ref, j, t.Side, t.Sign, t.Wmes, entry, w.rec, &w.pools, w.emitFn)
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
		// Requeue counts the queued copy; the worker's Done() after this
		// returns releases our in-process claim, so TaskCount stays
		// balanced at one for the still-pending token.
		w.cs.Requeues++
		w.rr++
		m.queues.Requeue(w.rr, t)
		m.kick()
		return true
	}
	spins = ms.mrsw[idx].Mod.Acquire()
	w.recordLine(t.Side, spins)
	entry, ref, res := table.UpdateOwn(idx, j, t.Side, t.Sign, t.Wmes, hash, w.rec, &w.pools)
	if j.Negated && t.Side == rete.Left {
		// Negated-node left activations must compute or read the join
		// count atomically with the memory update: a concurrent left
		// delete of the same token would otherwise observe the entry
		// before its count is stored and emit an unmatched retraction.
		if res.Proceeded {
			table.SearchOpposite(idx, ref, j, t.Side, t.Sign, t.Wmes, entry, w.rec, &w.pools, w.emitFn)
		}
		ms.mrsw[idx].Mod.Release()
	} else {
		// Positive nodes search outside the modification lock; the ref
		// resolved under it keeps the sub-index off this unlocked path.
		ms.mrsw[idx].Mod.Release()
		if res.Proceeded {
			table.SearchOpposite(idx, ref, j, t.Side, t.Sign, t.Wmes, entry, w.rec, &w.pools, w.emitFn)
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

// inject pushes one replay task onto the central queues from the
// control process, charging its lock traffic to the control slot like
// Submit does.
func (m *Matcher) inject(t *taskqueue.Task) {
	spins := m.queues.Push(int(m.pushRR.Add(1)), t)
	cs := &m.ws[m.cfg.Procs].c
	cs.QueueAcquires++
	cs.QueueSpins += spins
	m.kick()
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
	table := m.mem.Load().table
	if len(d.DeadJoins) > 0 {
		dead := make(map[int]bool, len(d.DeadJoins))
		for _, j := range d.DeadJoins {
			dead[j.ID] = true
		}
		removed = table.ExciseNodes(dead, nil)
		us := m.unlinkSt.Load()
		for id := range dead {
			for _, w := range m.workers {
				w.rec.NodeCount[0][id] = 0
				w.rec.NodeCount[1][id] = 0
				w.rec.NodeExamined[id] = 0
			}
			if us != nil {
				// A dead join's buffered rights die with it; the flag is
				// parked at linked so the never-reused ID stays inert.
				atomic.StoreUint32(&us.linked[id], 1)
				us.bufs[id] = nil
			}
		}
	}
	m.net.Store(next)
	nj := next.NumJoinIDs()
	for _, w := range m.workers {
		w.rec.EnsureNodes(nj)
	}
	if us := m.unlinkSt.Load(); us != nil {
		if nj > len(us.linked) {
			nl := make([]uint32, nj)
			copy(nl, us.linked)
			for i := len(us.linked); i < nj; i++ {
				nl[i] = 1
			}
			nb := make([]map[*wm.WME]int, nj)
			copy(nb, us.bufs)
			us = &unlinkState{linked: nl, bufs: nb}
			m.unlinkSt.Store(us)
		}
		// New joins are born with empty memories: start the non-negated
		// ones unlinked, so the phase-1 right replay below lands in their
		// buffers and the final drain relinks exactly those whose left
		// memory filled during phase 2. Negated joins stay linked — their
		// counts must settle in phase 1, before any left seed arrives.
		for _, j := range d.NewJoins {
			if !j.Negated {
				atomic.StoreUint32(&us.linked[j.ID], 0)
			}
		}
	}

	targets := next.ReplayDests()
	if len(targets) == 0 && len(d.GrownJoins) == 0 {
		return removed, nil
	}
	// Replay tokens escape into node memories and the conflict set, so
	// they come from a throwaway arena, not a worker pool.
	var pools hashmem.Pools
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
				tok := pools.MakeToken(1)
				tok[0] = w
				t := &taskqueue.Task{Join: dst.Join, Side: rete.Right, Sign: true, Wmes: tok}
				m.inject(t)
				injected = true
			}
		}
	}
	if injected {
		// Drain may grow and republish the table; re-load it so the
		// phase-2 gather below enumerates the live generation.
		m.Drain()
		table = m.mem.Load().table
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
				tok := pools.MakeToken(1)
				tok[0] = w
				if dst.Terminal != nil {
					phase2 = append(phase2, &taskqueue.Task{Term: dst.Terminal, Sign: true, Wmes: tok})
				} else {
					phase2 = append(phase2, &taskqueue.Task{Join: dst.Join, Side: rete.Left, Sign: true, Wmes: tok})
				}
			}
		}
	}
	for i := range d.GrownJoins {
		g := &d.GrownJoins[i]
		table.ForEachOutput(g.Join, &pools, func(tok []*wm.WME) {
			for _, succ := range g.NewSuccs {
				phase2 = append(phase2, &taskqueue.Task{Join: succ, Side: rete.Left, Sign: true, Wmes: tok})
			}
			for _, term := range g.NewTerms {
				phase2 = append(phase2, &taskqueue.Task{Term: term, Sign: true, Wmes: tok})
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
