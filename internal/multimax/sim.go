package multimax

import (
	"fmt"

	"repro/internal/hashmem"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/taskqueue"
	"repro/internal/wm"
)

// simLock is a virtual-time lock: busy until freeAt. Contenders retry at
// freeAt; the event loop's min-time ordering arbitrates, with ties going
// to the lower processor id.
type simLock struct {
	freeAt int64
}

// simMRSW mirrors spinlock.MRSW in virtual time.
type simMRSW struct {
	gate  simLock
	mod   simLock
	flag  int32
	count int32
}

type simQueue struct {
	lock  simLock
	tasks []*taskqueue.Task
}

// proc is one virtual processor. Between tasks k is nil and the
// processor polls the queues; within a task k is the next stage's
// continuation.
type proc struct {
	id      int
	t       int64
	k       func(p *proc)
	rr      int    // rotating push-target queue
	dormant bool   // control process after its last push of the phase
	stage   string // diagnostic: current continuation name
	stageN  int64  // diagnostic: executions of the current stage
}

// sim is the whole virtual machine for one run.
type sim struct {
	cfg   Config
	cost  Costs
	net   *rete.Network
	table *hashmem.Table
	lines []simLock
	gates []simMRSW
	qs    []simQueue
	sink  rete.TerminalSink
	// slots resolves token spans; pools carries the virtual processors'
	// shared allocation state — the simulator runs on one goroutine — and
	// inst the scratch a terminal token is resolved into.
	slots *wm.Slots
	pools hashmem.Pools
	inst  []*wm.WME

	procs     []*proc // index cfg.Procs is the control process
	rrProc    int     // rotating tie-break start for minProc
	taskCount int64
	zeroAt    int64 // time TaskCount last reached zero

	// contention counters (the paper's spins-before-access measure)
	queueAcquires, queueSpins    int64
	lineAcqLeft, lineSpinsLeft   int64
	lineAcqRight, lineSpinsRight int64
	requeues                     int64
	activations                  int64
	pushesPending                int

	// per-line contention profile, for attributing serialization to
	// specific nodes (the paper's "culprit productions" analysis, §4.2)
	lineAcqN, lineSpinN    []int64
	lineHoldN, lineMaxHold []int64
	lineNodes              []map[int]struct{}
}

// profileLine records one line acquisition for the contention profile.
func (s *sim) profileLine(idx, nodeID int, spins int64) {
	s.lineAcqN[idx]++
	s.lineSpinN[idx] += spins
	m := s.lineNodes[idx]
	if m == nil {
		m = make(map[int]struct{}, 2)
		s.lineNodes[idx] = m
	}
	m[nodeID] = struct{}{}
}

func newSim(cfg Config, net *rete.Network, sink rete.TerminalSink, slots *wm.Slots) *sim {
	if cfg.Queues < 1 || cfg.Hardware {
		cfg.Queues = 1
	}
	if cfg.Lines <= 0 {
		cfg.Lines = 16384
	}
	s := &sim{
		cfg:  cfg,
		cost: cfg.Costs,
		net:  net,
		// The simulator keeps the paper's fixed linked-list layout: its
		// cost model charges per token scanned, and the deterministic
		// Tables 4-5..4-9 depend on those scan counts staying exact.
		table: hashmem.NewLegacy(cfg.Lines),
		qs:    make([]simQueue, cfg.Queues),
		sink:  sink,
		slots: slots,
	}
	n := len(s.table.Lines)
	if cfg.Scheme == parmatch.SchemeSimple {
		s.lines = make([]simLock, n)
	} else {
		s.gates = make([]simMRSW, n)
	}
	s.lineAcqN = make([]int64, n)
	s.lineSpinN = make([]int64, n)
	s.lineHoldN = make([]int64, n)
	s.lineMaxHold = make([]int64, n)
	s.lineNodes = make([]map[int]struct{}, n)
	s.procs = make([]*proc, cfg.Procs+1)
	for i := range s.procs {
		s.procs[i] = &proc{id: i, rr: i, dormant: i == cfg.Procs}
	}
	return s
}

func (s *sim) control() *proc { return s.procs[s.cfg.Procs] }

// minProc returns the runnable processor with the smallest clock.
// Ties are broken round-robin (the scan starts after the previous
// winner): with a fixed lowest-id tie-break, a processor trying to exit
// an MRSW epoch can be starved forever by lower-id processors that keep
// re-acquiring the gate for wrong-side tokens — a livelock real hardware
// avoids through timing noise, and the simulator must avoid through
// fair arbitration.
func (s *sim) minProc() *proc {
	var best *proc
	for _, procs := range [2][]*proc{s.procs[s.rrProc:], s.procs[:s.rrProc]} {
		for _, p := range procs {
			if !p.dormant && (best == nil || p.t < best.t) {
				best = p
			}
		}
	}
	s.rrProc = best.id + 1
	return best
}

// tryLock models a test-and-test-and-set acquisition attempt at p.t.
// On success it charges the acquisition cost and returns true; the
// caller must set l.freeAt = p.t + hold before yielding. On failure it
// accrues spins and moves p to the release time so the same continuation
// retries.
func (s *sim) tryLock(p *proc, l *simLock, spins *int64) bool {
	if p.t >= l.freeAt {
		p.t += s.cost.LockAcq
		return true
	}
	wait := l.freeAt - p.t
	*spins += (wait + s.cost.Spin - 1) / s.cost.Spin
	p.t = l.freeAt
	return false
}

// pushEvent is one control-process root push scheduled during RHS
// evaluation.
type pushEvent struct {
	at   int64
	sign bool
	wme  *wm.WME
}

// runPhase simulates one match phase: the control process performs the
// scheduled pushes while the match processes drain the queues. It
// returns the time the phase's last task completed (TaskCount zero and
// no pushes outstanding).
func (s *sim) runPhase(pushes []pushEvent, rhsEnd int64) int64 {
	s.zeroAt = rhsEnd
	s.pools.Slots = s.slots.View() // WMEs are only made between phases
	ctl := s.control()
	s.pushesPending = len(pushes)
	if len(pushes) > 0 {
		ctl.dormant = false
		ctl.t = pushes[0].at
		idx := 0
		var stage func(p *proc)
		stage = func(p *proc) {
			ev := pushes[idx]
			if p.t < ev.at {
				p.t = ev.at
				return // re-run at the scheduled time
			}
			t := &taskqueue.Task{Root: ev.wme, Sign: ev.sign}
			if s.cfg.Hardware {
				s.qs[0].tasks = append(s.qs[0].tasks, t)
				s.taskCount++
				s.pushesPending--
				p.t += s.cost.HWSchedOp
			} else {
				q := &s.qs[p.rr%len(s.qs)]
				if !s.tryLock(p, &q.lock, &s.queueSpins) {
					return
				}
				s.queueAcquires++
				p.rr++
				q.tasks = append(q.tasks, t)
				s.taskCount++
				s.pushesPending--
				q.lock.freeAt = p.t + s.cost.QueueHold
				p.t = q.lock.freeAt + s.cost.TaskCountUpd
			}
			idx++
			if idx == len(pushes) {
				p.dormant = true
				p.k = nil
				return
			}
			if p.t < pushes[idx].at {
				p.t = pushes[idx].at
			}
		}
		ctl.k = stage
	}
	for iter := 0; ; iter++ {
		if s.taskCount == 0 && s.pushesPending == 0 {
			return s.zeroAt
		}
		p := s.minProc()
		if iter > 0 && iter%20_000_000 == 0 {
			s.dumpState(iter)
		}
		p.stageN++
		if p.k != nil {
			p.k(p)
		} else {
			s.poll(p)
		}
	}
}

// dumpState panics with a diagnostic when the phase loop runs away —
// always a simulator bug, never a legitimate workload.
func (s *sim) dumpState(iter int) {
	msg := fmt.Sprintf("multimax: phase loop ran %d iterations; taskCount=%d pushesPending=%d\n",
		iter, s.taskCount, s.pushesPending)
	for _, p := range s.procs {
		msg += fmt.Sprintf("  proc %d t=%d dormant=%v hasK=%v stage=%s runs=%d\n", p.id, p.t, p.dormant, p.k != nil, p.stage, p.stageN)
	}
	for i := range s.qs {
		msg += fmt.Sprintf("  queue %d len=%d freeAt=%d\n", i, len(s.qs[i].tasks), s.qs[i].lock.freeAt)
	}
	panic(msg)
}

// poll is the idle match-process loop: scan the queues, pop a task or
// back off.
func (s *sim) poll(p *proc) {
	if s.cfg.Hardware {
		// The hardware task scheduler Gupta proposed and the paper left
		// unimplemented (§3.2): constant-time, contention-free dispatch.
		q := &s.qs[0]
		if len(q.tasks) == 0 {
			p.t += s.cost.IdleRecheck
			return
		}
		s.startTask(p, s.takeTask(q))
		p.t += s.cost.HWSchedOp
		return
	}
	n := len(s.qs)
	for i := 0; i < n; i++ {
		q := &s.qs[(p.id+i)%n]
		if len(q.tasks) == 0 {
			p.t += s.cost.QueueScan
			continue
		}
		if !s.tryLock(p, &q.lock, &s.queueSpins) {
			return // retry the poll at the lock's release time
		}
		s.queueAcquires++
		task := s.takeTask(q)
		q.lock.freeAt = p.t + s.cost.QueueHold
		p.t = q.lock.freeAt
		s.startTask(p, task)
		return
	}
	p.t += s.cost.IdleRecheck
}

// takeTask removes the next task per the configured discipline: LIFO
// (the paper's stack behaviour) or FIFO (an ordering ablation).
func (s *sim) takeTask(q *simQueue) *taskqueue.Task {
	if s.cfg.FIFO {
		task := q.tasks[0]
		q.tasks = q.tasks[1:]
		return task
	}
	m := len(q.tasks)
	task := q.tasks[m-1]
	q.tasks = q.tasks[:m-1]
	return task
}

// startTask dispatches a popped task to its stage chain.
func (s *sim) startTask(p *proc, t *taskqueue.Task) {
	switch {
	case t.Root != nil:
		p.stage, p.stageN = "root", 0
		p.k = func(p *proc) { s.rootStage(p, t) }
	case t.Term != nil:
		p.stage, p.stageN = "term", 0
		p.k = func(p *proc) { s.termStage(p, t) }
	default:
		p.t += s.cost.Hash
		p.stage, p.stageN = "joinAcquire", 0
		p.k = func(p *proc) { s.joinAcquire(p, t) }
	}
}

func (s *sim) rootStage(p *proc, t *taskqueue.Task) {
	var children []*taskqueue.Task
	tests := s.net.RootDeliver(t.Root, func(d rete.AlphaDest) {
		tok := s.pools.Token(1)
		tok[0] = t.Root.Slot
		nt := &taskqueue.Task{Sign: t.Sign, Tok: tok}
		if d.Terminal != nil {
			nt.Term = d.Terminal
		} else {
			nt.Join = d.Join
			nt.Side = d.Side
		}
		children = append(children, nt)
	})
	p.t += s.cost.RootBase + int64(tests)*s.cost.ConstTest
	s.pushChildren(p, children)
}

func (s *sim) termStage(p *proc, t *taskqueue.Task) {
	s.inst = s.pools.Slots.Resolve(s.inst, t.Tok)
	if t.Sign {
		s.sink.InsertInstantiation(t.Term.Rule, s.inst)
	} else {
		s.sink.RemoveInstantiation(t.Term.Rule, s.inst)
	}
	p.t += s.cost.TermTask
	s.finishTask(p)
}

// joinAcquire handles the line acquisition for a two-input node task
// under the configured scheme, then executes the activation.
func (s *sim) joinAcquire(p *proc, t *taskqueue.Task) {
	j := t.Join
	hash := j.TokenHash(s.pools.Slots, t.Side, t.Tok)
	idx := s.table.LineIndex(j, hash)
	if s.cfg.Scheme == parmatch.SchemeSimple {
		if !s.tryLine(p, &s.lines[idx], t.Side, idx, j.ID) {
			return
		}
		children, cost := s.execJoin(idx, t, hash, 0)
		s.lineHoldN[idx] += cost
		if cost > s.lineMaxHold[idx] {
			s.lineMaxHold[idx] = cost
		}
		s.lines[idx].freeAt = p.t + cost
		p.t = s.lines[idx].freeAt
		s.pushChildren(p, children)
		return
	}
	// MRSW gate.
	g := &s.gates[idx]
	if !s.tryLine(p, &g.gate, t.Side, idx, j.ID) {
		return
	}
	want := int32(1)
	if t.Side == rete.Right {
		want = 2
	}
	if g.flag != 0 && g.flag != want {
		// Wrong side: release the gate and put the token back at the
		// bottom of a queue.
		g.gate.freeAt = p.t + s.cost.GateHold
		p.t = g.gate.freeAt
		s.requeues++
		p.stage, p.stageN = "requeue", 0
		p.k = func(p *proc) { s.requeueStage(p, t) }
		return
	}
	g.flag = want
	g.count++
	g.gate.freeAt = p.t + s.cost.GateHold
	p.t = g.gate.freeAt
	p.stage, p.stageN = "mrswMod", 0
	p.k = func(p *proc) { s.mrswMod(p, t, g, idx, hash) }
}

func (s *sim) mrswMod(p *proc, t *taskqueue.Task, g *simMRSW, idx int, hash uint64) {
	if !s.tryLine(p, &g.mod, t.Side, idx, t.Join.ID) {
		return
	}
	entry, ref, res := s.table.UpdateOwn(idx, t.Join, t.Side, t.Sign, t.Tok, hash, nil, &s.pools)
	cost := s.cost.UpdateOwnBase + int64(res.OwnScanned)*s.cost.OwnScanEntry
	var children []*taskqueue.Task
	var searchCost int64
	if res.Proceeded {
		sr := s.table.SearchOpposite(ref, t.Join, t.Side, t.Sign, t.Tok, entry, nil, &s.pools, func(cs bool, ct []uint32) {
			children = append(children, s.childTasks(t.Join, cs, ct)...)
		})
		searchCost = int64(sr.OppExamined)*s.cost.OppExamine + int64(sr.Pairs)*s.cost.PairEmit
		if !t.Sign {
			s.pools.FreeEntry(entry)
		}
	}
	if t.Join.Negated && t.Side == rete.Left {
		// Mirrors parmatch: negated-node left activations keep the
		// modification lock through the count phase.
		cost += searchCost
		searchCost = 0
	}
	// The opposite-memory search of positive nodes runs outside the
	// modification lock.
	g.mod.freeAt = p.t + cost
	p.t = g.mod.freeAt + searchCost
	p.t += s.cost.MRSWExtra
	p.stage, p.stageN = "mrswExit", 0
	p.k = func(p *proc) { s.mrswExit(p, g, t.Side, children) }
}

func (s *sim) mrswExit(p *proc, g *simMRSW, side rete.Side, children []*taskqueue.Task) {
	if !s.tryLock(p, &g.gate, s.lineSpins(side)) {
		return
	}
	g.count--
	if g.count == 0 {
		g.flag = 0
	}
	g.gate.freeAt = p.t + s.cost.GateHold
	p.t = g.gate.freeAt
	s.pushChildren(p, children)
}

// execJoin runs a whole activation under the simple line lock and
// returns its children and its critical-section cost.
func (s *sim) execJoin(idx int, t *taskqueue.Task, hash uint64, extra int64) ([]*taskqueue.Task, int64) {
	entry, ref, res := s.table.UpdateOwn(idx, t.Join, t.Side, t.Sign, t.Tok, hash, nil, &s.pools)
	cost := extra + s.cost.UpdateOwnBase + int64(res.OwnScanned)*s.cost.OwnScanEntry
	var children []*taskqueue.Task
	if res.Proceeded {
		sr := s.table.SearchOpposite(ref, t.Join, t.Side, t.Sign, t.Tok, entry, nil, &s.pools, func(cs bool, ct []uint32) {
			children = append(children, s.childTasks(t.Join, cs, ct)...)
		})
		cost += int64(sr.OppExamined)*s.cost.OppExamine + int64(sr.Pairs)*s.cost.PairEmit
		if !t.Sign {
			s.pools.FreeEntry(entry)
		}
	}
	return children, cost
}

func (s *sim) childTasks(j *rete.JoinNode, sign bool, tok []uint32) []*taskqueue.Task {
	var out []*taskqueue.Task
	for _, succ := range s.net.SuccsOf(j) {
		out = append(out, &taskqueue.Task{Join: succ, Side: rete.Left, Sign: sign, Tok: tok})
	}
	for _, term := range s.net.TermsOf(j) {
		out = append(out, &taskqueue.Task{Term: term, Sign: sign, Tok: tok})
	}
	return out
}

// pushChildren schedules the task's output tokens one queue operation at
// a time, then finishes the task.
func (s *sim) pushChildren(p *proc, children []*taskqueue.Task) {
	if len(children) == 0 {
		s.finishTask(p)
		return
	}
	if s.cfg.Hardware {
		// Hardware scheduler: all children dispatched in constant time
		// each, no lock traffic.
		q := &s.qs[0]
		q.tasks = append(q.tasks, children...)
		s.taskCount += int64(len(children))
		p.t += int64(len(children)) * s.cost.HWSchedOp
		s.finishTask(p)
		return
	}
	idx := 0
	var stage func(p *proc)
	stage = func(p *proc) {
		q := &s.qs[p.rr%len(s.qs)]
		if !s.tryLock(p, &q.lock, &s.queueSpins) {
			return
		}
		s.queueAcquires++
		p.rr++
		q.tasks = append(q.tasks, children[idx])
		s.taskCount++
		q.lock.freeAt = p.t + s.cost.QueueHold
		p.t = q.lock.freeAt + s.cost.TaskCountUpd
		idx++
		if idx == len(children) {
			s.finishTask(p)
		}
	}
	p.k = stage
}

// requeueStage puts a wrong-side MRSW token back at the bottom of a
// queue without touching TaskCount (it is still pending).
func (s *sim) requeueStage(p *proc, t *taskqueue.Task) {
	if s.cfg.Hardware {
		s.requeueInsert(&s.qs[0], t)
		p.t += s.cost.HWSchedOp + s.cost.RequeueCost
		p.k = nil
		return
	}
	q := &s.qs[p.rr%len(s.qs)]
	if !s.tryLock(p, &q.lock, &s.queueSpins) {
		return
	}
	s.queueAcquires++
	p.rr++
	s.requeueInsert(q, t)
	q.lock.freeAt = p.t + s.cost.QueueHold
	p.t = q.lock.freeAt + s.cost.RequeueCost
	p.k = nil // back to polling; no TaskCount change, no activation
}

// requeueInsert places a re-queued token where it will be retried last
// under the active discipline: the bottom of a LIFO stack, the back of
// a FIFO queue.
func (s *sim) requeueInsert(q *simQueue, t *taskqueue.Task) {
	if s.cfg.FIFO {
		q.tasks = append(q.tasks, t)
		return
	}
	q.tasks = append(q.tasks, nil)
	copy(q.tasks[1:], q.tasks)
	q.tasks[0] = t
}

// finishTask decrements TaskCount and returns the processor to polling.
func (s *sim) finishTask(p *proc) {
	p.t += s.cost.TaskCountUpd
	s.taskCount--
	s.activations++
	if s.taskCount == 0 {
		s.zeroAt = p.t
	}
	p.k = nil
}

func (s *sim) lineSpins(side rete.Side) *int64 {
	if side == rete.Left {
		return &s.lineSpinsLeft
	}
	return &s.lineSpinsRight
}

// tryLine is tryLock for hash-table line locks, with per-side and
// per-line contention accounting.
func (s *sim) tryLine(p *proc, l *simLock, side rete.Side, idx, nodeID int) bool {
	var spins int64
	ok := s.tryLock(p, l, &spins)
	*s.lineSpins(side) += spins
	s.lineSpinN[idx] += spins
	if ok {
		if side == rete.Left {
			s.lineAcqLeft++
		} else {
			s.lineAcqRight++
		}
		s.profileLine(idx, nodeID, 0)
	}
	return ok
}
