// Package taskqueue implements the paper's task scheduling: one or
// more central LIFO token queues protected by spin locks, plus the
// global TaskCount that tells the control process when the match phase
// is over (§3.2). Tokens carry the address of the destination node
// and, for two-input nodes, the side — the two extra fields the
// parallel token adds over the sequential one.
//
// What the queues and TaskCount hold is units, not single node
// activations: a process that takes a task runs everything it leads to
// on a private stack (internal/parmatch); only roots, replays and MRSW
// requeues pass through the queues.
package taskqueue

import (
	"sync/atomic"

	"repro/internal/rete"
	"repro/internal/spinlock"
	"repro/internal/wm"
)

// Task is one node activation awaiting processing. Exactly one of Root,
// Join or Term is set: a group of constant-test node activations for a WM
// change, a two-input node activation, or a terminal activation. Tok is
// the activation's token, a span of WME slots from the arena of the
// process that built it, valid until the matcher's next drained point.
type Task struct {
	Root *wm.WME
	Join *rete.JoinNode
	Term *rete.Terminal
	Side rete.Side
	Sign bool
	Tok  []uint32
}

// Reset clears every field so a pooled Task carries nothing stale.
func (t *Task) Reset() { *t = Task{} }

// initialQueueCap pre-sizes each central queue's backing array so the
// steady state never grows it: append churn on the spin-locked path was
// measurable at high worker counts.
const initialQueueCap = 1024

type queue struct {
	lock spinlock.Lock
	// n mirrors len(tasks) so Pop can peek emptiness without the lock
	// (the "test" half of test-and-test-and-set, applied to the queue).
	n     atomic.Int64
	tasks []*Task
	_     [40]byte // keep queues on separate cache lines
}

// Queues is a set of task queues with the shared TaskCount.
type Queues struct {
	qs []queue
	// TaskCount is the number of units — tasks on the queues, plus tasks
	// taken from them whose private subtree is still being run; the match
	// phase is finished when it reaches zero.
	TaskCount atomic.Int64
}

// New returns n queues (n >= 1).
func New(n int) *Queues {
	if n < 1 {
		n = 1
	}
	q := &Queues{qs: make([]queue, n)}
	for i := range q.qs {
		q.qs[i].tasks = make([]*Task, 0, initialQueueCap)
	}
	return q
}

// Len reports the number of queues.
func (q *Queues) Len() int { return len(q.qs) }

// Push counts t as a new unit and pushes it onto queue idx (mod the
// queue count), returning the spins observed on the queue lock and the
// queue's depth with t on it.
func (q *Queues) Push(idx int, t *Task) (spins, depth int64) {
	q.TaskCount.Add(1)
	qu := &q.qs[idx%len(q.qs)]
	spins = qu.lock.Acquire()
	qu.tasks = append(qu.tasks, t)
	depth = int64(len(qu.tasks))
	qu.n.Store(depth)
	qu.lock.Release()
	return spins, depth
}

// Requeue makes a task a unit of its own at the bottom of a queue. Used
// by the MRSW scheme when the line is busy processing the opposite
// side: the unit the task was part of carries on without it.
func (q *Queues) Requeue(idx int, t *Task) (spins int64) {
	q.TaskCount.Add(1)
	qu := &q.qs[idx%len(q.qs)]
	spins = qu.lock.Acquire()
	// Requeued tokens go to the bottom of the stack so the conflicting
	// epoch has time to drain before the token is retried.
	qu.tasks = append(qu.tasks, nil)
	copy(qu.tasks[1:], qu.tasks)
	qu.tasks[0] = t
	qu.n.Store(int64(len(qu.tasks)))
	qu.lock.Release()
	return spins
}

// Pop takes tasks off the first non-empty queue, scanning from the
// preferred one, and appends them to dst oldest first, so a caller that
// works from the end keeps the queue's LIFO order. A queue holding at
// most whole tasks is taken whole — a backlog that small is not worth
// splitting — and a deeper one by its newest half, one lock acquisition
// either way. Processes prefer different queues, so a burst of
// empty-handed pops spreads across the set; such a scan writes nothing
// shared, so idle processes can poll without disturbing busy ones.
func (q *Queues) Pop(prefer, whole int, dst []*Task) (_ []*Task, spins int64) {
	for i := range q.qs {
		qu := &q.qs[(prefer+i)%len(q.qs)]
		if qu.n.Load() == 0 {
			continue // cheap emptiness test before locking
		}
		spins += qu.lock.Acquire()
		m := len(qu.tasks)
		k := m
		if m > whole {
			k = (m + 1) / 2
		}
		dst = append(dst, qu.tasks[m-k:]...)
		clear(qu.tasks[m-k:])
		qu.tasks = qu.tasks[:m-k]
		qu.n.Store(int64(m - k))
		qu.lock.Release()
		if k > 0 {
			break
		}
	}
	return dst, spins
}

// Done retires n units: the process that took them has run them and
// every activation they led to.
func (q *Queues) Done(n int64) { q.TaskCount.Add(-n) }
