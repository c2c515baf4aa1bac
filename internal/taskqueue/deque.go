package taskqueue

import "sync/atomic"

// Deque is a bounded lock-free work-stealing deque (the Chase-Lev
// shape, fixed-size): exactly one owner pushes and pops at the bottom
// in LIFO order without ever taking a lock, while any number of
// thieves take from the top in FIFO order with a single CAS. The
// parallel matcher gives each match process one of these as the place
// it shares work from: the oldest half of a deep private stack goes in,
// idle peers steal it out, and the shared spin-locked queues are touched
// only when a deque overflows — the paper's central-queue contention
// (§4.2, Table 4-7) stays off the common path.
//
// Boundedness is what makes the fixed buffer safe: a slot is only
// rewritten by Push after top has advanced past it (the size check
// reads top), and top only ever advances through a CAS, so a thief
// that read a slot but loses the CAS never uses the stale pointer.
type Deque struct {
	top  atomic.Int64
	_    [56]byte // owner and thieves hammer different words
	bot  atomic.Int64
	_    [56]byte
	buf  []atomic.Pointer[Task]
	mask int64
}

// DefaultLocalCap is the per-worker deque capacity used when the
// matcher configuration doesn't choose one.
const DefaultLocalCap = 256

// NewDeque returns a deque holding at least capacity tasks, rounded up
// to a power of two (capacity <= 0 selects DefaultLocalCap).
func NewDeque(capacity int) *Deque {
	if capacity <= 0 {
		capacity = DefaultLocalCap
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Deque{buf: make([]atomic.Pointer[Task], n), mask: int64(n - 1)}
}

// Cap reports the fixed capacity.
func (d *Deque) Cap() int { return len(d.buf) }

// Size reports the number of queued tasks. Exact for the owner; a
// racy lower bound for anyone else.
func (d *Deque) Size() int64 { return max(d.bot.Load()-d.top.Load(), 0) }

// Push appends a task at the bottom. Owner only. It reports false when
// the deque is full — the caller spills to the central queues instead.
func (d *Deque) Push(t *Task) bool {
	b := d.bot.Load()
	if b-d.top.Load() >= int64(len(d.buf)) {
		return false
	}
	d.buf[b&d.mask].Store(t)
	d.bot.Store(b + 1)
	return true
}

// Pop removes the most recently pushed task. Owner only. LIFO keeps
// the owner working depth-first on hot tokens, as the paper's stack
// queues do.
func (d *Deque) Pop() *Task {
	b := d.bot.Load() - 1
	if d.top.Load() > b {
		// Empty, and owner-exact (only the owner raises bot): the common
		// case costs two loads and reserves nothing.
		return nil
	}
	d.bot.Store(b)
	t := d.top.Load()
	if t > b {
		// A thief emptied it since: undo the reservation.
		d.bot.Store(b + 1)
		return nil
	}
	task := d.buf[b&d.mask].Load()
	if t < b {
		return task // more than one element left, no thief can reach it
	}
	// Last element: race the thieves for it via top.
	if !d.top.CompareAndSwap(t, t+1) {
		task = nil // a thief won
	}
	d.bot.Store(b + 1)
	return task
}

// Steal removes the oldest task on behalf of another worker. Any
// goroutine may call it. It returns nil when the deque is empty or the
// CAS race is lost.
func (d *Deque) Steal() *Task {
	t := d.top.Load()
	if t >= d.bot.Load() {
		return nil
	}
	task := d.buf[t&d.mask].Load()
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return task
}
