package taskqueue_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/taskqueue"
)

func TestDequeOwnerLIFO(t *testing.T) {
	d := taskqueue.NewDeque(8)
	for i := 1; i <= 3; i++ {
		if !d.Push(mkTask(i)) {
			t.Fatalf("push %d failed on non-full deque", i)
		}
	}
	for want := 3; want >= 1; want-- {
		task := d.Pop()
		if task == nil || task.Root.TimeTag != want {
			t.Fatalf("popped %v, want tag %d", task, want)
		}
	}
	if task := d.Pop(); task != nil {
		t.Fatalf("pop on empty returned %v", task)
	}
}

func TestDequeStealFIFO(t *testing.T) {
	d := taskqueue.NewDeque(8)
	for i := 1; i <= 3; i++ {
		d.Push(mkTask(i))
	}
	for want := 1; want <= 3; want++ {
		task := d.Steal()
		if task == nil || task.Root.TimeTag != want {
			t.Fatalf("stole %v, want tag %d", task, want)
		}
	}
	if task := d.Steal(); task != nil {
		t.Fatalf("steal on empty returned %v", task)
	}
}

// TestDequeOverflowRefill exercises the spill path: a full deque
// rejects pushes (the matcher then spills to the central queues), and
// space freed by pops or steals becomes pushable again.
func TestDequeOverflowRefill(t *testing.T) {
	d := taskqueue.NewDeque(4)
	if d.Cap() != 4 {
		t.Fatalf("Cap = %d, want 4", d.Cap())
	}
	for i := 1; i <= 4; i++ {
		if !d.Push(mkTask(i)) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if d.Push(mkTask(5)) {
		t.Fatal("push succeeded on full deque")
	}
	if task := d.Steal(); task == nil || task.Root.TimeTag != 1 {
		t.Fatalf("steal got %v, want tag 1", task)
	}
	if !d.Push(mkTask(5)) {
		t.Fatal("push failed after steal freed a slot")
	}
	if d.Push(mkTask(6)) {
		t.Fatal("push succeeded on re-filled deque")
	}
	// Drain interleaving owner pops and thief steals; every task must
	// come out exactly once.
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		var task *taskqueue.Task
		if i%2 == 0 {
			task = d.Pop()
		} else {
			task = d.Steal()
		}
		if task == nil {
			t.Fatalf("drain step %d got nil", i)
		}
		if seen[task.Root.TimeTag] {
			t.Fatalf("task %d delivered twice", task.Root.TimeTag)
		}
		seen[task.Root.TimeTag] = true
	}
	if d.Size() != 0 {
		t.Fatalf("Size = %d after drain, want 0", d.Size())
	}
}

// TestDequeConcurrentConservation runs one owner (pushing and popping)
// against several thieves and checks that every pushed task is consumed
// exactly once — the invariant the matcher's TaskCount protocol rests
// on. Run under -race this also checks the deque's memory ordering.
func TestDequeConcurrentConservation(t *testing.T) {
	const (
		thieves = 4
		total   = 20000
	)
	d := taskqueue.NewDeque(64)
	var consumed atomic.Int64
	var sum atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < thieves; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if task := d.Steal(); task != nil {
					consumed.Add(1)
					sum.Add(int64(task.Root.TimeTag))
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	// Owner: push every task, popping locally whenever the deque fills.
	for i := 1; i <= total; i++ {
		task := mkTask(i)
		for !d.Push(task) {
			if got := d.Pop(); got != nil {
				consumed.Add(1)
				sum.Add(int64(got.Root.TimeTag))
			}
		}
	}
	for {
		task := d.Pop()
		if task == nil {
			if d.Size() == 0 {
				break
			}
			continue
		}
		consumed.Add(1)
		sum.Add(int64(task.Root.TimeTag))
	}
	// The deque is empty from the owner's view; let the thieves finish
	// any in-flight steal, then stop them.
	for consumed.Load() < total {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if got := consumed.Load(); got != total {
		t.Fatalf("consumed %d tasks, want %d", got, total)
	}
	wantSum := int64(total) * int64(total+1) / 2
	if got := sum.Load(); got != wantSum {
		t.Fatalf("tag checksum %d, want %d (task lost or duplicated)", got, wantSum)
	}
}

func TestSpillDoesNotDoubleCount(t *testing.T) {
	q := taskqueue.New(2)
	q.TaskCount.Add(1) // the spawner's count for this task
	q.Spill(0, mkTask(1))
	if got := q.TaskCount.Load(); got != 1 {
		t.Fatalf("TaskCount after Spill = %d, want 1", got)
	}
	if got := tags(q, 0, 0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("pop got %v, want the spilled task", got)
	}
	q.Done(1)
	if got := q.TaskCount.Load(); got != 0 {
		t.Fatalf("TaskCount after Done = %d, want 0", got)
	}
}

// TestFreeListRecycles moves tasks through the shared reserve the way
// the matcher's processes do: one whose private list overflowed hands
// its newest FreeBatch back, one that ran dry refills, and between them
// no task is lost or handed out twice.
func TestFreeListRecycles(t *testing.T) {
	var f taskqueue.FreeList
	if got := f.Refill(nil); len(got) != 0 {
		t.Fatalf("Refill from an empty reserve returned %d tasks", len(got))
	}
	const extra = 5
	src := make([]*taskqueue.Task, 0, 2*taskqueue.FreeBatch+extra)
	seen := map[*taskqueue.Task]int{}
	for i := 0; i < cap(src); i++ {
		src = append(src, &taskqueue.Task{})
		seen[src[i]] = 0
	}
	src = f.HandBack(f.HandBack(src))
	if len(src) != extra {
		t.Fatalf("two hand-backs left %d tasks, want %d", len(src), extra)
	}
	for _, p := range src[len(src):cap(src)] {
		if p != nil {
			t.Fatal("hand-back left a stale pointer behind the slice")
		}
	}
	var dst []*taskqueue.Task
	for i := 0; i < 3; i++ {
		before := len(dst)
		dst = f.Refill(dst)
		if got, want := len(dst)-before, taskqueue.FreeBatch; i < 2 && got != want {
			t.Fatalf("refill %d moved %d tasks, want %d", i, got, want)
		} else if i == 2 && got != 0 {
			t.Fatalf("refill from a drained reserve moved %d tasks", got)
		}
	}
	for _, p := range append(dst, src...) {
		seen[p]++
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("task %p came back %d times, want once", p, n)
		}
	}
}
