package taskqueue_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/taskqueue"
	"repro/internal/wm"
)

func mkTask(n int) *taskqueue.Task {
	return &taskqueue.Task{Root: &wm.WME{TimeTag: n}}
}

// tags pops one batch and returns its time tags in the order a match
// process runs them: from the end of the appended slice, newest first.
func tags(q *taskqueue.Queues, prefer, whole int) []int {
	batch, _ := q.Pop(prefer, whole, nil)
	var out []int
	for i := len(batch) - 1; i >= 0; i-- {
		out = append(out, batch[i].Root.TimeTag)
	}
	return out
}

func TestPushPopLIFO(t *testing.T) {
	q := taskqueue.New(1)
	for i := 1; i <= 3; i++ {
		q.Push(0, mkTask(i))
	}
	if got := tags(q, 0, 3); !reflect.DeepEqual(got, []int{3, 2, 1}) {
		t.Fatalf("whole-queue pop ran %v, want [3 2 1]", got)
	}
	q.Done(3)
	if got := tags(q, 0, 3); got != nil {
		t.Fatalf("pop on empty returned %v", got)
	}
	// A queue deeper than whole goes by its newest half, rounded up.
	for i := 1; i <= 5; i++ {
		q.Push(0, mkTask(i))
	}
	for _, want := range [][]int{{5, 4, 3}, {2}, {1}} {
		if got := tags(q, 0, 0); !reflect.DeepEqual(got, want) {
			t.Fatalf("half pop ran %v, want %v", got, want)
		}
		q.Done(int64(len(want)))
	}
	if got := q.TaskCount.Load(); got != 0 {
		t.Fatalf("TaskCount = %d after everything retired", got)
	}
}

func TestTaskCountProtocol(t *testing.T) {
	q := taskqueue.New(2)
	if q.TaskCount.Load() != 0 {
		t.Fatal("fresh queues not idle")
	}
	q.Push(0, mkTask(1))
	q.Push(1, mkTask(2))
	if got := q.TaskCount.Load(); got != 2 {
		t.Fatalf("TaskCount = %d, want 2", got)
	}
	if got := tags(q, 0, 0); len(got) != 1 {
		t.Fatalf("pop took %v, want one task", got)
	}
	// Popped but in-process: still counted.
	if got := q.TaskCount.Load(); got != 2 {
		t.Fatalf("TaskCount after pop = %d, want 2 (in-process counts)", got)
	}
	q.Done(1)
	if got := q.TaskCount.Load(); got != 1 {
		t.Fatalf("TaskCount after done = %d, want 1", got)
	}
}

func TestPopStealsFromOtherQueues(t *testing.T) {
	q := taskqueue.New(4)
	q.Push(3, mkTask(7))
	// Prefers queue 0, must find queue 3.
	if got := tags(q, 0, 0); !reflect.DeepEqual(got, []int{7}) {
		t.Fatalf("steal failed: %v", got)
	}
	q.Done(1)
}

func TestRequeueGoesToBottom(t *testing.T) {
	q := taskqueue.New(1)
	q.Push(0, mkTask(1))
	q.Push(0, mkTask(2))
	batch, _ := q.Pop(0, 0, nil)
	if len(batch) != 1 || batch[0].Root.TimeTag != 2 {
		t.Fatalf("expected LIFO top 2, got %v", batch)
	}
	q.Requeue(0, batch[0]) // back to the bottom, a unit of its own
	q.Done(1)              // the unit it was part of retires
	if got := tags(q, 0, 2); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("order after requeue = %v; want [1 2]", got)
	}
	q.Done(2)
	if got := q.TaskCount.Load(); got != 0 {
		t.Fatalf("TaskCount = %d after everything retired", got)
	}
}

func TestConcurrentPushPop(t *testing.T) {
	q := taskqueue.New(4)
	const perG = 5000
	var popped int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				q.Push(g+i, mkTask(i))
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := int64(0)
			for {
				batch, _ := q.Pop(0, 4, nil)
				if len(batch) == 0 {
					mu.Lock()
					done := popped >= 4*perG
					mu.Unlock()
					if done {
						return
					}
					continue
				}
				n := int64(len(batch))
				q.Done(n)
				local += n
				mu.Lock()
				popped += n
				mu.Unlock()
				if local > 4*perG {
					t.Error("popped more tasks than pushed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if popped != 4*perG {
		t.Fatalf("popped %d, want %d", popped, 4*perG)
	}
}
