package spinlock_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/spinlock"
)

func TestLockMutualExclusion(t *testing.T) {
	var l spinlock.Lock
	var counter int64
	var inside atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Acquire()
				if inside.Add(1) != 1 {
					t.Error("two goroutines inside the critical section")
				}
				counter++
				inside.Add(-1)
				l.Release()
			}
		}()
	}
	wg.Wait()
	if counter != 8000 {
		t.Fatalf("counter = %d, want 8000", counter)
	}
}

func TestUncontendedAcquireHasNoSpins(t *testing.T) {
	var l spinlock.Lock
	if spins := l.Acquire(); spins != 0 {
		t.Fatalf("uncontended acquire spun %d times", spins)
	}
	l.Release()
}

func TestTryAcquire(t *testing.T) {
	var l spinlock.Lock
	if !l.TryAcquire() {
		t.Fatal("TryAcquire on free lock failed")
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire on held lock succeeded")
	}
	l.Release()
	if !l.TryAcquire() {
		t.Fatal("TryAcquire after release failed")
	}
	l.Release()
}

func TestContendedAcquireCountsSpins(t *testing.T) {
	// The holder sleeps with the lock held after the contender has
	// started, so the contender (which yields while spinning) gets to
	// run and observe the lock busy. A few attempts absorb a contender
	// descheduled for the whole hold.
	for attempt := 0; attempt < 5; attempt++ {
		var l spinlock.Lock
		l.Acquire()
		started := make(chan struct{})
		done := make(chan int64)
		go func() {
			close(started)
			spins := l.Acquire()
			l.Release()
			done <- spins
		}()
		<-started
		time.Sleep(10 * time.Millisecond)
		l.Release()
		if spins := <-done; spins > 0 {
			return
		}
	}
	t.Fatal("contended acquire never reported a busy observation")
}

func TestMRSWSameSideSharing(t *testing.T) {
	var m spinlock.MRSW
	ok1, _ := m.Enter(0)
	ok2, _ := m.Enter(0)
	if !ok1 || !ok2 {
		t.Fatal("two same-side processes should share the line")
	}
	if ok, _ := m.Enter(1); ok {
		t.Fatal("opposite side admitted during a left epoch")
	}
	m.Exit()
	if ok, _ := m.Enter(1); ok {
		t.Fatal("opposite side admitted while one left user remains")
	}
	m.Exit()
	if ok, _ := m.Enter(1); !ok {
		t.Fatal("right side rejected after the epoch ended")
	}
	m.Exit()
}

func TestMRSWConcurrentEpochs(t *testing.T) {
	var m spinlock.MRSW
	var left, right atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		side := g % 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; {
				ok, _ := m.Enter(side)
				if !ok {
					continue // model the requeue by retrying
				}
				if side == 0 {
					left.Add(1)
					if right.Load() != 0 {
						t.Error("left active while right inside")
					}
					left.Add(-1)
				} else {
					right.Add(1)
					if left.Load() != 0 {
						t.Error("right active while left inside")
					}
					right.Add(-1)
				}
				m.Exit()
				i++
			}
		}()
	}
	wg.Wait()
}
