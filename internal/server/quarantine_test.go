package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

const qsrc = `
(literalize req n)
(p echo (req ^n <n>) --> (remove 1))
`

// TestPanicQuarantine forces a panic inside a session's guarded region
// and checks the daemon survives: the panic comes back as
// ErrSessionBroken, the session refuses further work, other sessions
// keep running, and the panic is counted.
func TestPanicQuarantine(t *testing.T) {
	s := New(Options{})
	defer s.Close()

	a, err := s.CreateSession(SessionConfig{Program: qsrc})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.CreateSession(SessionConfig{Program: qsrc})
	if err != nil {
		t.Fatal(err)
	}

	sessA, err := s.session(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	err = s.guard(sessA, func() error { panic("rule gone rogue") })
	if !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("guard returned %v, want ErrSessionBroken", err)
	}

	// The broken session rejects requests without panicking again.
	if _, err := s.Batch(a.ID, &BatchRequest{}); !errors.Is(err, ErrSessionBroken) {
		t.Fatalf("batch on broken session: %v", err)
	}
	// The healthy session is unaffected.
	res, err := s.Batch(b.ID, &BatchRequest{
		Asserts: []WMEInput{{Class: "req", Attrs: map[string]any{"n": 1}}},
	})
	if err != nil || len(res.Firings) != 1 {
		t.Fatalf("healthy session after panic: res=%+v err=%v", res, err)
	}
	snap := s.Snapshot()
	if snap.Server.Panics != 1 {
		t.Errorf("panics = %d, want 1", snap.Server.Panics)
	}
	// A quarantined session can still be deleted cleanly.
	if err := s.DeleteSession(a.ID); err != nil {
		t.Errorf("delete broken session: %v", err)
	}
}

// TestPoolDrainsOnClose checks every admitted call runs to completion
// before Close returns, and a call after Close fails with ErrClosed.
func TestPoolDrainsOnClose(t *testing.T) {
	s := New(Options{Workers: 2})
	var ran atomic.Int64
	const jobs = 50
	done := make(chan error, jobs)
	for i := 0; i < jobs; i++ {
		go func() {
			done <- s.work(context.Background(), func() {
				time.Sleep(100 * time.Microsecond)
				ran.Add(1)
			})
		}()
	}
	// Let some calls get admitted, then close; the calls race the close
	// and must either run fully or fail with ErrClosed.
	time.Sleep(2 * time.Millisecond)
	s.Close()
	finished := ran.Load()
	admitted := int64(0)
	for i := 0; i < jobs; i++ {
		if err := <-done; err == nil {
			admitted++
		} else if !errors.Is(err, ErrClosed) {
			t.Fatalf("unexpected work error: %v", err)
		}
	}
	if finished != admitted {
		t.Errorf("%d calls finished by Close but %d were admitted", finished, admitted)
	}
	if err := s.work(context.Background(), func() {}); !errors.Is(err, ErrClosed) {
		t.Errorf("work after close: %v", err)
	}
}

// TestPoolHonorsContext checks a call that finds every slot held and
// whose context expires fails with the context's error without running.
func TestPoolHonorsContext(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	held, release := make(chan struct{}), make(chan struct{})
	go s.work(context.Background(), func() {
		close(held)
		<-release
	})
	<-held
	defer close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	ran := false
	if err := s.work(ctx, func() { ran = true }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if ran {
		t.Fatal("work ran its function after its context expired")
	}
}
