package server

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// TestDeleteRacesBatch: a request that loses the race with a delete of
// its session answers 404 and never runs on it. A deleted session's
// token table goes to the next session of its image, so a batch that
// ran on it after the delete would write into another session's
// memory; before tables were recycled it answered 200 for a write no
// session kept (memory-only) or 500 on the closed delta log (durable).
//
// "loses the lock" is the ordering made certain: the batch has looked
// the session up and waits for its lock, and the delete has begun
// before the lock is free, so the batch must answer 404 whichever of
// the two takes the lock first. "free race" lets a batch and a delete
// go at once: 200 (the batch ran first) or 404, never 500. Either way
// the next create takes the deleted session's table, and its trace,
// working memory, time tags and state must be a fresh session's.
func TestDeleteRacesBatch(t *testing.T) {
	cfg := SessionConfig{Program: LedgerSrc}
	ref := New(Options{})
	defer ref.Close()
	want := ledgerSession(t, ref, cfg)

	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			opt := Options{}
			if durable {
				opt.DataDir = t.TempDir()
			}
			s := New(opt)
			defer s.Close()
			if _, err := s.EnableDurability(); err != nil {
				t.Fatal(err)
			}
			txns := &BatchRequest{Asserts: []WMEInput{
				{Class: "txn", Attrs: map[string]any{"acct": 3, "amt": 5}},
				{Class: "txn", Attrs: map[string]any{"acct": 4, "amt": 6}},
			}}
			for round := range 6 {
				// A session with a table worth recycling: accounts, posted txns.
				a, err := s.CreateSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.Batch(a.ID, ledgerBatch(0)); err != nil {
					t.Fatal(err)
				}
				sess, err := s.session(a.ID)
				if err != nil {
					t.Fatal(err)
				}
				batch := make(chan error, 1)
				deleted := make(chan error, 1)
				certain := round%2 == 0
				if certain {
					sess.mu.Lock()
				}
				go func() { _, err := s.Batch(a.ID, txns); batch <- err }()
				if certain {
					time.Sleep(5 * time.Millisecond) // the batch waits for the lock
				}
				go func() { deleted <- s.DeleteSession(a.ID) }()
				if certain {
					for !sess.gone.Load() {
						runtime.Gosched()
					}
					sess.mu.Unlock()
				}
				if err := <-deleted; err != nil {
					t.Fatalf("round %d: delete: %v", round, err)
				}
				before := s.Snapshot().Server.ThawsReused
				got := ledgerSession(t, s, cfg)
				if n := s.Snapshot().Server.ThawsReused; n != before+1 {
					t.Fatalf("round %d: the create after a delete reused %d tables, want 1", round, n-before)
				}
				err = <-batch
				switch {
				case err == nil && certain:
					t.Fatalf("round %d: a batch that lost the lock to the delete answered 200", round)
				case err != nil && !errors.Is(err, ErrNoSession):
					t.Fatalf("round %d: a batch racing the delete failed with %v, want 200 or 404", round, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: a session on a recycled table diverged from a fresh one", round)
				}
			}
		})
	}
}

// ledgerBatch is batch b of a fixed ledger stream: b = 0 opens 64
// accounts, later ones post txns against them with a hold among them.
func ledgerBatch(b int) *BatchRequest {
	req := &BatchRequest{}
	if b == 0 {
		for i := range 64 {
			req.Asserts = append(req.Asserts, WMEInput{Class: "acct", Attrs: map[string]any{"id": i, "bal": 0, "n": 0}})
		}
		return req
	}
	req.Asserts = append(req.Asserts, WMEInput{Class: "hold", Attrs: map[string]any{"acct": (b * 29) % 64}})
	for i := range 10 {
		req.Asserts = append(req.Asserts, WMEInput{Class: "txn", Attrs: map[string]any{"acct": (b*7 + i*13) % 64, "amt": 1 + i}})
	}
	return req
}

// ledgerSession creates a session of cfg on s, runs the ledger stream
// on it and deletes it, returning every batch's firings and WM changes,
// then its final working memory and captured state hash.
func ledgerSession(t *testing.T, s *Server, cfg SessionConfig) []string {
	t.Helper()
	info, err := s.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for b := range 12 {
		res, err := s.Batch(info.ID, ledgerBatch(b))
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		out = append(out, fmt.Sprint(res.Firings, res.WMAdded, res.WMRemoved, res.Halted))
	}
	wm, err := s.WMSnapshot(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, fmt.Sprint(wm))
	sess, err := s.session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	sum, err := sess.eng.CaptureState().Hash()
	sess.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteSession(info.ID); err != nil {
		t.Fatal(err)
	}
	return append(out, fmt.Sprintf("%x", sum))
}
