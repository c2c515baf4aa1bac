package server

import (
	"testing"

	"repro/internal/workload"
)

// TestGaugesSumLiveSessions: the server's gauges sum the live sessions.
// A deleted session takes its gauges with it, and a restore counts the
// session once, not once per core it has had.
func TestGaugesSumLiveSessions(t *testing.T) {
	s := New(Options{DataDir: t.TempDir()})
	defer s.Close()
	if _, err := s.EnableDurability(); err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{Program: workload.Tourney(16)}
	for range 3 {
		info, err := s.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Batch(info.ID, &BatchRequest{MaxCycles: 5}); err != nil {
			t.Fatal(err)
		}
		if err := s.DeleteSession(info.ID); err != nil {
			t.Fatal(err)
		}
	}
	// The gauges: conflict live, fired and pending, memory lines, entries
	// and max line depth.
	snap := s.Snapshot()
	c, m := snap.Conflict, snap.Memory
	if g := [6]int64{c.Live, c.Fired, c.Pending, m.Lines, m.Entries, m.MaxLineDepth}; g != [6]int64{} {
		t.Fatalf("gauges after every session was deleted = %v, want all 0", g)
	}

	info, err := s.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Batch(info.ID, &BatchRequest{MaxCycles: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RestoreSession(info.ID); err != nil {
		t.Fatal(err)
	}
	sess, err := s.session(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	own := sess.matcher.MemStats()
	sess.mu.Unlock()
	if got := s.Snapshot().Memory; got.Lines != own.Lines || got.Entries != own.Entries {
		t.Fatalf("after restore memory lines/entries = %d/%d, the session's own table %d/%d",
			got.Lines, got.Entries, own.Lines, own.Entries)
	}
}
