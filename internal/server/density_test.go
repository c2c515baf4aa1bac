package server_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/server"
	"repro/internal/workload"
)

// TestSessionDensity: an idle session costs what it holds. Forty
// sessions of each paper program are created from its init image, forty
// imports of a Tourney export (rebuilt by re-matching, then re-slotted
// like an image), and forty forks of a 2 000-account ledger template,
// and held open; the
// heap they add, read after two collections, divided by forty is a
// session's share. A thawed token table sized by the image's live
// tokens (hashmem.Table.Reslot) keeps Tourney, Monkeys and Rubik well
// under a megabyte each; a table thawed at the cold 16 384 lines (704 KB
// of empty lines) puts each of them near 870 KB. A Weaver image
// re-slotted past the cold size, or rehashed into it, reads near 2.7 MB
// or 2.1 MB, and a ledger template that brings the sub-indexes its
// 1 024-line image outgrew into its store reads near 440 KB a fork. An
// import that kept the cold table read near 900 KB.
func TestSessionDensity(t *testing.T) {
	const sessions, accounts = 40, 2000
	programs := []struct {
		name, src string
		fork, imp bool
		maxKB     int64
	}{
		{"tourney", workload.Tourney(16), false, false, 300},
		{"monkeys", workload.Monkeys(), false, false, 300},
		{"rubik", workload.Rubik(60), false, false, 450},
		{"weaver", workload.Weaver(20, 9), false, false, 1900},
		{"tourney import", workload.Tourney(16), false, true, 300},
		{"ledger fork", server.LedgerSrc, true, false, 360},
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, p := range programs {
		t.Run(p.name, func(t *testing.T) {
			s := server.New(server.Options{})
			defer s.Close()
			cfg := server.SessionConfig{Program: p.src}
			start := func() error { _, err := s.CreateSession(cfg); return err }
			if p.fork {
				tc := &server.TemplateConfig{SessionConfig: cfg}
				for i := range accounts {
					tc.Asserts = append(tc.Asserts, server.WMEInput{Class: "acct", Attrs: map[string]any{"id": i, "bal": 0, "n": 0}})
				}
				tpl, err := s.CreateTemplate(tc)
				if err != nil {
					t.Fatal(err)
				}
				start = func() error { _, err := s.Fork(tpl.ID); return err }
			} else {
				// The first create compiles the program and builds its
				// image; what is measured is only what a session adds.
				warm, err := s.CreateSession(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if p.imp {
					payload, err := s.ExportSession(warm.ID)
					if err != nil {
						t.Fatal(err)
					}
					n := 0
					start = func() error {
						n++
						imp := *payload
						imp.ID = fmt.Sprintf("imp-%d", n)
						_, err := s.ImportSession(&imp)
						return err
					}
				} else if err := s.DeleteSession(warm.ID); err != nil {
					t.Fatal(err)
				}
			}
			before := heap()
			for range sessions {
				if err := start(); err != nil {
					t.Fatal(err)
				}
			}
			per := (heap() - before) / sessions / 1024
			t.Logf("%s: %d KB per idle session", p.name, per)
			if per > p.maxKB {
				t.Errorf("%s: an idle session holds %d KB of heap, want at most %d KB", p.name, per, p.maxKB)
			}
		})
	}
}
