package server_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// stormSrc is the crash-recovery workload: spawn/bump churn working
// memory through makes, modifies and removes, config-note leaves a
// fired instantiation whose WMEs survive untouched — if recovery lost
// refraction state, the next run would fire it again and the
// differential below would catch the duplicate note.
const stormSrc = `
(literalize config mode)
(literalize note mode)
(literalize item n val)
(literalize probe n)
(p config-note
  (config ^mode <m>)
-->
  (make note ^mode <m>))
(p spawn
  (probe ^n <n>)
- (item ^n <n>)
-->
  (make item ^n <n> ^val 0))
(p bump
  (probe ^n <n>)
  (item ^n <n> ^val <v>)
-->
  (modify 2 ^val (compute <v> + 1))
  (remove 1))
`

func newDurServer(t *testing.T, dir string, snapEvery int) (*server.Server, int) {
	t.Helper()
	srv := server.New(server.Options{
		DataDir:          dir,
		Durability:       "commit",
		SnapshotEvery:    snapEvery,
		DefaultMaxCycles: 10000,
		DefaultTimeout:   30 * time.Second,
	})
	n, err := srv.EnableDurability()
	if err != nil {
		t.Fatalf("EnableDurability(%s): %v", dir, err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, n
}

// TestDurabilityPolicy: the delta log has one sync policy, an fsync per
// batch, named "commit" or left empty; any other name is an error that
// names it, and nothing is opened.
func TestDurabilityPolicy(t *testing.T) {
	for _, tc := range []struct {
		durability string
		ok         bool
	}{
		{"", true},
		{"commit", true},
		{"none", false},
		{"always", false},
	} {
		t.Run("durability="+tc.durability, func(t *testing.T) {
			dir := t.TempDir()
			srv := server.New(server.Options{DataDir: dir, Durability: tc.durability})
			defer srv.Close()
			_, err := srv.EnableDurability()
			if tc.ok {
				if err != nil {
					t.Fatalf("EnableDurability: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.durability)) {
				t.Fatalf("EnableDurability = %v, want an error naming %q", err, tc.durability)
			}
			if ents, _ := os.ReadDir(dir); len(ents) != 0 {
				t.Errorf("rejected policy left %d entries in the data dir", len(ents))
			}
		})
	}
}

// stormBatches is the scripted WM storm: one config batch, then rounds
// of probes that spawn, bump and remove elements.
func stormBatches() []*server.BatchRequest {
	reqs := []*server.BatchRequest{{
		Asserts: []server.WMEInput{{Class: "config", Attrs: map[string]any{"mode": "fast"}}},
	}}
	for round := 0; round < 6; round++ {
		var req server.BatchRequest
		for n := 1; n <= 5; n++ {
			if (round+n)%3 == 0 {
				continue // skew rounds so items alternate spawn/bump
			}
			req.Asserts = append(req.Asserts, server.WMEInput{
				Class: "probe", Attrs: map[string]any{"n": n},
			})
		}
		reqs = append(reqs, &req)
	}
	return reqs
}

// fireTrace flattens a batch's firing log for exact comparison.
func fireTrace(res *server.BatchResult) []string {
	out := make([]string, 0, len(res.Firings))
	for _, f := range res.Firings {
		out = append(out, fmt.Sprintf("c%d %s %v", f.Cycle, f.Rule, f.TimeTags))
	}
	return out
}

// wmTexts returns the session's working memory as sorted text, the
// canonical form for differential comparison (timetags included).
func wmTexts(t *testing.T, s *server.Server, id string) []string {
	t.Helper()
	wmes, err := s.WMSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(wmes))
	for _, w := range wmes {
		out = append(out, fmt.Sprintf("%d %s", w.TimeTag, w.Text))
	}
	sort.Strings(out)
	return out
}

// TestCrashRecoveryDifferential runs the WM storm on a durable session,
// "crashes" (abandons the server without shutdown), recovers the data
// directory in a fresh server, and diffs working memory, timetags and
// the post-recovery firing trace against an uninterrupted control
// session fed the identical script. Covered across snapshot cadence
// (snapshot + log tail) vs pure log replay.
func TestCrashRecoveryDifferential(t *testing.T) {
	for _, snapEvery := range []int{2, 0} {
		t.Run(fmt.Sprintf("vs2/snap%d", snapEvery), func(t *testing.T) {
			dir := t.TempDir()
			cfg := server.SessionConfig{Program: stormSrc}

			// Control: uninterrupted, memory-only.
			ctl := server.New(server.Options{DefaultTimeout: 30 * time.Second})
			defer ctl.Close()
			ctlInfo, err := ctl.CreateSession(cfg)
			if err != nil {
				t.Fatal(err)
			}

			// Victim: durable, runs the storm, then is abandoned mid-life
			// (no Close, no final snapshot — recovery must come from the
			// delta log alone past the last compaction point).
			crashed, _ := newDurServer(t, dir, snapEvery)
			vicInfo, err := crashed.CreateSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range stormBatches() {
				vres, err := crashed.Batch(vicInfo.ID, req)
				if err != nil {
					t.Fatalf("victim batch %d: %v", i, err)
				}
				cres, err := ctl.Batch(ctlInfo.ID, req)
				if err != nil {
					t.Fatalf("control batch %d: %v", i, err)
				}
				if !reflect.DeepEqual(fireTrace(vres), fireTrace(cres)) {
					t.Fatalf("batch %d pre-crash trace diverged:\n%v\nvs\n%v", i, fireTrace(vres), fireTrace(cres))
				}
			}

			// Recover in a fresh server over the same data directory.
			crashed.WaitCompactions()
			srv, recovered := newDurServer(t, dir, snapEvery)
			if recovered != 1 {
				t.Fatalf("recovered %d entries, want 1", recovered)
			}

			// Recovered WM must be byte-identical to the control's.
			if got, want := wmTexts(t, srv, vicInfo.ID), wmTexts(t, ctl, ctlInfo.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered WM diverged:\n%v\nwant\n%v", got, want)
			}

			// Post-recovery batches must produce the identical firing
			// trace and timetags — this is where lost refraction state or
			// a stale tag counter would surface.
			for i, req := range stormBatches() {
				rres, err := srv.Batch(vicInfo.ID, req)
				if err != nil {
					t.Fatalf("recovered batch %d: %v", i, err)
				}
				cres, err := ctl.Batch(ctlInfo.ID, req)
				if err != nil {
					t.Fatalf("control batch %d: %v", i, err)
				}
				if !reflect.DeepEqual(fireTrace(rres), fireTrace(cres)) {
					t.Fatalf("post-recovery batch %d trace diverged:\n%v\nwant\n%v", i, fireTrace(rres), fireTrace(cres))
				}
			}
			if got, want := wmTexts(t, srv, vicInfo.ID), wmTexts(t, ctl, ctlInfo.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("final WM diverged:\n%v\nwant\n%v", got, want)
			}

			// A second restart over the now-live directory also works:
			// recovery itself left a consistent (snapshot, log) pair.
			srv.WaitCompactions()
			srv2, recovered2 := newDurServer(t, dir, snapEvery)
			if recovered2 != 1 {
				t.Fatalf("second recovery found %d entries, want 1", recovered2)
			}
			if got, want := wmTexts(t, srv2, vicInfo.ID), wmTexts(t, ctl, ctlInfo.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("second recovery WM diverged:\n%v\nwant\n%v", got, want)
			}
		})
	}
}

// TestRecoveryTornTail corrupts the delta log's tail — a torn frame, as
// a crash mid-write would leave — and checks recovery drops exactly the
// torn part, keeps the clean prefix, counts the event, and leaves the
// session writable (the log is truncated back to the clean boundary).
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	cfg := server.SessionConfig{Program: stormSrc}

	ctl := server.New(server.Options{})
	defer ctl.Close()
	ctlInfo, err := ctl.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}

	crashed, _ := newDurServer(t, dir, 0)
	vicInfo, err := crashed.CreateSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := stormBatches()
	for i, req := range reqs[:3] {
		if _, err := crashed.Batch(vicInfo.ID, req); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if _, err := ctl.Batch(ctlInfo.ID, req); err != nil {
			t.Fatalf("control batch %d: %v", i, err)
		}
	}

	// Tear the tail: a frame header promising far more bytes than exist.
	logPath := filepath.Join(dir, "sessions", vicInfo.ID, "delta.log")
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv, recovered := newDurServer(t, dir, 0)
	if recovered != 1 {
		t.Fatalf("recovered %d entries, want 1", recovered)
	}
	if torn := srv.Snapshot().Durability.TornTails; torn != 1 {
		t.Errorf("torn tails = %d, want 1", torn)
	}
	if got, want := wmTexts(t, srv, vicInfo.ID), wmTexts(t, ctl, ctlInfo.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("WM after torn-tail recovery:\n%v\nwant\n%v", got, want)
	}
	// The truncated log accepts new batches and they stay replayable.
	for i, req := range reqs[3:] {
		if _, err := srv.Batch(vicInfo.ID, req); err != nil {
			t.Fatalf("post-recovery batch %d: %v", i, err)
		}
		if _, err := ctl.Batch(ctlInfo.ID, req); err != nil {
			t.Fatalf("control batch %d: %v", i, err)
		}
	}
	srv2, _ := newDurServer(t, dir, 0)
	if got, want := wmTexts(t, srv2, vicInfo.ID), wmTexts(t, ctl, ctlInfo.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("WM after second recovery:\n%v\nwant\n%v", got, want)
	}
}

// TestForkIsolation forks one template twice, drives the forks apart,
// and checks (a) the forks diverge independently, (b) the template
// itself stays byte-identical — a third fork starts from exactly the
// state the first one did — and (c) with durability on, forks and
// template survive a restart with their divergent state intact.
func TestForkIsolation(t *testing.T) {
	t.Run("vs2", func(t *testing.T) {
		dir := t.TempDir()
		srv, _ := newDurServer(t, dir, 0)

		tcfg := &server.TemplateConfig{
			SessionConfig: server.SessionConfig{Program: stormSrc},
		}
		for n := 1; n <= 8; n++ {
			tcfg.Asserts = append(tcfg.Asserts, server.WMEInput{
				Class: "item", Attrs: map[string]any{"n": n, "val": 100},
			})
		}
		tinfo, err := srv.CreateTemplate(tcfg)
		if err != nil {
			t.Fatal(err)
		}

		fork1, err := srv.Fork(tinfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		fork2, err := srv.Fork(tinfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		base := wmTexts(t, srv, fork1.ID)
		if got := wmTexts(t, srv, fork2.ID); !reflect.DeepEqual(got, base) {
			t.Fatalf("fresh forks differ:\n%v\nvs\n%v", got, base)
		}

		// Drive the forks apart.
		probe := func(id string, n int) *server.BatchResult {
			res, err := srv.Batch(id, &server.BatchRequest{
				Asserts: []server.WMEInput{{Class: "probe", Attrs: map[string]any{"n": n}}},
			})
			if err != nil {
				t.Fatalf("batch on %s: %v", id, err)
			}
			return res
		}
		r1 := probe(fork1.ID, 1)
		probe(fork2.ID, 2)
		probe(fork2.ID, 3)
		wm1, wm2 := wmTexts(t, srv, fork1.ID), wmTexts(t, srv, fork2.ID)
		if reflect.DeepEqual(wm1, wm2) {
			t.Fatalf("forks did not diverge: %v", wm1)
		}

		// The template is untouched: its pinned hash is stable and a
		// new fork starts from the identical state — same WM bytes,
		// same behavior on the same first batch.
		for _, ti := range srv.Templates() {
			if ti.ID == tinfo.ID {
				if ti.SnapshotHash != tinfo.SnapshotHash {
					t.Fatalf("template hash changed: %s -> %s", tinfo.SnapshotHash, ti.SnapshotHash)
				}
				if ti.Forks != 2 {
					t.Errorf("fork count = %d, want 2", ti.Forks)
				}
			}
		}
		fork3, err := srv.Fork(tinfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := wmTexts(t, srv, fork3.ID); !reflect.DeepEqual(got, base) {
			t.Fatalf("post-divergence fork differs from base:\n%v\nwant\n%v", got, base)
		}
		if r3 := probe(fork3.ID, 1); !reflect.DeepEqual(fireTrace(r3), fireTrace(r1)) {
			t.Fatalf("fork3 first-batch trace:\n%v\nwant\n%v", fireTrace(r3), fireTrace(r1))
		}

		// Restart: template and all forks come back, forks keeping
		// their divergent state (fork3 now matches fork1 exactly —
		// both took the same single batch).
		wm3 := wmTexts(t, srv, fork3.ID)
		srv2, recovered := newDurServer(t, dir, 0)
		if recovered != 4 { // template + three forks
			t.Fatalf("recovered %d entries, want 4", recovered)
		}
		for id, want := range map[string][]string{fork1.ID: wm1, fork2.ID: wm2, fork3.ID: wm3} {
			if got := wmTexts(t, srv2, id); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered %s WM:\n%v\nwant\n%v", id, got, want)
			}
		}
		fork4, err := srv2.Fork(tinfo.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := wmTexts(t, srv2, fork4.ID); !reflect.DeepEqual(got, base) {
			t.Fatalf("fork from recovered template:\n%v\nwant\n%v", got, base)
		}
	})
}
