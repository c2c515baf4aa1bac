package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/wm"
	"repro/internal/wmlog"
	"repro/internal/workload"
)

// matchesCold holds a created session, locked, to build + Init of its
// program: the same captured state and live tokens on a table of lines
// lines, and the same trace, WM, time tags and state at halt.
func matchesCold(t *testing.T, sess *Session, cfg *SessionConfig, lines int64) {
	t.Helper()
	cold := coldCore(t, sess.sp, cfg)
	sameState(t, sess.eng, cold.eng)
	gm, wm := sess.matcher.MemStats(), cold.matcher.MemStats()
	if gm.Lines != lines || gm.Entries != wm.Entries {
		t.Errorf("memory stats %+v, cold %+v; want %d lines", gm, wm, lines)
	}
	gotFires, gotWM := runToHalt(t, sess.eng)
	wantFires, wantWM := runToHalt(t, cold.eng)
	if !reflect.DeepEqual(gotFires, wantFires) {
		t.Errorf("firing trace differs from cold: %d firings, want %d", len(gotFires), len(wantFires))
	}
	if !reflect.DeepEqual(gotWM, wantWM) {
		t.Errorf("final WM differs from cold: %d elements, want %d", len(gotWM), len(wantWM))
	}
	sameState(t, sess.eng, cold.eng)
}

// sameState compares two engines' captured state hashes: working
// memory, time tags, refraction and halt.
func sameState(t *testing.T, got, want *engine.Engine) {
	t.Helper()
	g, err := got.CaptureState().Hash()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.CaptureState().Hash()
	if err != nil {
		t.Fatal(err)
	}
	if g != w {
		t.Errorf("captured state hash %x, want %x", g, w)
	}
}

// ledgerTraffic drives an engine of LedgerSrc through a fixed stream of
// batches, txns against the first 200 accounts with holds among them
// and each batch run to quiescence, and returns each batch's firings
// and the final WM with time tags.
func ledgerTraffic(t *testing.T, sp *sharedProgram, eng *engine.Engine) [][]string {
	t.Helper()
	var out [][]string
	fired := 0
	for b := range 20 {
		var batch [][]wm.Value
		for i := range 12 {
			in := WMEInput{Class: "txn", Attrs: map[string]any{"acct": (b*37 + i*11) % 200, "amt": 1 + (b+i)%9}}
			if i == 0 {
				in = WMEInput{Class: "hold", Attrs: map[string]any{"acct": (b * 53) % 200}}
			}
			fields, err := buildFields(sp.prog, &in)
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, fields)
		}
		if _, err := eng.AssertBatch(batch); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Run(engine.Options{RecordFiring: true})
		if err != nil {
			t.Fatal(err)
		}
		var fires []string
		for _, f := range res.Firings {
			fires = append(fires, fmt.Sprint(f))
		}
		out = append(out, fires)
		fired += len(fires)
	}
	if fired < 100 {
		t.Fatalf("fixture: the ledger traffic fired %d times", fired)
	}
	var final []string
	for _, w := range eng.WM.Snapshot() {
		final = append(final, fmt.Sprintf("%d %s", w.TimeTag, w.String(eng.Prog.Symbols, eng.Prog.AttrName)))
	}
	return append(out, final)
}

// coldCore is what a create built before init images: a fresh core on
// empty working memory, then Init.
func coldCore(t *testing.T, sp *sharedProgram, cfg *SessionConfig) *core {
	t.Helper()
	c, err := sp.build(cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := c.eng.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	return c
}

// runToHalt plays an engine to the end and returns its firing trace and
// final working memory with time tags.
func runToHalt(t *testing.T, eng *engine.Engine) ([]engine.Firing, []string) {
	t.Helper()
	res, err := eng.Run(engine.Options{RecordFiring: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Halted {
		t.Fatalf("run stopped after %d cycles without halting", res.Cycles)
	}
	var wmes []string
	for _, w := range eng.WM.Snapshot() {
		wmes = append(wmes, fmt.Sprintf("%d %s", w.TimeTag, w.String(eng.Prog.Symbols, eng.Prog.AttrName)))
	}
	return res.Firings, wmes
}

// TestCreateForksProgramImage: a created session is a thaw of its
// program's init image, and must be indistinguishable from the core a
// create used to build (build + Init): the same captured state, the same
// live tokens, and the same firing trace, working memory and time tags
// all the way to halt. Only the table's geometry differs: the image is
// re-slotted when it is frozen (hashmem.Table.Reslot), so a create
// starts at the smallest power of two of lines holding its live tokens,
// floored at 1 024 and capped at the cold 16 384. The deepest line
// depends on that geometry, so it is not compared. Each program is
// created, run to halt and deleted, then created again: the second
// create takes over the first one's token table (the image's spare) and
// must hold to build + Init all the same. A durable create must
// journal exactly the log Init would have written, and a program must
// build one image however many creates race for it and whatever their
// trace level or match budget. The program subtests run in parallel on
// one server, so their creates and thaws race each other too.
func TestCreateForksProgramImage(t *testing.T) {
	programs := []struct {
		name, src string
		lines     int64 // the re-slotted image's geometry
	}{
		{"weaver", workload.Weaver(20, 9), 16384}, // 18 k live tokens, held at the cold size
		{"rubik", workload.Rubik(60), 4096},       // 2 063
		{"tourney", workload.Tourney(16), 1024},   // 291
		{"monkeys", workload.Monkeys(), 1024},     // 15
	}
	s := New(Options{})
	t.Cleanup(s.Close)
	for _, p := range programs {
		cfg := SessionConfig{Program: p.src}
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, round := range []string{"fresh table", "recycled table"} {
				info, err := s.CreateSession(cfg)
				if err != nil {
					t.Fatalf("%s: create: %v", round, err)
				}
				sess, err := s.session(info.ID)
				if err != nil {
					t.Fatal(err)
				}
				if spare := sess.from.spare.Load(); spare != nil {
					t.Fatalf("%s: the create left its image's spare untaken", round)
				}
				sess.mu.Lock()
				matchesCold(t, sess, &cfg, p.lines)
				sess.mu.Unlock()
				if err := s.DeleteSession(info.ID); err != nil {
					t.Fatal(err)
				}
				if sess.from.spare.Load() != sess.matcher.Table {
					t.Fatalf("%s: delete did not hand the session's token table to its image", round)
				}
			}
		})
	}
	t.Run("ledger fork after a deleted fork", func(t *testing.T) {
		t.Parallel()
		s := New(Options{})
		defer s.Close()
		tc := &TemplateConfig{SessionConfig: SessionConfig{Program: LedgerSrc}}
		for i := range 200 {
			tc.Asserts = append(tc.Asserts, WMEInput{Class: "acct", Attrs: map[string]any{"id": i, "bal": 0, "n": 0}})
		}
		tpl, err := s.CreateTemplate(tc)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := wmlog.DecodeSnapshot(s.templates[tpl.ID].state)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]string
		for round := range 2 {
			fork, err := s.Fork(tpl.ID)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := s.session(fork.ID)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := sess.sp.restore(&tc.SessionConfig, snap, nil)
			if err != nil {
				t.Fatal(err)
			}
			sess.mu.Lock()
			sameState(t, sess.eng, cold.eng)
			got := ledgerTraffic(t, sess.sp, sess.eng)
			if w := ledgerTraffic(t, sess.sp, cold.eng); !reflect.DeepEqual(got, w) {
				t.Errorf("fork %d: trace and WM differ from the template's restored state", round)
			}
			sameState(t, sess.eng, cold.eng)
			sess.mu.Unlock()
			if want != nil && !reflect.DeepEqual(got, want) {
				t.Errorf("fork %d: trace and WM differ from the first fork's", round)
			}
			want = got
			if err := s.DeleteSession(fork.ID); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.Snapshot().Server.ThawsReused; n != 1 {
			t.Errorf("two forks with a delete between them reused %d tables, want 1", n)
		}
	})

	t.Run("durable log", func(t *testing.T) {
		ds := New(Options{DataDir: t.TempDir()})
		defer ds.Close()
		if _, err := ds.EnableDurability(); err != nil {
			t.Fatal(err)
		}
		cfg := SessionConfig{Program: workload.Weaver(20, 9)}
		info, err := ds.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := ds.session(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(wmlog.LogPath(sess.dir))
		if err != nil {
			t.Fatal(err)
		}
		// What Init journals: a cold core with a journal over a log of its
		// own, committed once.
		c, err := sess.sp.build(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "delta.log")
		w, err := wmlog.Create(path, sess.sp.hash, wmlog.SyncCommit, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.eng.SetJournal(&sessionJournal{w: w, tab: sess.sp.prog.Symbols})
		if err := c.eng.Init(); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 10000 || !bytes.Equal(got, want) {
			t.Errorf("created session's delta.log is %d bytes, Init journals %d; equal: %v", len(got), len(want), bytes.Equal(got, want))
		}
	})

	t.Run("one image per program", func(t *testing.T) {
		s := New(Options{})
		defer s.Close()
		src := workload.Tourney(8)
		const creates = 16
		var wg sync.WaitGroup
		sums := make([][32]byte, creates)
		errs := make([]error, creates)
		for i := range creates {
			wg.Add(1)
			go func() {
				defer wg.Done()
				info, err := s.CreateSession(SessionConfig{Program: src})
				if err != nil {
					errs[i] = err
					return
				}
				sess, err := s.session(info.ID)
				if err != nil {
					errs[i] = err
					return
				}
				sess.mu.Lock()
				sums[i], errs[i] = sess.eng.CaptureState().Hash()
				sess.mu.Unlock()
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			if sums[i] != sums[0] {
				t.Fatalf("create %d started from state %x, create 0 from %x", i, sums[i], sums[0])
			}
		}
		built := func() int64 { return s.Snapshot().Server.ProgramImagesBuilt }
		if n := built(); n != 1 {
			t.Fatalf("%d concurrent creates built %d images, want 1", creates, n)
		}
		// Trace level and match budget do not key the image.
		for _, cfg := range []SessionConfig{{Watch: 2}, {MatchBudget: 500}, {Matcher: "vs2", Watch: -1}} {
			cfg.Program = src
			if _, err := s.CreateSession(cfg); err != nil {
				t.Fatal(err)
			}
			if n := built(); n != 1 {
				t.Fatalf("after create %+v: %d images built, want 1", cfg, n)
			}
		}
	})
}

// TestCreateFromImageFasterThanInit is wired into make bench-smoke
// (BENCH_SMOKE=1): a warm Weaver(20, 9) create — a thaw of the program's
// init image — must beat what a create did before images, build + Init
// on the same server, by at least 3x (about 7x measured on a 2-CPU
// x86-64 host). Losing the image path collapses the ratio toward 1.
func TestCreateFromImageFasterThanInit(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	const reps, minSpeedup = 9, 3
	s := New(Options{})
	defer s.Close()
	// By hash, as a routing proxy creates: no source bytes to hash.
	reg, err := s.RegisterProgram(workload.Weaver(20, 9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{ProgramHash: reg.Hash}
	create := func() time.Duration {
		start := time.Now()
		info, err := s.CreateSession(cfg)
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		d := time.Since(start)
		if err := s.DeleteSession(info.ID); err != nil {
			t.Fatal(err)
		}
		return d
	}
	create() // compiles the program and builds its image
	sp, _, err := s.resolveProgram(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var creates, inits []time.Duration
	for range reps {
		creates = append(creates, create())
		start := time.Now()
		coldCore(t, sp, &cfg)
		inits = append(inits, time.Since(start))
	}
	slices.Sort(creates)
	slices.Sort(inits)
	c, i := creates[reps/2], inits[reps/2]
	speedup := float64(i) / float64(c)
	t.Logf("Weaver(20, 9) create %v, build + Init %v (%.1fx)", c, i, speedup)
	if speedup < minSpeedup {
		t.Errorf("create from the init image only %.2fx faster than build + Init (< %dx)", speedup, minSpeedup)
	}
}
