package server_test

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// lifecycleSrc is the workload of the lifecycle differential: the WM
// storm of stormSrc plus the cross-product pair of crossBudgetSrc, so
// one session can diverge from its compiled program in all three ways —
// a runtime build, a runtime excise and a match-budget quarantine.
const lifecycleSrc = `
(literalize config mode)
(literalize note mode)
(literalize item n val)
(literalize probe n)
(literalize audit n)
(literalize req n)
(literalize junk n)
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
(p eat
  (req ^n <n>)
-->
  (remove 1))
(p cross
  (req ^n <x>)
  (junk ^n <a>)
  (junk ^n <b>)
-->
  (remove 1))
(make junk ^n 1) (make junk ^n 2) (make junk ^n 3) (make junk ^n 4)
(make junk ^n 5) (make junk ^n 6) (make junk ^n 7) (make junk ^n 8)
`

// tallySrc is hot-built into the running session: it matches items that
// already exist, so its instantiations (and which of them fired) are
// state only a codec that carries the program delta can rebuild.
const tallySrc = `(p tally (item ^n <n> ^val 2) --> (make audit ^n <n>))`

// lifecycleStep is one scripted request: a batch or a program change.
type lifecycleStep struct {
	batch *server.BatchRequest
	prog  *server.ProgramRequest
}

func asserts(class, attr string, vals ...any) *server.BatchRequest {
	req := &server.BatchRequest{}
	for _, v := range vals {
		req.Asserts = append(req.Asserts, server.WMEInput{Class: class, Attrs: map[string]any{attr: v}})
	}
	return req
}

// lifecycleScript drives a session apart from its compiled program and
// keeps exercising every divergence afterwards. disturbAt indexes the
// first step that runs after the victim's lifecycle operation; snapAt
// the step before which durable victims may take an early snapshot (the
// build is then in the snapshot, the excise and quarantine in the log).
func lifecycleScript() (steps []lifecycleStep, snapAt, disturbAt int) {
	steps = []lifecycleStep{
		{batch: asserts("config", "mode", "fast")},
		{batch: asserts("probe", "n", 1, 2, 3, 4)},
		{batch: asserts("probe", "n", 1, 2, 3, 5)},
		{batch: asserts("probe", "n", 1, 2, 4, 5)},
		{prog: &server.ProgramRequest{Source: tallySrc}},
		{batch: asserts("probe", "n", 1, 3, 4, 5)}, // snapAt
		{prog: &server.ProgramRequest{Excise: []string{"config-note"}}},
		{batch: asserts("req", "n", 1, 2, 3)}, // trips the budget: cross quarantined
		{batch: asserts("probe", "n", 2, 3, 4, 5)},
		// disturbAt: everything below needs the diverged network.
		{batch: asserts("config", "mode", "slow")}, // config-note stays excised
		{batch: asserts("req", "n", 4, 5, 6)},      // cross stays quarantined
		{batch: asserts("probe", "n", 1, 2, 3, 4, 5)},
		{batch: asserts("probe", "n", 1, 2, 3, 4, 5)}, // tally keeps firing
	}
	return steps, 5, 9
}

// lifecycleEnv is the victim (or control) session and the server that
// currently hosts it; a lifecycle operation may move it.
type lifecycleEnv struct {
	srv *server.Server
	dir string // data dir of a durable host, else ""
	id  string
}

// apply runs one step and returns a canonical text of everything the
// client can observe about it.
func (e *lifecycleEnv) apply(t *testing.T, st lifecycleStep) string {
	t.Helper()
	if st.prog != nil {
		res, err := e.srv.Program(e.id, st.prog)
		if err != nil {
			t.Fatalf("program change on %s: %v", e.id, err)
		}
		return fmt.Sprintf("added %v excised %v rules %d", res.Added, res.Excised, res.Rules)
	}
	res, err := e.srv.Batch(e.id, st.batch)
	if err != nil {
		t.Fatalf("batch on %s: %v", e.id, err)
	}
	return fmt.Sprintf("fired %v added %v removed %v size %d halted %v",
		fireTrace(res), res.WMAdded, res.WMRemoved, res.WMSize, res.Halted)
}

// checkSlots runs the slot-safety oracle on the session after what.
func (e *lifecycleEnv) checkSlots(t *testing.T, what string) {
	t.Helper()
	if err := e.srv.CheckSlots(e.id); err != nil {
		t.Fatalf("after %s: %v", what, err)
	}
}

func (e *lifecycleEnv) rules(t *testing.T) int {
	t.Helper()
	for _, info := range e.srv.Sessions() {
		if info.ID == e.id {
			return info.Rules
		}
	}
	t.Fatalf("session %s not listed", e.id)
	return 0
}

// crash abandons the victim's durable server (no Close, no snapshot)
// and recovers its data directory in a fresh one.
func (e *lifecycleEnv) crash(t *testing.T) {
	t.Helper()
	srv, n := newDurServer(t, e.dir, 0)
	if n == 0 {
		t.Fatalf("recovery of %s found nothing", e.dir)
	}
	e.srv = srv
}

func memServer(t *testing.T) *server.Server {
	srv := server.New(server.Options{DefaultTimeout: 30 * time.Second})
	t.Cleanup(srv.Close)
	return srv
}

// migrate exports the victim and imports it on target, then deletes the
// source copy the way the proxy's migration does.
func (e *lifecycleEnv) migrate(t *testing.T, target *server.Server, dir string) {
	t.Helper()
	p, err := e.srv.ExportSession(e.id)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, err := target.ImportSession(p); err != nil {
		t.Fatalf("import: %v", err)
	}
	if err := e.srv.DeleteSession(e.id); err != nil {
		t.Fatalf("delete source: %v", err)
	}
	e.srv, e.dir = target, dir
}

// TestLifecycleDifferential is the one-codec oracle: a control session
// and a victim run the same script — batches, a runtime build, a
// runtime excise, a match-budget quarantine — and at disturbAt the
// victim goes through one lifecycle operation. Whatever path rebuilt
// it, the victim must keep the control's rule count, firing trace,
// working memory and time tags for the rest of the script.
func TestLifecycleDifferential(t *testing.T) {
	create := func(cfg server.SessionConfig) func(*testing.T, *server.Server) string {
		return func(t *testing.T, srv *server.Server) string {
			info, err := srv.CreateSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return info.ID
		}
	}
	// fork starts the session from a warm template whose base facts are
	// the reqs that trip the budget in the fork's first cycle.
	fork := func(cfg server.SessionConfig) func(*testing.T, *server.Server) string {
		return func(t *testing.T, srv *server.Server) string {
			tcfg := &server.TemplateConfig{SessionConfig: cfg, Asserts: asserts("req", "n", 101, 102).Asserts}
			tinfo, err := srv.CreateTemplate(tcfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := srv.Fork(tinfo.ID)
			if err != nil {
				t.Fatal(err)
			}
			return f.ID
		}
	}
	ops := []struct {
		name    string
		durable bool // victim starts on a durable server
		start   func(server.SessionConfig) func(*testing.T, *server.Server) string
		early   func(*testing.T, *lifecycleEnv) // before step snapAt
		disturb func(*testing.T, *lifecycleEnv) // before step disturbAt
	}{
		{name: "compact-crash-recover", durable: true, start: create,
			disturb: func(t *testing.T, e *lifecycleEnv) {
				if _, err := e.srv.SnapshotSession(e.id); err != nil {
					t.Fatal(err)
				}
				e.crash(t)
			}},
		{name: "restore", durable: true, start: create,
			early: func(t *testing.T, e *lifecycleEnv) {
				if _, err := e.srv.SnapshotSession(e.id); err != nil {
					t.Fatal(err)
				}
			},
			disturb: func(t *testing.T, e *lifecycleEnv) {
				if _, err := e.srv.RestoreSession(e.id); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "migrate-memory", start: create,
			disturb: func(t *testing.T, e *lifecycleEnv) { e.migrate(t, memServer(t), "") }},
		{name: "migrate-durable-crash", start: create,
			disturb: func(t *testing.T, e *lifecycleEnv) {
				dir := t.TempDir()
				target, _ := newDurServer(t, dir, 0)
				e.migrate(t, target, dir)
				e.crash(t)
			}},
		{name: "fork-crash-recover", durable: true, start: fork,
			disturb: func(t *testing.T, e *lifecycleEnv) { e.crash(t) }},
	}
	steps, snapAt, disturbAt := lifecycleScript()
	for _, backend := range []string{"vs1", "vs2"} {
		for _, op := range ops {
			t.Run(backend+"/"+op.name, func(t *testing.T) {
				cfg := server.SessionConfig{Program: lifecycleSrc, Matcher: backend, MatchBudget: 50}
				ctl := &lifecycleEnv{srv: memServer(t)}
				vic := &lifecycleEnv{}
				if op.durable {
					vic.dir = t.TempDir()
					vic.srv, _ = newDurServer(t, vic.dir, 0)
				} else {
					vic.srv = memServer(t)
				}
				ctl.id = op.start(cfg)(t, ctl.srv)
				vic.id = op.start(cfg)(t, vic.srv)

				for i, st := range steps {
					if i == snapAt && op.early != nil {
						op.early(t, vic)
					}
					if i == disturbAt {
						if got := vic.rules(t); got != 4 {
							t.Fatalf("script did not diverge the victim: %d rules, want 4 (5 +tally -config-note -cross)", got)
						}
						op.disturb(t, vic)
						vic.checkSlots(t, op.name)
						if got, want := vic.rules(t), ctl.rules(t); got != want {
							t.Fatalf("rules after %s = %d, want %d", op.name, got, want)
						}
						if got, want := wmTexts(t, vic.srv, vic.id), wmTexts(t, ctl.srv, ctl.id); !reflect.DeepEqual(got, want) {
							t.Fatalf("WM after %s diverged:\n%v\nwant\n%v", op.name, got, want)
						}
					}
					if got, want := vic.apply(t, st), ctl.apply(t, st); got != want {
						t.Fatalf("step %d diverged:\n%s\nwant\n%s", i, got, want)
					}
					vic.checkSlots(t, fmt.Sprintf("step %d", i))
					ctl.checkSlots(t, fmt.Sprintf("control step %d", i))
				}
				if got, want := vic.rules(t), ctl.rules(t); got != want {
					t.Fatalf("final rules = %d, want %d", got, want)
				}
				if got, want := wmTexts(t, vic.srv, vic.id), wmTexts(t, ctl.srv, ctl.id); !reflect.DeepEqual(got, want) {
					t.Fatalf("final WM diverged:\n%v\nwant\n%v", got, want)
				}
			})
		}
	}
}

// TestRecoverParentDataDir recovers testdata/parent-datadir, a data
// directory written by the build before the single state codec: format-2
// snapshots (no program delta) and meta.json files in the old
// field-by-field layout ("backend" for the matcher, a reorder_joins key
// that no longer exists). One parallel session with every knob of that
// build set and a log tail past its snapshot, one vs1 template, one fork
// of it. Each must come back with the working memory it had and the
// knobs that still exist; the parallel session comes back on vs2.
func TestRecoverParentDataDir(t *testing.T) {
	// Recovery reopens logs for writing: work on a copy.
	const fixture = "testdata/parent-datadir"
	dir := t.TempDir()
	err := filepath.WalkDir(fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, fixture))
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, recovered := newDurServer(t, dir, 0)
	if recovered != 3 {
		t.Fatalf("recovered %d entries, want 3 (template, session, fork)", recovered)
	}

	golden, err := os.ReadFile(filepath.Join(fixture, "wm.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, id := range []string{"s-000001", "s-000002"} {
		got.WriteString(id + "\n")
		for _, l := range wmTexts(t, srv, id) {
			got.WriteString("  " + l + "\n")
		}
	}
	if got.String() != string(golden) {
		t.Fatalf("recovered WM:\n%s\nwant\n%s", got.String(), golden)
	}

	want := map[string]server.SessionConfig{
		"s-000001": {Program: stormSrc, Matcher: "vs2", HashLines: 1024, MatchBudget: 500, Watch: 1},
		"s-000002": {Program: stormSrc, Matcher: "vs1", HashLines: 512},
	}
	for id, cfg := range want {
		p, err := srv.ExportSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Config, cfg) {
			t.Errorf("%s recovered config:\n%+v\nwant\n%+v", id, p.Config, cfg)
		}
	}
	if p, _ := srv.ExportSession("s-000002"); p.Template != "t-000001" {
		t.Errorf("fork's template = %q, want t-000001", p.Template)
	}

	// The recovered session still runs, traced at its persisted watch
	// level, and the recovered template still forks.
	res, err := srv.Batch("s-000001", stormBatches()[1])
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Firings) == 0 || !strings.Contains(res.Output, res.Firings[0].Rule) {
		t.Errorf("batch on recovered session: %d firings, watch-1 output %q", len(res.Firings), res.Output)
	}
	f, err := srv.Fork("t-000001")
	if err != nil {
		t.Fatal(err)
	}
	if f.Backend != "vs1" || f.WMSize != 1 {
		t.Errorf("fork of recovered template: backend %s wm_size %d, want vs1/1", f.Backend, f.WMSize)
	}

	// What recovery left behind is the new layout; it recovers again.
	srv2, recovered := newDurServer(t, dir, 0)
	if recovered != 4 {
		t.Fatalf("second recovery found %d entries, want 4", recovered)
	}
	if p, err := srv2.ExportSession("s-000001"); err != nil || !reflect.DeepEqual(p.Config, want["s-000001"]) {
		t.Errorf("second recovery config %+v (err %v)", p, err)
	}
}

// parentPayload is an export payload as the build before this one wrote
// it: every session-config key, zeros included, and a session that ran
// on the parallel matcher with that build's knobs set.
const parentPayload = `{"id":"s-parent","config":{"program":%q,"matcher":"parallel",
"procs":2,"queues":1,"locks":"mrsw","hash_lines":0,"cs_shards":8,"fire_batch":4,
"match_budget":0,"unlink":false,"watch":0},"snapshot":%q,"wm_size":%d,"halted":false}`

// TestImportParentPayload imports, over HTTP, a payload in the parent
// build's format: the dropped knobs are accepted and ignored, the
// parallel matcher resolves to vs2, and the session carries on exactly
// like one that never moved.
func TestImportParentPayload(t *testing.T) {
	src := memServer(t)
	info, err := src.CreateSession(server.SessionConfig{Program: stormSrc})
	if err != nil {
		t.Fatal(err)
	}
	batches := stormBatches()
	if _, err := src.Batch(info.ID, batches[0]); err != nil {
		t.Fatal(err)
	}
	p, err := src.ExportSession(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(parentPayload, stormSrc, base64.StdEncoding.EncodeToString(p.Snapshot), p.WMSize)

	dst := memServer(t)
	ts := httptest.NewServer(dst.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/sessions/import", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got server.SessionInfo
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("import of a parent payload: status %d, %+v, %v", resp.StatusCode, got, err)
	}
	if got.ID != "s-parent" || got.Backend != "vs2" {
		t.Fatalf("imported session %+v, want s-parent on vs2", got)
	}
	exp, err := dst.ExportSession("s-parent")
	if err != nil {
		t.Fatal(err)
	}
	if want := (server.SessionConfig{Program: stormSrc, Matcher: "vs2"}); !reflect.DeepEqual(exp.Config, want) {
		t.Errorf("imported config %+v, want %+v", exp.Config, want)
	}
	for i, req := range batches[1:] {
		gres, err := dst.Batch("s-parent", req)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := src.Batch(info.ID, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fireTrace(gres), fireTrace(wres)) {
			t.Fatalf("batch %d after import:\n%v\nwant\n%v", i+1, fireTrace(gres), fireTrace(wres))
		}
	}
	if got, want := wmTexts(t, dst, "s-parent"), wmTexts(t, src, info.ID); !reflect.DeepEqual(got, want) {
		t.Fatalf("WM after import diverged:\n%v\nwant\n%v", got, want)
	}
}
