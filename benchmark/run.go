package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"syscall"
	"time"

	psme "repro"
	"repro/internal/server"
)

// config is one run: one workload, one seed, one pass.
type config struct {
	wl      *workloadDef
	seed    int64
	seconds float64 // length of the timed window(s)
	// sessions > 0 makes the work fixed: each window runs that many
	// sessions however long they take, so every count repeats exactly.
	sessions int
	trace    bool
	dataDir  string // the durable workload's data dir; removed afterwards
	// setups is how many times set-up runs; setup_s is their median and
	// the last one's fleet serves the timed window.
	setups int
	// corruptRef flips a bit of every reference digest, so the smoke test
	// can see a wrong output surface as failed ops.
	corruptRef bool
}

// env is a workload set up and ready for its first timed op.
type env struct {
	cfg     *config
	src     string
	sc      script
	base    []fact    // the ledger template's facts
	refs    []outcome // reference by session ordinal mod len(refs)
	opLimit int       // paper programs: twice the reference's ops
	prog    *compiled // lib only (the traced pass compiles its own twin)
	dataDir string    // this set-up's own data dir under cfg.dataDir
	fleet   *fleet
	tr      *tracer
	httpc   *http.Client
	apis    [numClients]*httpAPI
	errs    errLog
}

// errLog keeps the first few session failures for the report.
type errLog struct {
	mu   sync.Mutex
	msgs []string
}

func (l *errLog) add(err error) {
	l.mu.Lock()
	if len(l.msgs) < 5 {
		l.msgs = append(l.msgs, err.Error())
	}
	l.mu.Unlock()
	fmt.Fprintf(logw, "benchmark: FAILED: %v\n", err)
}

// paperReference runs a paper program once to halt, uninterrupted, on
// vs2 through the public psme API: a path that shares neither the
// slicing nor the serving code with the sessions it judges.
func paperReference(src string) (outcome, error) {
	prog, err := psme.Parse(src)
	if err != nil {
		return outcome{}, err
	}
	eng, err := psme.New(prog, psme.Config{Matcher: psme.MatcherVS2})
	if err != nil {
		return outcome{}, err
	}
	defer eng.Close()
	res, err := eng.Run(psme.RunOptions{RecordFiring: true})
	if err != nil {
		return outcome{}, err
	}
	d := newFiringDigest()
	for _, f := range res.Firings {
		d.add(f.Rule, f.TimeTags)
	}
	return outcome{cycles: res.Cycles, wmSize: res.WMSize, digest: d.sum()}, nil
}

func templateConfig(src string, base []fact) *server.TemplateConfig {
	cfg := &server.TemplateConfig{SessionConfig: server.SessionConfig{Program: src, Matcher: "vs2"}}
	for _, f := range base {
		cfg.Asserts = append(cfg.Asserts, f.input())
	}
	return cfg
}

// ledgerReferences plays each of the seed's streams once by direct
// server.Batch calls on a memory-only server.
func ledgerReferences(src string, base []fact, sc *script) ([]outcome, error) {
	srv := server.New(server.Options{})
	defer srv.Close()
	tpl, err := srv.CreateTemplate(templateConfig(src, base))
	if err != nil {
		return nil, err
	}
	api := &directAPI{srv: srv, template: tpl.ID}
	refs := make([]outcome, len(sc.streams))
	for k := range refs {
		if refs[k], _, err = runSession(api, sc, k, 0, &recorder{}, false); err != nil {
			return nil, fmt.Errorf("stream %d: %w", k, err)
		}
	}
	return refs, nil
}

// setup does everything before the first timed op: program generation,
// parse + compile, the reference run, fleet start, program registration
// or template build, and the warm-up sessions.
func setup(cfg *config, nth int, tr *tracer) (*env, error) {
	wl := cfg.wl
	e := &env{cfg: cfg, src: wl.source(), sc: script{maxCycles: wl.maxCycles}, tr: tr,
		// A data dir of its own: a server started over an earlier set-up's
		// would recover that set-up's template and sessions.
		dataDir: filepath.Join(cfg.dataDir, fmt.Sprintf("fleet-%d", nth))}
	var err error
	if wl.path == pathDurable {
		e.base = ledgerBase()
		for k := 0; k < ledgerStreams; k++ {
			e.sc.streams = append(e.sc.streams, ledgerStream(cfg.seed, k))
		}
		if e.refs, err = ledgerReferences(e.src, e.base, &e.sc); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	} else {
		ref, err := paperReference(e.src)
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		e.refs = []outcome{ref}
		e.opLimit = 2 * (ref.cycles/wl.maxCycles + 1)
	}
	if cfg.corruptRef {
		for i := range e.refs {
			e.refs[i].digest[0] ^= 1
		}
	}

	if wl.path == pathLib {
		if e.prog, err = compile(e.src); err != nil {
			return nil, err
		}
	} else if err := e.startServing(); err != nil {
		e.close()
		return nil, err
	}

	warm := e.window(0, numClients*warmupSessions, false)
	if !cfg.corruptRef && warm.rec.failedOps > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.rec.failedOps, warm.rec.ops, e.errs.msgs)
	}
	return e, nil
}

// startServing brings the fleet up and makes the program resident:
// registered by hash (the create then ships ~64 bytes), or built into a
// warm template the ledger sessions fork from.
func (e *env) startServing() error {
	var err error
	if e.fleet, err = startFleet(e.cfg.wl.path, e.dataDir, e.tr); err != nil {
		return err
	}
	// One connection per closed-loop client.
	e.httpc = &http.Client{Timeout: time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: numClients, MaxConnsPerHost: numClients}}
	api := httpAPI{c: e.httpc, base: e.fleet.url()}
	if e.cfg.wl.path == pathDurable {
		body, err := json.Marshal(templateConfig(e.src, e.base))
		if err != nil {
			return err
		}
		var tpl server.TemplateInfo
		if _, err := api.do(http.MethodPost, "/templates", body, &tpl); err != nil {
			return err
		}
		api.startPath = "/templates/" + tpl.ID + "/fork"
	} else {
		body, err := json.Marshal(map[string]string{"program": e.src})
		if err != nil {
			return err
		}
		var reg struct {
			Hash string `json:"hash"`
		}
		if _, err := api.do(http.MethodPost, "/programs", body, &reg); err != nil {
			return err
		}
		api.startPath = "/sessions"
		if api.startBody, err = json.Marshal(&server.SessionConfig{ProgramHash: reg.Hash, Matcher: e.cfg.wl.matcher}); err != nil {
			return err
		}
	}
	for c := range e.apis {
		a := api
		e.apis[c] = &a
	}
	return nil
}

func (e *env) close() {
	if e.fleet != nil {
		e.httpc.CloseIdleConnections()
		e.fleet.close()
		e.fleet = nil
	}
}

// oneSession plays and judges one session on behalf of a client. A
// session that errors or misses its reference fails every op it issued.
func (e *env) oneSession(client, ordinal int, rec *recorder, keep bool) (id string) {
	before := rec.ops
	var got outcome
	var err error
	if e.cfg.wl.path == pathLib {
		var run *engineRun
		if run, err = runEngineSession(e.prog, e.cfg.wl.matcher, &e.sc, nil, ordinal, e.opLimit, rec); err == nil {
			got = run.outcome
		}
	} else {
		got, id, err = runSession(e.apis[client], &e.sc, ordinal, e.opLimit, rec, keep)
	}
	if want := e.refs[ordinal%len(e.refs)]; err == nil && got != want {
		err = fmt.Errorf("oracle: cycles %d wm %d digest %x, want cycles %d wm %d digest %x",
			got.cycles, got.wmSize, got.digest[:4], want.cycles, want.wmSize, want.digest[:4])
	}
	if err != nil {
		if rec.ops == before {
			rec.ops++ // a session that never got to its first op still failed one
		}
		rec.failedOps += rec.ops - before
		e.errs.add(fmt.Errorf("%s client %d session %d: %w", e.cfg.wl.name, client, ordinal, err))
	}
	return id
}

// window is one timed stretch of closed-loop load.
type window struct {
	rec  recorder
	wall time.Duration
	cpu  time.Duration // process user+sys over the window
}

func (w *window) add(o *window) {
	w.rec.merge(&o.rec)
	w.wall += o.wall
	w.cpu += o.cpu
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window runs the clients until limit has passed — a client starts no
// session after it, and finishes the one it is in — or, with sessions >
// 0, until that many sessions have run.
func (e *env) window(limit time.Duration, sessions int, traced bool) *window {
	if e.tr != nil {
		e.tr.on.Store(traced)
		defer e.tr.on.Store(false)
	}
	recs := make([]recorder, numClients)
	var wg sync.WaitGroup
	cpu0, t0 := cpuTime(), time.Now()
	for c := range recs {
		if traced {
			recs[c].tr = e.tr
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ord := c; ; ord += numClients {
				if sessions > 0 && ord >= sessions || sessions == 0 && time.Since(t0) >= limit {
					return
				}
				e.oneSession(c, ord, &recs[c], false)
			}
		}(c)
	}
	wg.Wait()
	w := &window{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	for c := range recs {
		w.rec.merge(&recs[c])
	}
	return w
}

// timed is window with the run's own limits.
func (e *env) timed(share float64, traced bool) *window {
	return e.window(time.Duration(share*e.cfg.seconds*float64(time.Second)), e.cfg.sessions, traced)
}

// recoveryCheck is the durable workload's last word: each client plays
// one more session and leaves it alive, the server is closed, a fresh
// one recovers the data dir, and every kept session must come back with
// identical working memory and time tags. A mismatch fails that
// session's ops. It closes the fleet; recoverNs is the fresh server's
// EnableDurability time.
func (e *env) recoveryCheck(rec *recorder) (recoverNs int64) {
	type kept struct {
		id  string
		ops int
		wm  []server.WMEOut
	}
	var live []kept
	for c := 0; c < numClients; c++ {
		before, failed := rec.ops, rec.failedOps
		id := e.oneSession(c, c, rec, true)
		if rec.failedOps > failed || id == "" {
			continue
		}
		wm, err := e.fleet.servers[0].WMSnapshot(id)
		if err != nil {
			rec.failedOps += rec.ops - before
			e.errs.add(fmt.Errorf("kept session %s: %w", id, err))
			continue
		}
		live = append(live, kept{id, rec.ops - before, wm})
	}
	e.close()

	srv := server.New(server.Options{DataDir: e.dataDir, Durability: "commit", SnapshotEvery: 50})
	defer srv.Close()
	t0 := time.Now()
	_, err := srv.EnableDurability()
	recoverNs = int64(time.Since(t0))
	byTag := func(w []server.WMEOut) {
		sort.Slice(w, func(i, j int) bool { return w[i].TimeTag < w[j].TimeTag })
	}
	for _, k := range live {
		var got []server.WMEOut
		if err == nil {
			got, err = srv.WMSnapshot(k.id)
		}
		byTag(got)
		byTag(k.wm)
		if err == nil && !reflect.DeepEqual(got, k.wm) {
			err = fmt.Errorf("recovered WM differs (%d elements, want %d)", len(got), len(k.wm))
		}
		if err != nil {
			rec.failedOps += k.ops
			e.errs.add(fmt.Errorf("recover session %s: %w", k.id, err))
		}
	}
	return recoverNs
}
