package cluster_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/workload"
)

// pingSrc answers every (req ^n X) with a (resp ^n X); counterSrc keeps
// a running counter modified by each tick, so its WM state is the
// visible history a migration must carry intact.
const pingSrc = `
(literalize req n)
(literalize resp n)
(p answer
  (req ^n <n>)
-->
  (make resp ^n <n>)
  (remove 1))
`

const counterSrc = `
(literalize tick go)
(literalize count value)
(literalize resp n)
(p inc
  (count ^value <v>)
  (tick)
-->
  (remove 2)
  (modify 1 ^value (compute <v> + 1))
  (make resp ^n <v>))
(make count ^value 0)
`

// testCluster is B in-process backends plus a proxy over them. Each
// backend serves through a swapHandler, so a test can replace its
// process behind an unchanged URL.
type testCluster struct {
	backends []*server.Server
	swaps    []*swapHandler
	tss      []*httptest.Server
	proxy    *cluster.Proxy
	pts      *httptest.Server
	client   *http.Client
}

// swapHandler serves through whichever handler was stored last.
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	h.ServeHTTP(w, r)
}

func newTestCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	tc := &testCluster{client: &http.Client{Timeout: 10 * time.Second}}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{DefaultMaxCycles: 1000, DefaultTimeout: 10 * time.Second})
		sw := &swapHandler{h: srv.Handler()}
		ts := httptest.NewServer(sw)
		tc.backends = append(tc.backends, srv)
		tc.swaps = append(tc.swaps, sw)
		tc.tss = append(tc.tss, ts)
		urls = append(urls, ts.URL)
	}
	p, err := cluster.New(cluster.Options{
		Backends:    urls,
		HealthEvery: time.Hour, // probed explicitly in tests
		Client:      tc.client,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.proxy = p
	tc.pts = httptest.NewServer(p.Handler())
	t.Cleanup(func() {
		tc.pts.Close()
		p.Close()
		for i := range tc.tss {
			tc.tss[i].Close()
			tc.backends[i].Close()
		}
	})
	return tc
}

func call(t *testing.T, client *http.Client, method, url string, body, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 0 {
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
			}
		}
	}
	return resp.StatusCode
}

// TestCloseWithoutStart: a proxy whose health loop never started has
// nothing to wait for, so Close returns at once.
func TestCloseWithoutStart(t *testing.T) {
	tc := newTestCluster(t, 1)
	start := time.Now()
	tc.proxy.Close()
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close of a never-started proxy took %v, want < 100ms", d)
	}
}

// TestClusterCreateRouteForward drives the full proxy path: creates
// alternate between the two equally loaded backends, forwards reach the
// holding backend, and deletes clean the route.
func TestClusterCreateRouteForward(t *testing.T) {
	tc := newTestCluster(t, 2)
	base := tc.pts.URL

	ids := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: pingSrc}, &info); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		ids = append(ids, info.ID)
	}
	// All sessions reachable through the proxy.
	for i, id := range ids {
		var res server.BatchResult
		req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"n": i}}}}
		if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/assert", req, &res); code != http.StatusOK {
			t.Fatalf("assert via proxy: status %d", code)
		}
		if len(res.Firings) != 1 {
			t.Fatalf("firings = %d, want 1", len(res.Firings))
		}
	}
	// The merged listing sees them all.
	var lst struct {
		Sessions []server.SessionInfo `json:"sessions"`
	}
	if code := call(t, tc.client, "GET", base+"/sessions", nil, &lst); code != http.StatusOK || len(lst.Sessions) != 8 {
		t.Fatalf("list: status %d, %d sessions (want 8)", code, len(lst.Sessions))
	}
	// Least-loaded placement splits 8 sequential creates exactly 4/4.
	a, b := len(tc.backends[0].Sessions()), len(tc.backends[1].Sessions())
	if a != 4 || b != 4 {
		t.Errorf("session split %d/%d, want 4/4", a, b)
	}
	for _, id := range ids {
		if code := call(t, tc.client, "DELETE", base+"/sessions/"+id, nil, nil); code != http.StatusNoContent {
			t.Fatalf("delete: status %d", code)
		}
	}
	if m := tc.proxy.Metrics(); m.Routes != 0 {
		t.Errorf("routes cached after deletes = %d, want 0", m.Routes)
	}
}

// TestClusterConcurrentCreatesSplit: place counts a session against its
// backend before the create is sent, so creates racing each other still
// split evenly instead of all picking the backend that looked lightest.
// They are also first creates of a program no backend holds: each gets
// a 424 and pushes, and the pushes to one backend share its one
// single-flight compile.
func TestClusterConcurrentCreatesSplit(t *testing.T) {
	tc := newTestCluster(t, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(server.SessionConfig{Program: pingSrc})
			resp, err := tc.client.Post(tc.pts.URL+"/sessions", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				t.Errorf("create: status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	if a, b := len(tc.backends[0].Sessions()), len(tc.backends[1].Sessions()); a != 4 || b != 4 {
		t.Errorf("concurrent session split %d/%d, want 4/4", a, b)
	}
	for i, b := range tc.backends {
		if c := b.Snapshot().Server.ProgramCompiles; c != 1 {
			t.Errorf("backend %d compiled %d times, want 1", i, c)
		}
	}
	if c := tc.proxy.Metrics().Cluster; c.Retries != 0 || c.ProgramPushes < 2 {
		t.Errorf("retries=%d pushes=%d, want 0 and at least one push per backend", c.Retries, c.ProgramPushes)
	}
}

// TestProgramCacheOnePushPerBackend registers one program and creates
// many sessions: each backend must compile at most once, and the proxy
// must count cache hits for every create after a backend's first.
func TestProgramCacheOnePushPerBackend(t *testing.T) {
	tc := newTestCluster(t, 2)
	base := tc.pts.URL

	var reg struct {
		Hash string `json:"hash"`
	}
	if code := call(t, tc.client, "POST", base+"/programs", map[string]string{"program": pingSrc}, &reg); code != http.StatusCreated || reg.Hash == "" {
		t.Fatalf("register: status %d hash %q", code, reg.Hash)
	}
	for i := 0; i < 10; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{ProgramHash: reg.Hash}, &info); code != http.StatusCreated {
			t.Fatalf("create by hash: status %d", code)
		}
	}
	var compiles int64
	for i, b := range tc.backends {
		snap := b.Snapshot()
		if snap.Server.ProgramCompiles > 1 {
			t.Errorf("backend %d compiled %d times, want ≤1", i, snap.Server.ProgramCompiles)
		}
		compiles += snap.Server.ProgramCompiles
	}
	m := tc.proxy.Metrics()
	if m.Cluster.ProgramPushes != compiles {
		t.Errorf("pushes %d != compiles %d", m.Cluster.ProgramPushes, compiles)
	}
	if m.Cluster.ProgramCacheHits+m.Cluster.ProgramPushes < 10 {
		t.Errorf("hits %d + pushes %d < 10 creates", m.Cluster.ProgramCacheHits, m.Cluster.ProgramPushes)
	}
	if m.Cluster.ProgramCacheHits == 0 {
		t.Error("no program cache hits across 10 creates")
	}
}

// TestCreateAfterBackendRestart: a backend restarts behind its URL with
// an empty program cache and no health probe runs before the next
// create. The backend's 424 is the whole signal: the proxy pushes the
// source to it and re-sends the create there, which is no retry and no
// re-route.
func TestCreateAfterBackendRestart(t *testing.T) {
	tc := newTestCluster(t, 2)
	var reg struct {
		Hash string `json:"hash"`
	}
	if code := call(t, tc.client, "POST", tc.pts.URL+"/programs", map[string]string{"program": pingSrc}, &reg); code != http.StatusCreated {
		t.Fatalf("register: status %d", code)
	}
	create := func() {
		t.Helper()
		if code := call(t, tc.client, "POST", tc.pts.URL+"/sessions", server.SessionConfig{ProgramHash: reg.Hash}, nil); code != http.StatusCreated {
			t.Fatalf("create by hash: status %d", code)
		}
	}
	create() // backend 0
	create() // backend 1
	fresh := server.New(server.Options{DefaultMaxCycles: 1000, DefaultTimeout: 10 * time.Second})
	defer fresh.Close()
	tc.swaps[0].set(fresh.Handler())
	create() // backend 0 again: the tie goes to the lowest index

	if n := len(fresh.Sessions()); n != 1 {
		t.Errorf("restarted backend 0 holds %d sessions, want 1", n)
	}
	c := tc.proxy.Metrics().Cluster
	if c.Retries != 0 || c.ReRoutes != 0 {
		t.Errorf("retries=%d reroutes=%d, want 0/0", c.Retries, c.ReRoutes)
	}
	if c.ProgramPushes != 3 || c.ProgramCacheHits != 0 {
		t.Errorf("pushes=%d hits=%d, want 3/0 (one per backend, one more after the restart)", c.ProgramPushes, c.ProgramCacheHits)
	}
}

// TestCreateByUnregisteredHash must fail without touching a backend.
func TestCreateByUnregisteredHash(t *testing.T) {
	tc := newTestCluster(t, 2)
	code := call(t, tc.client, "POST", tc.pts.URL+"/sessions",
		server.SessionConfig{ProgramHash: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("create by unknown hash: status %d, want 400", code)
	}
}

// TestRegisterRejectsUnparsableSource: the proxy refuses to register
// source that does not parse, with the error a backend gives for it, and
// stores nothing. An inline-source create goes through the same check.
func TestRegisterRejectsUnparsableSource(t *testing.T) {
	tc := newTestCluster(t, 2)
	broken := map[string]string{"program": "(p broken"}
	var direct, proxied struct {
		Error string `json:"error"`
	}
	if code := call(t, tc.client, "POST", tc.tss[0].URL+"/programs", broken, &direct); code != http.StatusBadRequest {
		t.Fatalf("backend register: status %d, want 400", code)
	}
	if code := call(t, tc.client, "POST", tc.pts.URL+"/programs", broken, &proxied); code != http.StatusBadRequest {
		t.Fatalf("proxy register: status %d, want 400", code)
	}
	if !strings.HasPrefix(proxied.Error, "parse: ") || proxied.Error != direct.Error {
		t.Errorf("proxy error %q, backend error %q", proxied.Error, direct.Error)
	}
	if code := call(t, tc.client, "POST", tc.pts.URL+"/sessions", server.SessionConfig{Program: "(p broken"}, &proxied); code != http.StatusBadRequest {
		t.Fatalf("inline-source create: status %d, want 400", code)
	}
	if !strings.HasPrefix(proxied.Error, "parse: ") {
		t.Errorf("inline-source create error %q, want a parse error", proxied.Error)
	}

	var list struct {
		Programs []struct{} `json:"programs"`
	}
	if code := call(t, tc.client, "GET", tc.pts.URL+"/programs", nil, &list); code != http.StatusOK || len(list.Programs) != 0 {
		t.Errorf("GET /programs: status %d, %d programs, want 0", code, len(list.Programs))
	}
	if n := tc.proxy.Metrics().Cluster.ProgramsRegistered; n != 0 {
		t.Errorf("programs_registered = %d, want 0", n)
	}
}

// TestBackendLossReroute kills one backend and checks creates keep
// succeeding on the survivor and a session lost with the backend
// reports not-found rather than hanging.
func TestBackendLossReroute(t *testing.T) {
	tc := newTestCluster(t, 2)
	base := tc.pts.URL

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: pingSrc}, &info); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		ids = append(ids, info.ID)
	}
	tc.tss[1].Close() // backend 1 dies with its sessions
	tc.proxy.CheckNow()

	for i := 0; i < 6; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: pingSrc}, &info); code != http.StatusCreated {
			t.Fatalf("create after loss: status %d", code)
		}
	}
	if n := len(tc.backends[0].Sessions()); n != 9 {
		t.Errorf("survivor holds %d sessions, want 9 (3 before the loss + 6 after)", n)
	}
	// Sessions that lived on the dead backend answer 404/502, not 200.
	lost := 0
	for _, id := range ids {
		req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"n": 1}}}}
		if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/assert", req, nil); code != http.StatusOK {
			lost++
		}
	}
	// The pre-loss creates alternated 0,1,0,1,...: backend 1 took 3.
	if lost != 3 {
		t.Errorf("%d of 6 pre-loss sessions lost, want 3", lost)
	}
}

// TestDiscoveryAfterProxyRestart creates sessions through one proxy and
// reaches them through a fresh one over the same backends, whose empty
// route cache must find every session by probing the backends.
func TestDiscoveryAfterProxyRestart(t *testing.T) {
	tc := newTestCluster(t, 2)
	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", tc.pts.URL+"/sessions", server.SessionConfig{Program: pingSrc}, &info); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		ids = append(ids, info.ID)
	}

	urls := make([]string, 0, len(tc.tss))
	for _, ts := range tc.tss {
		urls = append(urls, ts.URL)
	}
	pb, err := cluster.New(cluster.Options{Backends: urls, HealthEvery: time.Hour, Client: tc.client})
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	bts := httptest.NewServer(pb.Handler())
	defer bts.Close()

	for i, id := range ids {
		var res server.BatchResult
		req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"n": i}}}}
		if code := call(t, tc.client, "POST", bts.URL+"/sessions/"+id+"/assert", req, &res); code != http.StatusOK {
			t.Fatalf("assert on %s through the fresh proxy: status %d", id, code)
		}
		if len(res.Firings) != 1 {
			t.Fatalf("assert on %s: %d firings, want 1", id, len(res.Firings))
		}
	}
	if d := pb.Metrics().Cluster.Discoveries; d != 6 {
		t.Errorf("discoveries = %d, want 6", d)
	}
	req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"n": 0}}}}
	if code := call(t, tc.client, "POST", bts.URL+"/sessions/no-such-session/assert", req, nil); code != http.StatusNotFound {
		t.Errorf("assert on an unknown ID: status %d, want 404", code)
	}
}

// runTicks drives n tick batches and returns the concatenated firing
// trace plus the final WM.
func runTicks(t *testing.T, client *http.Client, base, id string, n int) (trace []string, wm []string) {
	t.Helper()
	for i := 0; i < n; i++ {
		req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "tick", Attrs: map[string]any{}}}}
		var res server.BatchResult
		if code := call(t, client, "POST", base+"/sessions/"+id+"/assert", req, &res); code != http.StatusOK {
			t.Fatalf("tick %d on %s: status %d", i, id, code)
		}
		for _, f := range res.Firings {
			trace = append(trace, fmt.Sprintf("%s%v", f.Rule, f.TimeTags))
		}
	}
	var snap struct {
		WMEs []server.WMEOut `json:"wmes"`
	}
	if code := call(t, client, "GET", base+"/sessions/"+id+"/wm", nil, &snap); code != http.StatusOK {
		t.Fatalf("wm of %s: status %d", id, code)
	}
	for _, w := range snap.WMEs {
		wm = append(wm, fmt.Sprintf("%d:%s", w.TimeTag, w.Text))
	}
	return trace, wm
}

// TestMigrateDifferential is the correctness core: a migrated session
// and an unmigrated control receive identical batch sequences; firing
// traces and final WM must match element for element, including the
// pending (accept) queue surviving the move.
func TestMigrateDifferential(t *testing.T) {
	t.Run("vs2", func(t *testing.T) {
		tc := newTestCluster(t, 2)
		base := tc.pts.URL

		mk := func() string {
			var info server.SessionInfo
			cfg := server.SessionConfig{Program: counterSrc}
			if code := call(t, tc.client, "POST", base+"/sessions", cfg, &info); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			return info.ID
		}
		mig, ctl := mk(), mk()

		trace1m, _ := runTicks(t, tc.client, base, mig, 5)
		trace1c, _ := runTicks(t, tc.client, base, ctl, 5)

		var res cluster.MigrateResult
		if code := call(t, tc.client, "POST", base+"/sessions/"+mig+"/migrate", nil, &res); code != http.StatusOK {
			t.Fatalf("migrate: status %d", code)
		}
		if res.From == res.To || res.From == "" {
			t.Fatalf("migrate result %+v", res)
		}

		trace2m, wmM := runTicks(t, tc.client, base, mig, 5)
		trace2c, wmC := runTicks(t, tc.client, base, ctl, 5)

		full := func(a, b []string) string { return fmt.Sprintf("%v vs %v", a, b) }
		if fmt.Sprint(append(trace1m, trace2m...)) != fmt.Sprint(append(trace1c, trace2c...)) {
			t.Fatalf("firing traces diverged after migration: %s", full(trace2m, trace2c))
		}
		if fmt.Sprint(wmM) != fmt.Sprint(wmC) {
			t.Fatalf("final WM diverged: %s", full(wmM, wmC))
		}
		m := tc.proxy.Metrics()
		if m.Cluster.Migrations != 1 || m.MigrationLatency.Count != 1 {
			t.Errorf("migrations=%d latency count=%d, want 1/1", m.Cluster.Migrations, m.MigrationLatency.Count)
		}
	})
}

// TestMigrateUnderLoad migrates while a writer hammers the session:
// every batch must land exactly once (no drops, no duplicates), and
// the final counter value must equal the batch count.
func TestMigrateUnderLoad(t *testing.T) {
	tc := newTestCluster(t, 2)
	base := tc.pts.URL

	var info server.SessionInfo
	if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: counterSrc}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := info.ID

	const ticks = 60
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ticks; i++ {
			req := server.BatchRequest{Asserts: []server.WMEInput{{Class: "tick", Attrs: map[string]any{}}}}
			var res server.BatchResult
			if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/assert", req, &res); code != http.StatusOK {
				select {
				case errs <- fmt.Errorf("tick %d: status %d", i, code):
				default:
				}
				return
			}
		}
	}()
	migrated := 0
	for i := 0; i < 3; i++ {
		time.Sleep(10 * time.Millisecond)
		if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/migrate", nil, nil); code == http.StatusOK {
			migrated++
		}
	}
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if migrated == 0 {
		t.Fatal("no migration succeeded under load")
	}
	var snap struct {
		WMEs []server.WMEOut `json:"wmes"`
	}
	if code := call(t, tc.client, "GET", base+"/sessions/"+id+"/wm", nil, &snap); code != http.StatusOK {
		t.Fatalf("wm: status %d", code)
	}
	want := fmt.Sprintf("(count ^value %d)", ticks)
	found := false
	for _, w := range snap.WMEs {
		if w.Text == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("counter lost ticks across %d migrations: want %q in %v", migrated, want, snap.WMEs)
	}
}

// TestMigrateAutoTargetLeastLoaded: a migrate with no target, over three
// backends, lands on the lighter of the two that do not hold the session.
func TestMigrateAutoTargetLeastLoaded(t *testing.T) {
	tc := newTestCluster(t, 3)
	base := tc.pts.URL
	// Five creates fill backends 0,1,2,0,1: loads 2/2/1.
	ids := make([]string, 0, 5)
	for i := 0; i < 5; i++ {
		var info server.SessionInfo
		if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: counterSrc}, &info); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		ids = append(ids, info.ID)
	}
	var res cluster.MigrateResult
	if code := call(t, tc.client, "POST", base+"/sessions/"+ids[0]+"/migrate", nil, &res); code != http.StatusOK {
		t.Fatalf("migrate: status %d", code)
	}
	if res.From != tc.tss[0].URL || res.To != tc.tss[2].URL {
		t.Fatalf("migrated %s -> %s, want %s -> %s (the lighter non-source backend)", res.From, res.To, tc.tss[0].URL, tc.tss[2].URL)
	}
	for i, want := range []int{1, 2, 2} {
		if n := len(tc.backends[i].Sessions()); n != want {
			t.Errorf("backend %d holds %d sessions after the migrate, want %d", i, n, want)
		}
	}
}

// TestMigrateCarriesPendingAccepts suspends a session awaiting input,
// migrates it, and resumes on the target: buffered values must survive.
func TestMigrateCarriesPendingAccepts(t *testing.T) {
	const acceptSrc = `
(literalize go)
(literalize got v)
(p read
  (go)
-->
  (remove 1)
  (make got ^v (accept)))
`
	tc := newTestCluster(t, 2)
	base := tc.pts.URL
	var info server.SessionInfo
	if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{Program: acceptSrc}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	id := info.ID

	// Queue two values but only one consumer: one stays pending.
	req := server.BatchRequest{
		Accepts: []any{"alpha", "beta"},
		Asserts: []server.WMEInput{{Class: "go", Attrs: map[string]any{}}},
	}
	var res server.BatchResult
	if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/assert", &req, &res); code != http.StatusOK {
		t.Fatalf("first batch: status %d", code)
	}
	if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/migrate", nil, nil); code != http.StatusOK {
		t.Fatalf("migrate: status %d", code)
	}
	// Second consumer on the target must read "beta" from the carried queue.
	req2 := server.BatchRequest{Asserts: []server.WMEInput{{Class: "go", Attrs: map[string]any{}}}}
	var res2 server.BatchResult
	if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/assert", &req2, &res2); code != http.StatusOK {
		t.Fatalf("post-migrate batch: status %d", code)
	}
	var snap struct {
		WMEs []server.WMEOut `json:"wmes"`
	}
	call(t, tc.client, "GET", base+"/sessions/"+id+"/wm", nil, &snap)
	got := map[string]bool{}
	for _, w := range snap.WMEs {
		got[w.Text] = true
	}
	if !got["(got ^v alpha)"] || !got["(got ^v beta)"] {
		t.Fatalf("pending accept lost in migration: wm = %v", snap.WMEs)
	}
}

// TestMigrateDivergedEpoch migrates a session whose network diverged
// from its compiled program at runtime — one rule hot-built, one
// excised. The snapshot carries the program delta, so the migrated
// session must keep matching an unmigrated control: same rules, same
// firing trace, same WM (the TestMigrateDifferential oracle).
func TestMigrateDivergedEpoch(t *testing.T) {
	// log fires on every new count element until it is excised; echo-resp
	// is hot-built over resp elements that already exist.
	const src = `
(literalize tick go)
(literalize count value)
(literalize resp n)
(literalize seen v)
(literalize echo n)
(p inc
  (count ^value <v>)
  (tick)
-->
  (remove 2)
  (modify 1 ^value (compute <v> + 1))
  (make resp ^n <v>))
(p log
  (count ^value <v>)
-->
  (make seen ^v <v>))
(make count ^value 0)
`
	const buildSrc = `(p echo-resp (resp ^n <n>) - (echo ^n <n>) --> (make echo ^n <n>))`
	t.Run("vs2", func(t *testing.T) {
		tc := newTestCluster(t, 2)
		base := tc.pts.URL

		mk := func() string {
			var info server.SessionInfo
			cfg := server.SessionConfig{Program: src}
			if code := call(t, tc.client, "POST", base+"/sessions", cfg, &info); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			return info.ID
		}
		mig, ctl := mk(), mk()
		diverge := func(id string) {
			prog := server.ProgramRequest{Source: buildSrc, Excise: []string{"log"}}
			if code := call(t, tc.client, "POST", base+"/sessions/"+id+"/program", prog, nil); code != http.StatusOK {
				t.Fatalf("program change on %s: status %d", id, code)
			}
		}

		trace1m, _ := runTicks(t, tc.client, base, mig, 3)
		trace1c, _ := runTicks(t, tc.client, base, ctl, 3)
		diverge(mig)
		diverge(ctl)
		trace2m, _ := runTicks(t, tc.client, base, mig, 3)
		trace2c, _ := runTicks(t, tc.client, base, ctl, 3)

		if code := call(t, tc.client, "POST", base+"/sessions/"+mig+"/migrate", nil, nil); code != http.StatusOK {
			t.Fatalf("migrate of epoch-diverged session: status %d", code)
		}

		trace3m, wmM := runTicks(t, tc.client, base, mig, 4)
		trace3c, wmC := runTicks(t, tc.client, base, ctl, 4)
		got := fmt.Sprint(trace1m, trace2m, trace3m)
		if want := fmt.Sprint(trace1c, trace2c, trace3c); got != want {
			t.Fatalf("firing traces diverged after migration:\n%s\nwant\n%s", got, want)
		}
		if fmt.Sprint(wmM) != fmt.Sprint(wmC) {
			t.Fatalf("final WM diverged: %v vs %v", wmM, wmC)
		}
		if post := fmt.Sprint(trace3m); !strings.Contains(post, "echo-resp[") || strings.Contains(post, "log[") {
			t.Fatalf("post-migration trace does not show the diverged network: %s", post)
		}
		var list struct {
			Sessions []server.SessionInfo `json:"sessions"`
		}
		if code := call(t, tc.client, "GET", base+"/sessions", nil, &list); code != http.StatusOK {
			t.Fatalf("list: status %d", code)
		}
		for _, info := range list.Sessions {
			if info.Rules != 2 || info.Epoch != 2 {
				t.Errorf("session %s: rules=%d epoch=%d, want 2/2 (inc + echo-resp, log excised)", info.ID, info.Rules, info.Epoch)
			}
		}
	})
}

// TestProxyMetricsShape sanity-checks the snapshot wiring.
func TestProxyMetricsShape(t *testing.T) {
	tc := newTestCluster(t, 3)
	m := tc.proxy.Metrics()
	if m.Cluster.BackendsLive != 3 || len(m.Backends) != 3 {
		t.Fatalf("live=%d backends=%d, want 3/3", m.Cluster.BackendsLive, len(m.Backends))
	}
	for i, b := range m.Backends {
		if !b.Up || b.URL != tc.tss[i].URL {
			t.Fatalf("backend row %d = %+v, want up at %s", i, b, tc.tss[i].URL)
		}
	}
}

// TestTwoBackendsScale is the fabric's throughput gate, run by make
// bench-smoke (BENCH_SMOKE=1): Tourney and Weaver sessions, created by
// program hash and driven through the proxy in 25-cycle batches by four
// clients, must reach at least 1.2x the aggregate batches/s on two
// backends that they reach on one, on the better of the two workloads.
// Two backends need two CPUs each — one for the backend's engine, one
// for its share of the in-process proxy and clients — so the gate skips
// on smaller hosts, where the ratio measures timesharing (0.64-1.07x,
// median 0.79x, on 2 CPUs).
func TestTwoBackendsScale(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	if n := runtime.NumCPU(); n < 2*2 {
		t.Skipf("%d CPUs: a 2-backend fleet needs 4 to measure the fabric", n)
	}
	const clients, batches, maxCycles, minScaling = 4, 10, 25, 1.2
	rate := func(backends int, src string) float64 {
		tc := newTestCluster(t, backends)
		base := tc.pts.URL
		var reg struct {
			Hash string `json:"hash"`
		}
		if code := call(t, tc.client, "POST", base+"/programs", map[string]string{"program": src}, &reg); code != http.StatusCreated {
			t.Fatalf("register: status %d", code)
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < batches; {
					var info server.SessionInfo
					if code := call(t, tc.client, "POST", base+"/sessions", server.SessionConfig{ProgramHash: reg.Hash}, &info); code != http.StatusCreated {
						t.Errorf("create: status %d", code)
						return
					}
					for halted := false; !halted && n < batches; n++ {
						var res server.BatchResult
						req := server.BatchRequest{MaxCycles: maxCycles, NoFirings: true}
						if code := call(t, tc.client, "POST", base+"/sessions/"+info.ID+"/assert", req, &res); code != http.StatusOK {
							t.Errorf("batch: status %d", code)
							return
						}
						halted = res.Halted
					}
					call(t, tc.client, "DELETE", base+"/sessions/"+info.ID, nil, nil)
				}
			}()
		}
		wg.Wait()
		return float64(clients*batches) / time.Since(start).Seconds()
	}
	best := 0.0
	for _, wl := range []struct{ name, src string }{
		{"Tourney", workload.Tourney(10)},
		{"Weaver", workload.Weaver(8, 8)},
	} {
		one, two := rate(1, wl.src), rate(2, wl.src)
		t.Logf("%s: %.1f batches/s on 1 backend, %.1f on 2 (%.2fx)", wl.name, one, two, two/one)
		best = max(best, two/one)
	}
	if best < minScaling {
		t.Errorf("best 2-backend scaling %.2fx < %.1fx — the fabric is not spreading load", best, minScaling)
	}
}
