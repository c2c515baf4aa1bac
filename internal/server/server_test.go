package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// pingSrc answers every (req ^n X) with a (resp ^n X): one firing per
// asserted element, so firing counts are exact.
const pingSrc = `
(literalize req n)
(literalize resp n)
(p answer
  (req ^n <n>)
-->
  (make resp ^n <n>)
  (remove 1))
`

// spinSrc counts up forever — only a cycle/time budget stops it.
const spinSrc = `
(literalize count value)
(p inc
  (count ^value <v>)
-->
  (modify 1 ^value (compute <v> + 1)))
(make count ^value 0)
`

func newTestServer(t *testing.T) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Options{DefaultMaxCycles: 1000, DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// call issues one JSON request and decodes the response into out.
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

// assertN posts a batch of n (req ^n i) elements and returns the result.
func assertN(t *testing.T, client *http.Client, base, id string, lo, n int) *server.BatchResult {
	t.Helper()
	req := &server.BatchRequest{}
	for i := lo; i < lo+n; i++ {
		req.Asserts = append(req.Asserts, server.WMEInput{
			Class: "req", Attrs: map[string]any{"n": i},
		})
	}
	var res server.BatchResult
	if code := call(t, client, "POST", base+"/sessions/"+id+"/assert", req, &res); code != http.StatusOK {
		t.Fatalf("assert batch: status %d", code)
	}
	return &res
}

// TestSessionLifecycle walks one session end to end over HTTP: create,
// batched asserts with firings and WM deltas, wm snapshot, retract,
// delete.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	var info server.SessionInfo
	code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: pingSrc}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.ID == "" || info.Backend != "vs2" || info.Rules != 1 {
		t.Fatalf("create info = %+v", info)
	}

	res := assertN(t, c, ts.URL, info.ID, 0, 5)
	if len(res.Firings) != 5 || res.Cycles != 5 {
		t.Fatalf("firings=%d cycles=%d, want 5/5", len(res.Firings), res.Cycles)
	}
	for _, f := range res.Firings {
		if f.Rule != "answer" {
			t.Fatalf("fired %q, want answer", f.Rule)
		}
	}
	// Each req is asserted then removed; each resp stays: 5 adds from
	// the batch + 5 rule-made resps, 5 removes.
	if len(res.WMAdded) != 10 || len(res.WMRemoved) != 5 {
		t.Fatalf("wm_added=%d wm_removed=%d, want 10/5", len(res.WMAdded), len(res.WMRemoved))
	}
	if res.WMSize != 5 {
		t.Fatalf("wm_size = %d, want 5 resps", res.WMSize)
	}

	var wmResp struct {
		Wmes []server.WMEOut `json:"wmes"`
		Size int             `json:"size"`
	}
	if code := call(t, c, "GET", ts.URL+"/sessions/"+info.ID+"/wm", nil, &wmResp); code != http.StatusOK {
		t.Fatalf("wm: status %d", code)
	}
	if wmResp.Size != 5 || len(wmResp.Wmes) != 5 {
		t.Fatalf("wm snapshot size = %d/%d", wmResp.Size, len(wmResp.Wmes))
	}

	// The listing reports live state, not the zero value (it once did).
	var list struct {
		Sessions []server.SessionInfo `json:"sessions"`
	}
	if code := call(t, c, "GET", ts.URL+"/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("sessions: status %d", code)
	}
	if len(list.Sessions) != 1 || list.Sessions[0].WMSize != 5 || list.Sessions[0].SharedNet {
		t.Fatalf("sessions listing = %+v, want one unshared session with wm_size 5", list.Sessions)
	}

	// Retract two of the resps by their time tags.
	var ret server.BatchResult
	body := &server.BatchRequest{Retracts: []int{wmResp.Wmes[0].TimeTag, wmResp.Wmes[1].TimeTag}}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/retract", body, &ret); code != http.StatusOK {
		t.Fatalf("retract: status %d", code)
	}
	if len(ret.WMRemoved) != 2 || ret.WMSize != 3 {
		t.Fatalf("retract removed=%d size=%d, want 2/3", len(ret.WMRemoved), ret.WMSize)
	}

	if code := call(t, c, "DELETE", ts.URL+"/sessions/"+info.ID, nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := call(t, c, "GET", ts.URL+"/sessions/"+info.ID+"/wm", nil, nil); code != http.StatusNotFound {
		t.Fatalf("wm after delete: status %d, want 404", code)
	}
}

// TestConcurrentSessionsBothBackends is the acceptance scenario: >= 8
// sessions over both matchers running batched asserts concurrently,
// every firing accounted for, and a clean drain at the end. go test
// -race covers the locking.
func TestConcurrentSessionsBothBackends(t *testing.T) {
	srv, ts := newTestServer(t)
	c := ts.Client()

	const sessions = 12
	const batches = 5
	const perBatch = 8
	backends := []string{"vs2", "vs1"}

	ids := make([]string, sessions)
	for i := range ids {
		cfg := server.SessionConfig{
			Program: pingSrc,
			Matcher: backends[i%len(backends)],
		}
		var info server.SessionInfo
		if code := call(t, c, "POST", ts.URL+"/sessions", cfg, &info); code != http.StatusCreated {
			t.Fatalf("create %d: status %d", i, code)
		}
		if i > 0 && !info.SharedNet {
			t.Errorf("session %d did not share the compiled network", i)
		}
		ids[i] = info.ID
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				res := assertN(t, c, ts.URL, id, b*perBatch, perBatch)
				if len(res.Firings) != perBatch {
					errs <- fmt.Errorf("session %s batch %d: %d firings, want %d", id, b, len(res.Firings), perBatch)
					return
				}
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	var snap stats.Snapshot
	if code := call(t, c, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Server.SessionsLive != sessions {
		t.Errorf("sessions_live = %d, want %d", snap.Server.SessionsLive, sessions)
	}
	if want := int64(sessions * batches * perBatch); snap.Server.Firings != want {
		t.Errorf("firings = %d, want %d", snap.Server.Firings, want)
	}
	if snap.Match.WMChanges == 0 || snap.Match.Activations == 0 {
		t.Errorf("match counters empty: %+v", snap.Match)
	}
	if snap.Latency["request"].Count == 0 {
		t.Errorf("request latency histogram empty")
	}

	// Drain: Close tears down every session and drains the pool;
	// afterwards the API refuses new work.
	ts.Close()
	srv.Close()
	if _, err := srv.CreateSession(server.SessionConfig{Program: pingSrc}); err == nil {
		t.Error("CreateSession after Close succeeded")
	}
}

// TestRunLimits checks the per-request cycle budget surfaces as
// limit_hit and the session stays usable afterwards.
func TestRunLimits(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	var info server.SessionInfo
	cfg := server.SessionConfig{Program: spinSrc}
	if code := call(t, c, "POST", ts.URL+"/sessions", cfg, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var res server.BatchResult
	body := &server.BatchRequest{MaxCycles: 50}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", body, &res); code != http.StatusOK {
		t.Fatalf("assert: status %d", code)
	}
	if !res.LimitHit || res.Cycles != 50 || res.Halted {
		t.Fatalf("limit run: %+v, want limit_hit at 50 cycles", res)
	}
	// Next request keeps counting from where the budget stopped it.
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", body, &res); code != http.StatusOK {
		t.Fatalf("assert 2: status %d", code)
	}
	if !res.LimitHit || res.Cycles != 50 {
		t.Fatalf("second limit run: %+v", res)
	}

	var snap stats.Snapshot
	call(t, c, "GET", ts.URL+"/metrics", nil, &snap)
	if snap.Server.LimitStops != 2 {
		t.Errorf("limit_stops = %d, want 2", snap.Server.LimitStops)
	}
}

// TestBadInputs checks the error statuses: bad program, unknown
// session, unknown class/attr, oversized batch, session cap.
func TestBadInputs(t *testing.T) {
	srv := server.New(server.Options{MaxSessions: 2, MaxBatch: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	c := ts.Client()

	var apiErr struct {
		Error string `json:"error"`
	}
	if code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: "(p broken"}, &apiErr); code != http.StatusBadRequest {
		t.Errorf("bad program: status %d", code)
	}
	if apiErr.Error == "" {
		t.Errorf("bad program: empty error body")
	}
	if code := call(t, c, "POST", ts.URL+"/sessions/nope/assert", &server.BatchRequest{}, nil); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}

	var info server.SessionInfo
	if code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: pingSrc}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	bad := &server.BatchRequest{Asserts: []server.WMEInput{{Class: "nosuch", Attrs: nil}}}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", bad, &apiErr); code != http.StatusBadRequest {
		t.Errorf("unknown class: status %d", code)
	}
	bad = &server.BatchRequest{Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"zzz": 1}}}}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", bad, &apiErr); code != http.StatusBadRequest {
		t.Errorf("unknown attr: status %d", code)
	}
	big := &server.BatchRequest{}
	for i := 0; i < 5; i++ {
		big.Asserts = append(big.Asserts, server.WMEInput{Class: "req", Attrs: map[string]any{"n": i}})
	}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", big, &apiErr); code != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d", code)
	}

	// Session cap: one more fits, the next is refused.
	if code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: pingSrc}, nil); code != http.StatusCreated {
		t.Fatalf("second create: status %d", code)
	}
	if code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: pingSrc}, &apiErr); code != http.StatusTooManyRequests {
		t.Errorf("session cap: status %d", code)
	}
}

// TestRemovedKnobsRejected: the parallel matcher, its knobs and the
// multi-fire act phase are gone from the session API. A create, template
// or program-registration body that names one is a 400 whose error
// names it; only stored entries and export payloads of earlier builds
// are read past them.
func TestRemovedKnobsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()
	type rejected struct {
		path string
		body map[string]any
		want string
	}
	cases := []rejected{
		{"/sessions", map[string]any{"program": pingSrc, "matcher": "parallel"}, `"parallel"`},
		{"/templates", map[string]any{"program": pingSrc, "matcher": "parallel"}, `"parallel"`},
		{"/programs", map[string]any{"program": pingSrc, "procs": 2}, `"procs"`},
	}
	for _, key := range []string{"procs", "queues", "locks", "cs_shards", "fire_batch", "unlink"} {
		cases = append(cases,
			rejected{"/sessions", map[string]any{"program": pingSrc, key: 1}, `"` + key + `"`},
			rejected{"/templates", map[string]any{"program": pingSrc, key: 1}, `"` + key + `"`})
	}
	for _, tc := range cases {
		var apiErr struct {
			Error string `json:"error"`
		}
		if code := call(t, c, "POST", ts.URL+tc.path, tc.body, &apiErr); code != http.StatusBadRequest {
			t.Errorf("POST %s %v: status %d, want 400", tc.path, tc.body, code)
		} else if !strings.Contains(apiErr.Error, tc.want) {
			t.Errorf("POST %s %v: error %q does not name %s", tc.path, tc.body, apiErr.Error, tc.want)
		}
	}
}

// TestHealthz checks liveness before and after Close.
func TestHealthz(t *testing.T) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := ts.Client()

	var h struct {
		OK       bool `json:"ok"`
		Sessions int  `json:"sessions"`
	}
	if code := call(t, c, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || !h.OK {
		t.Fatalf("healthz: %d %+v", code, h)
	}
	srv.Close()
	if code := call(t, c, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close: %d", code)
	}
}

// TestDeadlineBudget checks the wall-clock limit stops a spinning
// session well before the test would time out.
func TestDeadlineBudget(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()
	var info server.SessionInfo
	if code := call(t, c, "POST", ts.URL+"/sessions", server.SessionConfig{Program: spinSrc}, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	var res server.BatchResult
	body := &server.BatchRequest{MaxCycles: -1, TimeoutMs: 50}
	start := time.Now()
	if code := call(t, c, "POST", ts.URL+"/sessions/"+info.ID+"/assert", body, &res); code != http.StatusOK {
		t.Fatalf("assert: status %d", code)
	}
	if !res.LimitHit {
		t.Fatalf("deadline run did not report limit_hit: %+v", res)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("deadline run took %v", el)
	}
}

// echoSrc writes one line per request and consumes it.
const echoSrc = `
(literalize req n)
(p echo
  (req ^n <n>)
-->
  (write got <n> (crlf))
  (remove 1))
`

// TestOutputLandsInItsOwnBatch: the engine builds its RHS environment
// once and the server swaps the output writer per batch, so every batch
// must get exactly the text its own firings wrote — none of an earlier
// batch's, none lost to an earlier batch's buffer — on a session and on
// a fork of it (whose environment is its own).
func TestOutputLandsInItsOwnBatch(t *testing.T) {
	srv := server.New(server.Options{})
	defer srv.Close()
	info, err := srv.CreateSession(server.SessionConfig{Program: echoSrc, Matcher: "vs2"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	batch := func(id string, n int) string {
		t.Helper()
		res, err := srv.Batch(id, &server.BatchRequest{
			Asserts: []server.WMEInput{{Class: "req", Attrs: map[string]any{"n": n}}},
		})
		if err != nil {
			t.Fatalf("batch %d: %v", n, err)
		}
		return res.Output
	}
	for n := 1; n <= 3; n++ {
		if got, want := batch(info.ID, n), fmt.Sprintf("got %d\n", n); got != want {
			t.Fatalf("batch %d output %q, want %q", n, got, want)
		}
	}
	tpl, err := srv.CreateTemplate(&server.TemplateConfig{SessionConfig: server.SessionConfig{Program: echoSrc, Matcher: "vs2"}})
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	fork, err := srv.Fork(tpl.ID)
	if err != nil {
		t.Fatalf("fork: %v", err)
	}
	for n := 7; n <= 8; n++ {
		if got, want := batch(fork.ID, n), fmt.Sprintf("got %d\n", n); got != want {
			t.Fatalf("fork batch %d output %q, want %q", n, got, want)
		}
	}
}
