package server_test

import (
	"net/http"
	"testing"

	"repro/internal/server"
	"repro/internal/stats"
)

// lateSrc is the rule hot-built into a running session: it consumes
// the resp elements that answer produced before the rule existed, so
// firing it at all proves WM replay onto the new epoch.
const lateSrc = `(p late (resp ^n <n>) --> (remove 1))`

func createSession(t *testing.T, c *http.Client, base, program string) *server.SessionInfo {
	t.Helper()
	var info server.SessionInfo
	code := call(t, c, "POST", base+"/sessions", server.SessionConfig{Program: program}, &info)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return &info
}

func sessionByID(t *testing.T, c *http.Client, base, id string) *server.SessionInfo {
	t.Helper()
	var list struct {
		Sessions []server.SessionInfo `json:"sessions"`
	}
	if code := call(t, c, "GET", base+"/sessions", nil, &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	for i := range list.Sessions {
		if list.Sessions[i].ID == id {
			return &list.Sessions[i]
		}
	}
	t.Fatalf("session %s not in listing", id)
	return nil
}

// TestProgramHotSwapIsolation: two sessions share one compiled base
// network; a runtime build in one hops that session onto a private
// epoch, replays its working memory, and leaves the sibling session —
// and the shared base — untouched.
func TestProgramHotSwapIsolation(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	a := createSession(t, c, ts.URL, pingSrc)
	b := createSession(t, c, ts.URL, pingSrc)
	if !b.SharedNet {
		t.Fatal("second session should share the compiled network")
	}

	// Three answered requests leave three resp elements in A's WM.
	if res := assertN(t, c, ts.URL, a.ID, 1, 3); res.WMSize != 3 {
		t.Fatalf("A wm_size = %d after 3 answered reqs, want 3", res.WMSize)
	}

	var pr server.ProgramResult
	code := call(t, c, "POST", ts.URL+"/sessions/"+a.ID+"/program",
		server.ProgramRequest{Source: lateSrc}, &pr)
	if code != http.StatusOK {
		t.Fatalf("program: status %d", code)
	}
	if len(pr.Added) != 1 || pr.Added[0] != "late" || pr.Epoch != 1 || pr.Rules != 2 {
		t.Fatalf("program result %+v, want late added at epoch 1 with 2 rules", pr)
	}

	// The listing shows the divergence: A on epoch 1 with 2 rules, B
	// still on the shared epoch-0 base.
	if got := sessionByID(t, c, ts.URL, a.ID); got.Epoch != 1 || got.Rules != 2 {
		t.Fatalf("A listed as epoch %d / %d rules, want 1 / 2", got.Epoch, got.Rules)
	}
	if got := sessionByID(t, c, ts.URL, b.ID); got.Epoch != 0 || got.Rules != 1 {
		t.Fatalf("B listed as epoch %d / %d rules, want 0 / 1", got.Epoch, got.Rules)
	}

	// One more request to A: answer fires once (making a 4th resp), and
	// late fires on all four resp elements — three of them replayed WM
	// asserted before the rule existed.
	res := assertN(t, c, ts.URL, a.ID, 4, 1)
	late := 0
	for _, f := range res.Firings {
		if f.Rule == "late" {
			late++
		}
	}
	if late != 4 || res.WMSize != 0 {
		t.Fatalf("late fired %d times leaving wm_size %d, want 4 firings and empty WM", late, res.WMSize)
	}

	// B's behavior is unchanged: requests are answered, resp elements
	// accumulate, nothing consumes them.
	if res := assertN(t, c, ts.URL, b.ID, 1, 2); res.WMSize != 2 {
		t.Fatalf("B wm_size = %d, want 2 (no late rule there)", res.WMSize)
	}

	// Excise through the same endpoint: A drops back to one rule on a
	// fresh epoch.
	code = call(t, c, "POST", ts.URL+"/sessions/"+a.ID+"/program",
		server.ProgramRequest{Excise: []string{"late"}}, &pr)
	if code != http.StatusOK {
		t.Fatalf("excise: status %d", code)
	}
	if len(pr.Excised) != 1 || pr.Epoch != 2 || pr.Rules != 1 {
		t.Fatalf("excise result %+v, want late gone at epoch 2 with 1 rule", pr)
	}

	// Server metrics fold the per-session epoch counters.
	var snap stats.Snapshot
	if code := call(t, c, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Epoch.Swaps < 2 || snap.Epoch.RulesAdded != 1 || snap.Epoch.RulesExcised != 1 {
		t.Fatalf("metrics epoch = %+v, want >=2 swaps, 1 added, 1 excised", snap.Epoch)
	}
	if snap.Epoch.ReplayedWMEs < 3 {
		t.Fatalf("metrics replayed = %d, want >= 3 (A's resp elements)", snap.Epoch.ReplayedWMEs)
	}
}

// TestProgramEndpointErrors: bad session, empty change, unknown rule,
// and frozen-program violations map to 4xx statuses.
func TestProgramEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()
	sess := createSession(t, c, ts.URL, pingSrc)

	var apiErr struct {
		Error string `json:"error"`
	}
	if code := call(t, c, "POST", ts.URL+"/sessions/nope/program",
		server.ProgramRequest{Source: lateSrc}, &apiErr); code != http.StatusNotFound {
		t.Fatalf("unknown session: status %d", code)
	}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+sess.ID+"/program",
		server.ProgramRequest{}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("empty change: status %d", code)
	}
	if code := call(t, c, "POST", ts.URL+"/sessions/"+sess.ID+"/program",
		server.ProgramRequest{Excise: []string{"ghost"}}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("unknown excise: status %d", code)
	}
	// New classes cannot be introduced at runtime: the program is frozen.
	if code := call(t, c, "POST", ts.URL+"/sessions/"+sess.ID+"/program",
		server.ProgramRequest{Source: `(p x (mystery ^f 1) --> (halt))`}, &apiErr); code != http.StatusBadRequest {
		t.Fatalf("frozen class: status %d", code)
	}
	// The failed batch left the session usable on its original epoch.
	if got := sessionByID(t, c, ts.URL, sess.ID); got.Epoch != 0 || got.Rules != 1 {
		t.Fatalf("session after failed builds: epoch %d rules %d, want 0 / 1", got.Epoch, got.Rules)
	}
	if res := assertN(t, c, ts.URL, sess.ID, 1, 1); res.WMSize != 1 {
		t.Fatalf("post-error batch wm_size = %d, want 1", res.WMSize)
	}
}

// TestProgramChangeIsNotClientWork: a runtime program change re-matches
// the session's working memory on the recompiled network, and that
// re-match shows under epoch.replayed_wmes only. The match counters and
// the conflict set's inserts and deletes count client work: a rebuild
// leaves them where the last batch did.
func TestProgramChangeIsNotClientWork(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()
	sess := createSession(t, c, ts.URL, pingSrc)
	// Five answered requests: 15 WM changes, 5 resp elements left.
	if res := assertN(t, c, ts.URL, sess.ID, 1, 5); res.WMSize != 5 {
		t.Fatalf("wm_size = %d after 5 answered reqs, want 5", res.WMSize)
	}
	metrics := func() stats.Snapshot {
		t.Helper()
		var snap stats.Snapshot
		if code := call(t, c, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
			t.Fatalf("metrics: status %d", code)
		}
		return snap
	}
	before := metrics()
	var pr server.ProgramResult
	if code := call(t, c, "POST", ts.URL+"/sessions/"+sess.ID+"/program",
		server.ProgramRequest{Source: lateSrc}, &pr); code != http.StatusOK {
		t.Fatalf("program: status %d", code)
	}
	after := metrics()
	if before.Match.WMChanges != 15 {
		t.Fatalf("match.wm_changes = %d before the change, want 15", before.Match.WMChanges)
	}
	if after.Match != before.Match {
		t.Errorf("match counters moved on a program change:\n before %+v\n after  %+v", before.Match, after.Match)
	}
	if after.Conflict.Inserts != before.Conflict.Inserts || after.Conflict.Deletes != before.Conflict.Deletes {
		t.Errorf("conflict inserts/deletes %d/%d -> %d/%d on a program change",
			before.Conflict.Inserts, before.Conflict.Deletes, after.Conflict.Inserts, after.Conflict.Deletes)
	}
	// The new rule matches all five resp elements: the gauge shows them.
	if after.Conflict.Live != 5 {
		t.Errorf("conflict.live = %d after adding late, want 5", after.Conflict.Live)
	}
	if got := after.Epoch.ReplayedWMEs - before.Epoch.ReplayedWMEs; got != 5 {
		t.Errorf("epoch.replayed_wmes grew by %d, want 5", got)
	}
}
