package server_test

import (
	"net/http"
	"testing"

	"repro/internal/server"
	"repro/internal/stats"
)

// crossBudgetSrc pairs a harmless per-element rule with a genuine
// cross-product rule: no shared variables connect its junk condition
// elements, so no join order avoids the quadratic scan — exactly the
// shape the match budget exists for.
const crossBudgetSrc = `
(literalize req n)
(literalize junk n)
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

// TestSessionMatchBudget creates a session with a per-cycle match
// budget, trips it over HTTP, and checks the quarantine surfaces in the
// batch result and the epoch budget_trips metric.
func TestSessionMatchBudget(t *testing.T) {
	_, ts := newTestServer(t)
	c := ts.Client()

	var info server.SessionInfo
	cfg := server.SessionConfig{Program: crossBudgetSrc, MatchBudget: 50}
	if code := call(t, c, "POST", ts.URL+"/sessions", cfg, &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	// Each req assert re-activates cross's junk×junk cross product
	// (8×8 = 64 pairs per element, over the budget of 50).
	res := assertN(t, c, ts.URL, info.ID, 1, 4)
	if len(res.Quarantined) != 1 || res.Quarantined[0] != "cross" {
		t.Fatalf("quarantined = %v, want [cross]", res.Quarantined)
	}
	// eat keeps working after the excise, draining the req elements.
	res = assertN(t, c, ts.URL, info.ID, 10, 4)
	if res.WMSize != 8 {
		t.Fatalf("wm_size = %d after quarantine, want the 8 junk elements", res.WMSize)
	}
	if len(res.Quarantined) != 1 {
		t.Fatalf("quarantined = %v on the second batch, want still [cross]", res.Quarantined)
	}

	var snap stats.Snapshot
	if code := call(t, c, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Epoch.BudgetTrips != 1 {
		t.Fatalf("metrics budget_trips = %d, want 1", snap.Epoch.BudgetTrips)
	}
	if snap.Epoch.RulesExcised < 1 {
		t.Fatalf("metrics rules_excised = %d, want >= 1", snap.Epoch.RulesExcised)
	}
}

// deadJoinSrc has a rule whose second condition element never matches:
// with unlinking on, req activations into the dead join are buffered
// instead of probed.
const deadJoinSrc = `
(literalize req n)
(literalize resp n)
(literalize ghost n)
(p answer
  (req ^n <n>)
-->
  (make resp ^n <n>)
  (remove 1))
(p dead
  (ghost ^n <n>)
  (req ^n <n>)
-->
  (halt))
`

// TestSessionUnlink runs sessions on both matchers with unlinking
// enabled and checks the unlink_skips and relinks counters reach
// /metrics through the per-session stat folds.
func TestSessionUnlink(t *testing.T) {
	for _, matcher := range []string{"vs2", "vs1"} {
		t.Run(matcher, func(t *testing.T) {
			_, ts := newTestServer(t)
			c := ts.Client()

			var info server.SessionInfo
			cfg := server.SessionConfig{Program: deadJoinSrc, Matcher: matcher, Unlink: true}
			if code := call(t, c, "POST", ts.URL+"/sessions", cfg, &info); code != http.StatusCreated {
				t.Fatalf("create: status %d", code)
			}
			res := assertN(t, c, ts.URL, info.ID, 1, 16)
			if got := len(res.Firings); got != 16 {
				t.Fatalf("firings = %d, want 16", got)
			}
			var snap stats.Snapshot
			if code := call(t, c, "GET", ts.URL+"/metrics", nil, &snap); code != http.StatusOK {
				t.Fatalf("metrics: status %d", code)
			}
			if snap.Match.UnlinkSkips == 0 {
				t.Fatal("metrics unlink_skips = 0, want > 0 (dead join never probed)")
			}
		})
	}
}
