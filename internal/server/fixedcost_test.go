package server_test

import (
	"os"
	"testing"
	"time"

	"repro/internal/server"
)

// The fixed-cost gate: what one request costs must follow what the
// request changes, not what the session holds. Each probe times the
// same request against a small and a large session (min of N, so
// scheduler and GC noise drop out) and fails when the large one costs
// more than maxFixedCostRatio times the small one. The sizes are 256×
// and 1000× apart, so any step that walks the token table or the
// working memory per request — which is what CheckDrained and
// RetractBatch used to do — lands far outside the bound on any host,
// while the ratio of two honest O(1) paths stays near 1.
const maxFixedCostRatio = 4.0

const tickSrc = `
(literalize count n)
(p step (count ^n <n>) --> (modify 1 ^n (compute <n> + 1)))
`

const ledgerSrc = `
(literalize acct id)
(literalize txn id)
(p pay (acct ^id <i>) (txn ^id <i>) --> (remove 2))
`

// minBatch runs next() n times through Server.Batch and returns the
// fastest call.
func minBatch(t *testing.T, srv *server.Server, id string, n int, next func() *server.BatchRequest, check func(*server.BatchResult)) time.Duration {
	t.Helper()
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		req := next()
		start := time.Now()
		res, err := srv.Batch(id, req)
		d := time.Since(start)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		check(res)
		if best == 0 || d < best {
			best = d
		}
	}
	return best
}

// tickCost is the fastest max_cycles:1 batch on a session whose token
// table has lines lines.
func tickCost(t *testing.T, srv *server.Server, lines int) time.Duration {
	t.Helper()
	info, err := srv.CreateSession(server.SessionConfig{Program: tickSrc})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer srv.DeleteSession(info.ID)
	if err := srv.ResizeTable(info.ID, lines); err != nil {
		t.Fatalf("resize: %v", err)
	}
	seed := &server.BatchRequest{MaxCycles: 1, Asserts: []server.WMEInput{{Class: "count", Attrs: map[string]any{"n": 0}}}}
	if _, err := srv.Batch(info.ID, seed); err != nil {
		t.Fatalf("seed: %v", err)
	}
	return minBatch(t, srv, info.ID, 300,
		func() *server.BatchRequest { return &server.BatchRequest{MaxCycles: 1} },
		func(res *server.BatchResult) {
			if res.Cycles != 1 || !res.LimitHit {
				t.Fatalf("tick batch ran %d cycles, limit_hit %v; want 1, true", res.Cycles, res.LimitHit)
			}
		})
}

// retractCost is the fastest one-tag retract batch on a session holding
// wmSize accounts. Each probe retracts the newest account; an untimed
// assert then replaces it, so the working memory stays at wmSize.
func retractCost(t *testing.T, srv *server.Server, wmSize int) time.Duration {
	t.Helper()
	info, err := srv.CreateSession(server.SessionConfig{Program: ledgerSrc})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer srv.DeleteSession(info.ID)
	next := 0
	assert := func(n int) int {
		req := &server.BatchRequest{NoFirings: true}
		for ; n > 0; n-- {
			req.Asserts = append(req.Asserts, server.WMEInput{Class: "acct", Attrs: map[string]any{"id": next}})
			next++
		}
		res, err := srv.Batch(info.ID, req)
		if err != nil || len(res.WMAdded) == 0 {
			t.Fatalf("assert: %v, %v", res, err)
		}
		return res.WMAdded[len(res.WMAdded)-1].TimeTag
	}
	newest := 0
	for left := wmSize; left > 0; left -= min(left, 4000) {
		newest = assert(min(left, 4000))
	}
	return minBatch(t, srv, info.ID, 200,
		func() *server.BatchRequest {
			return &server.BatchRequest{NoFirings: true, Retracts: []int{newest}}
		},
		func(res *server.BatchResult) {
			if len(res.WMRemoved) != 1 || res.WMSize != wmSize-1 {
				t.Fatalf("retract removed %v leaving %d, want one tag leaving %d", res.WMRemoved, res.WMSize, wmSize-1)
			}
			newest = assert(1)
		})
}

// TestRequestCostIndependentOfSessionSize is wired into make
// bench-smoke (BENCH_SMOKE=1); it is skipped in a plain go test because
// it builds a 100 000-element working memory.
func TestRequestCostIndependentOfSessionSize(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	srv := server.New(server.Options{})
	defer srv.Close()
	probes := []struct {
		name         string
		small, large int
		cost         func(*testing.T, *server.Server, int) time.Duration
	}{
		{"max_cycles:1 batch by table lines", 1 << 10, 1 << 18, tickCost},
		{"one-tag retract by WM size", 100, 100000, retractCost},
	}
	for _, p := range probes {
		t.Run(p.name, func(t *testing.T) {
			// Large first, small second: a warm-up effect would make the
			// small run cheaper and the ratio worse, never hide a regression.
			large := p.cost(t, srv, p.large)
			small := p.cost(t, srv, p.small)
			ratio := float64(large) / float64(small)
			t.Logf("%d: %v, %d: %v, ratio %.2f (bound %.1f)", p.small, small, p.large, large, ratio, maxFixedCostRatio)
			if ratio > maxFixedCostRatio {
				t.Errorf("request cost grew %.1f× from size %d to %d (bound %.1f×): a per-request step is walking session state",
					ratio, p.small, p.large, maxFixedCostRatio)
			}
		})
	}
}
