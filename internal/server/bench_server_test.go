package server_test

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/stats"
)

// throughput is what driveServer measured.
type throughput struct {
	requestsPerSec float64
	firingsPerSec  float64
	snap           stats.Snapshot
}

// driveServer runs sessions × batches × perBatch asserts through a
// fresh server (direct API, no HTTP overhead) and reports throughput
// and the server's metrics snapshot.
func driveServer(sessions, batches, perBatch int) (*throughput, error) {
	srv := server.New(server.Options{
		MaxSessions:      sessions + 1,
		DefaultMaxCycles: perBatch * 4,
	})
	defer srv.Close()

	ids := make([]string, sessions)
	for i := range ids {
		info, err := srv.CreateSession(server.SessionConfig{Program: pingSrc})
		if err != nil {
			return nil, err
		}
		ids[i] = info.ID
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			n := 0
			for b := 0; b < batches; b++ {
				req := &server.BatchRequest{NoFirings: true}
				for i := 0; i < perBatch; i++ {
					req.Asserts = append(req.Asserts, server.WMEInput{
						Class: "req", Attrs: map[string]any{"n": n},
					})
					n++
				}
				if _, err := srv.Batch(id, req); err != nil {
					errCh <- err
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	secs := time.Since(start).Seconds()
	tp := &throughput{snap: srv.Snapshot()}
	tp.requestsPerSec = float64(sessions*batches) / secs
	tp.firingsPerSec = float64(tp.snap.Server.Firings) / secs
	return tp, nil
}

// TestConcurrentSessionsFireEveryAssert drives 8 vs2 sessions
// concurrently, 10 batches of 16 asserts each: every assert must fire
// exactly once. BenchmarkServerThroughput is the tunable version.
func TestConcurrentSessionsFireEveryAssert(t *testing.T) {
	// Run with GOMAXPROCS > 1 so concurrent sessions genuinely overlap.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	tp, err := driveServer(8, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * 10 * 16); tp.snap.Server.Firings != want {
		t.Fatalf("firings = %d, want %d", tp.snap.Server.Firings, want)
	}
}

// BenchmarkServerThroughput measures batched assert throughput with N
// concurrent sessions; b.N counts batches per session.
func BenchmarkServerThroughput(b *testing.B) {
	const sessions = 8
	const perBatch = 16
	tp, err := driveServer(sessions, b.N, perBatch)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(tp.requestsPerSec, "req/s")
	b.ReportMetric(tp.firingsPerSec, "firings/s")
	b.ReportMetric(float64(tp.snap.Latency["run"].P99Us), "p99-µs")
}

// spawnSrc is the fork gate's rule base: rules two-way joins over the
// warm item base, each keyed to one item by constant tests so a probe
// fires exactly one of them. Every base-fact assertion runs the full
// alpha fan-out, so a cold spawn's match scales with rules × items
// while a fork's does not. The variant comment defeats the program
// cache: a genuinely new rule base never gets a cache hit.
func spawnSrc(rules, variant int) string {
	var b strings.Builder
	b.WriteString("(literalize item n val)\n(literalize probe n)\n")
	for r := 1; r <= rules; r++ {
		fmt.Fprintf(&b, `(p bump-%d
  (probe ^n %d)
  (item ^n %d ^val <v>)
-->
  (modify 2 ^val (compute <v> + 1))
  (remove 1))
`, r, r, r)
	}
	fmt.Fprintf(&b, "; variant %d\n", variant)
	return b.String()
}

// TestForkFasterThanColdSpawn is the template fork's gate, run by make
// bench-smoke (BENCH_SMOKE=1): the median time from a fork to its first
// served batch must beat building the same session cold — create, base
// facts, first batch — by at least 3x (8-12x measured on a 2-CPU x86-64
// host). A fork skips
// parse, network compile, RHS compile and the base-fact match; losing
// that copy-on-write fast path collapses the ratio toward 1.
func TestForkFasterThanColdSpawn(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 (make bench-smoke) to run")
	}
	const items, rules, reps, minSpeedup = 1000, 48, 5, 3
	srv := server.New(server.Options{MaxSessions: 4096, DefaultTimeout: time.Minute})
	defer srv.Close()
	base := make([]server.WMEInput, 0, items)
	for i := 1; i <= items; i++ {
		base = append(base, server.WMEInput{Class: "item", Attrs: map[string]any{"n": i, "val": 0}})
	}
	probe := func(r int) *server.BatchRequest {
		return &server.BatchRequest{
			Asserts:   []server.WMEInput{{Class: "probe", Attrs: map[string]any{"n": r%rules + 1}}},
			NoFirings: true,
		}
	}
	tpl, err := srv.CreateTemplate(&server.TemplateConfig{
		SessionConfig: server.SessionConfig{Program: spawnSrc(rules, 0), Matcher: "vs2"},
		Asserts:       base,
	})
	if err != nil {
		t.Fatalf("template: %v", err)
	}
	cold := func(r int) time.Duration {
		start := time.Now()
		info, err := srv.CreateSession(server.SessionConfig{Program: spawnSrc(rules, r), Matcher: "vs2"})
		if err != nil {
			t.Fatalf("cold create: %v", err)
		}
		if _, err := srv.Batch(info.ID, &server.BatchRequest{Asserts: base, NoFirings: true}); err != nil {
			t.Fatalf("cold base facts: %v", err)
		}
		if _, err := srv.Batch(info.ID, probe(r)); err != nil {
			t.Fatalf("cold probe: %v", err)
		}
		d := time.Since(start)
		_ = srv.DeleteSession(info.ID)
		return d
	}
	fork := func(r int) time.Duration {
		start := time.Now()
		fr, err := srv.Fork(tpl.ID)
		if err != nil {
			t.Fatalf("fork: %v", err)
		}
		if _, err := srv.Batch(fr.ID, probe(r)); err != nil {
			t.Fatalf("fork probe: %v", err)
		}
		d := time.Since(start)
		_ = srv.DeleteSession(fr.ID)
		return d
	}
	// One unmeasured round of each: the first cold create pays one-time
	// lazy initialisation and the first fork warms the clone path's
	// allocator size classes.
	cold(-1)
	fork(-1)
	var colds, forks []time.Duration
	for r := 1; r <= reps; r++ {
		colds = append(colds, cold(r))
	}
	for r := 1; r <= reps; r++ {
		forks = append(forks, fork(r))
	}
	slices.Sort(colds)
	slices.Sort(forks)
	c, f := colds[reps/2], forks[reps/2]
	speedup := float64(c) / float64(f)
	t.Logf("spawn to first batch: cold %v, fork %v (%.1fx)", c, f, speedup)
	if speedup < minSpeedup {
		t.Errorf("fork spawn only %.2fx faster than cold (< %dx) — the template fork fast path regressed",
			speedup, minSpeedup)
	}
}

// BenchmarkForkLedgerLoop is the end-to-end benchmark's
// serve-ingest-durable workload with the journal taken away:
// a memory-only template of 2 000 accounts, then per iteration one fork,
// 100 batches (16 Zipf-keyed txns and a hold asserted, the hold of four
// batches earlier retracted) and the delete, all by direct calls. What
// is left is the fork's table clone and the match on the cloned table —
// the part of serve-ingest-durable the token store's layout can move —
// reported as fork_ms, op_us (mean) and op_p99_us.
func BenchmarkForkLedgerLoop(b *testing.B) {
	const accounts, batches, txns, holdLag = 2000, 100, 16, 4
	srv := server.New(server.Options{})
	defer srv.Close()
	tc := &server.TemplateConfig{SessionConfig: server.SessionConfig{Program: server.LedgerSrc, Matcher: "vs2"}}
	for i := 0; i < accounts; i++ {
		tc.Asserts = append(tc.Asserts, server.WMEInput{Class: "acct", Attrs: map[string]any{"id": i, "bal": 0, "n": 0}})
	}
	tpl, err := srv.CreateTemplate(tc)
	if err != nil {
		b.Fatalf("template: %v", err)
	}
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, accounts-1)
	stream := make([][]server.WMEInput, batches)
	for n := range stream {
		for i := 0; i < txns; i++ {
			stream[n] = append(stream[n], server.WMEInput{Class: "txn", Attrs: map[string]any{"acct": int(zipf.Uint64()), "amt": 1 + r.Intn(99)}})
		}
		stream[n] = append(stream[n], server.WMEInput{Class: "hold", Attrs: map[string]any{"acct": int(zipf.Uint64())}})
	}
	var forkNs time.Duration
	ops := make([]time.Duration, 0, b.N*batches)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		fork, err := srv.Fork(tpl.ID)
		if err != nil {
			b.Fatalf("fork: %v", err)
		}
		t1 := time.Now()
		forkNs += t1.Sub(t0)
		var holds []int
		for n, asserts := range stream {
			req := &server.BatchRequest{Asserts: asserts}
			if n >= holdLag {
				req.Retracts = []int{holds[n-holdLag]}
			}
			t2 := time.Now()
			res, err := srv.Batch(fork.ID, req)
			if err != nil {
				b.Fatalf("batch %d: %v", n, err)
			}
			ops = append(ops, time.Since(t2))
			// The hold is the batch's last assert; the post firings' modifies
			// come after it, so find it by class.
			for _, w := range res.WMAdded {
				if strings.HasPrefix(w.Text, "(hold ") {
					holds = append(holds, w.TimeTag)
				}
			}
			if len(holds) != n+1 {
				b.Fatalf("batch %d: reply reports no hold time tag", n)
			}
		}
		if err := srv.DeleteSession(fork.ID); err != nil {
			b.Fatalf("delete: %v", err)
		}
	}
	b.StopTimer()
	slices.Sort(ops)
	var opNs time.Duration
	for _, d := range ops {
		opNs += d
	}
	b.ReportMetric(float64(forkNs.Microseconds())/1000/float64(b.N), "fork_ms")
	b.ReportMetric(float64(opNs.Microseconds())/float64(len(ops)), "op_us")
	b.ReportMetric(float64(ops[len(ops)*99/100].Microseconds()), "op_p99_us")
}
