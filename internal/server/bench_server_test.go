package server_test

import (
	"encoding/json"
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

// benchReport is the BENCH_server.json schema: the run configuration,
// throughput headline, and the server's own metrics snapshot, so future
// PRs can track the trajectory.
type benchReport struct {
	Config struct {
		Sessions   int    `json:"sessions"`
		Batches    int    `json:"batches"`
		PerBatch   int    `json:"per_batch"`
		Backend    string `json:"backend"`
		CPUs       int    `json:"cpus"`
		GoMaxProcs int    `json:"gomaxprocs"`
	} `json:"config"`
	RequestsPerSec float64        `json:"requests_per_sec"`
	FiringsPerSec  float64        `json:"firings_per_sec"`
	ChangesPerSec  float64        `json:"wm_changes_per_sec"`
	ElapsedMs      int64          `json:"elapsed_ms"`
	Snapshot       stats.Snapshot `json:"snapshot"`
}

// driveServer runs sessions × batches × perBatch asserts through a
// fresh server (direct API, no HTTP overhead) and returns the report.
func driveServer(sessions, batches, perBatch int, backend string) (*benchReport, error) {
	srv := server.New(server.Options{
		MaxSessions:      sessions + 1,
		DefaultMaxCycles: perBatch * 4,
	})
	defer srv.Close()

	ids := make([]string, sessions)
	for i := range ids {
		info, err := srv.CreateSession(server.SessionConfig{
			Program: pingSrc,
			Matcher: backend,
		})
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
	elapsed := time.Since(start)

	rep := &benchReport{Snapshot: srv.Snapshot()}
	rep.Config.Sessions = sessions
	rep.Config.Batches = batches
	rep.Config.PerBatch = perBatch
	rep.Config.Backend = backend
	rep.Config.CPUs = runtime.NumCPU()
	rep.Config.GoMaxProcs = runtime.GOMAXPROCS(0)
	secs := elapsed.Seconds()
	rep.RequestsPerSec = float64(sessions*batches) / secs
	rep.FiringsPerSec = float64(rep.Snapshot.Server.Firings) / secs
	rep.ChangesPerSec = float64(rep.Snapshot.Match.WMChanges) / secs
	rep.ElapsedMs = elapsed.Milliseconds()
	return rep, nil
}

// TestBenchServerJSON runs a small fixed workload and asserts on its
// counters. It writes the report only when asked — $BENCH_OUT names the
// file (make bench points it at BENCH_server.json) — so a plain tier-1
// run leaves the tree clean. Scale stays small enough for CI;
// BenchmarkServerThroughput is the tunable version.
func TestBenchServerJSON(t *testing.T) {
	// Run with GOMAXPROCS > 1 so concurrent sessions genuinely overlap;
	// config records both the raised value and the host's real CPU count.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rep, err := driveServer(8, 10, 16, "vs2")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(8 * 10 * 16); rep.Snapshot.Server.Firings != want {
		t.Fatalf("firings = %d, want %d", rep.Snapshot.Server.Firings, want)
	}
	if rep.RequestsPerSec <= 0 {
		t.Fatalf("non-positive throughput: %+v", rep)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Logf("BENCH_OUT unset, report not written: %.0f req/s, %.0f firings/s", rep.RequestsPerSec, rep.FiringsPerSec)
		return
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %.0f req/s, %.0f firings/s", out, rep.RequestsPerSec, rep.FiringsPerSec)
}

// BenchmarkServerThroughput measures batched assert throughput with N
// concurrent sessions per backend; b.N counts batches per session.
func BenchmarkServerThroughput(b *testing.B) {
	for _, backend := range []string{"vs2", "vs1"} {
		b.Run(backend, func(b *testing.B) {
			const sessions = 8
			const perBatch = 16
			rep, err := driveServer(sessions, b.N, perBatch, backend)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(rep.RequestsPerSec, "req/s")
			b.ReportMetric(rep.FiringsPerSec, "firings/s")
			b.ReportMetric(float64(rep.Snapshot.Latency["run"].P99Us), "p99-µs")
		})
	}
}

// forkLedgerSrc is the ledger of the end-to-end benchmark's
// serve-ingest-durable workload: an acct x txn equality join guarded by
// a negated hold, modify + remove on the right-hand side.
const forkLedgerSrc = `(literalize acct id bal n)
(literalize txn acct amt)
(literalize hold acct)
(p post
   (txn ^acct <a> ^amt <m>)
   (acct ^id <a> ^bal <b> ^n <n>)
  -(hold ^acct <a>)
  -->
   (modify 2 ^bal (compute <b> + <m>) ^n (compute <n> + 1))
   (remove 1))
`

// BenchmarkForkLedgerLoop is that workload with the journal taken away:
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
	tc := &server.TemplateConfig{SessionConfig: server.SessionConfig{Program: forkLedgerSrc, Matcher: "vs2"}}
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
