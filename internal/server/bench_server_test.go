package server_test

import (
	"encoding/json"
	"os"
	"runtime"
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
			Procs:   2,
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
	for _, backend := range []string{"vs2", "parallel"} {
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
