// Cluster fabric benchmark: aggregate throughput of the routing proxy
// over 1/2/4 in-process ops5d backends on the paper's Tourney and
// Weaver workloads, program-cache hit accounting, and migration
// latency under load. cmd/psmbench -cluster runs this file and records
// BENCH_cluster.json; the bench-smoke gates pin the host-independent
// structural properties (cache hit rate, migration differential, and —
// only on hosts with enough CPUs for the backends to actually run in
// parallel — a minimum 2-backend scaling ratio).
package tables

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/workload"
)

// ClusterBenchOptions size the cluster benchmark.
type ClusterBenchOptions struct {
	// BackendCounts are the fleet sizes swept (default 1, 2, 4).
	BackendCounts []int
	// Clients is the concurrent session-driving client count (default 8).
	Clients int
	// Batches each client executes across its sessions (default 30).
	Batches int
	// MaxCycles is the recognize-act budget per batch (default 25).
	MaxCycles int
	// Migrations timed per fleet size ≥ 2 (default 8).
	Migrations int
}

func (o *ClusterBenchOptions) fill() {
	if len(o.BackendCounts) == 0 {
		o.BackendCounts = []int{1, 2, 4}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Batches <= 0 {
		o.Batches = 30
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 25
	}
	if o.Migrations <= 0 {
		o.Migrations = 8
	}
}

// ClusterRun is one (workload, fleet size) cell of the sweep.
type ClusterRun struct {
	Workload string `json:"workload"`
	Backends int    `json:"backends"`
	Clients  int    `json:"clients"`

	Batches   int   `json:"batches"` // executed across all clients
	Cycles    int64 `json:"cycles"`
	Sessions  int64 `json:"sessions_created"`
	ElapsedUs int64 `json:"elapsed_us"`

	BatchesPerSec float64 `json:"batches_per_sec"`
	CyclesPerSec  float64 `json:"cycles_per_sec"`

	// Program cache, cluster view for this cell: every backend compiles
	// the workload at most once, every later create is a hit.
	ProgramPushes    int64   `json:"program_pushes"`
	ProgramCacheHits int64   `json:"program_cache_hits"`
	CacheHitRate     float64 `json:"cache_hit_rate"`
	BackendCompiles  int64   `json:"backend_compiles"`
}

// ClusterReport is the BENCH_cluster.json payload.
type ClusterReport struct {
	HostCPUs int `json:"host_cpus"`
	// Oversubscribed: the host has fewer than two CPUs per backend of a
	// two-backend fleet — one for the backend's engine, one for its share
	// of the in-process proxy and clients — so wall-clock scaling ratios
	// measure scheduling noise, not the fabric (0.75-0.95x measured on 2
	// CPUs). Scaling gates skip when set.
	Oversubscribed bool `json:"oversubscribed"`

	Clients   int `json:"clients"`
	Batches   int `json:"batches_per_client"`
	MaxCycles int `json:"max_cycles_per_batch"`

	Runs []ClusterRun `json:"runs"`
	// ScalingX2 is per-workload aggregate batches/sec at 2 backends over
	// 1 backend (the tentpole ratio the smoke gate pins on capable hosts).
	ScalingX2 map[string]float64 `json:"scaling_x2"`

	// Migration latency under concurrent batch load, all fleet sizes
	// pooled (export + import + route flip, µs).
	Migration stats.LatencySummary `json:"migration_latency"`
	// MigrateDifferential: per matcher backend, whether a migrated
	// session's firing trace and final WM stayed byte-identical to an
	// unmigrated control fed the same batches.
	MigrateDifferential map[string]bool `json:"migrate_differential_ok"`
}

// clusterWorkloads are the benched programs: self-driving (top-level
// makes kick them) so each batch is a pure cycle budget, no input
// generation in the measured path. Sized down from the Table 4-1
// configs to keep the full sweep in CI-smoke time.
func clusterWorkloads() []Spec {
	return []Spec{
		{Name: "Tourney", Src: workload.Tourney(10)},
		{Name: "Weaver", Src: workload.Weaver(8, 8)},
	}
}

// postJSON/getJSON are the bench's minimal HTTP helpers: issue one
// JSON request, decode the response when out is non-nil, return the
// status code.
func postJSON(c *http.Client, url string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil && len(raw) > 0 && resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func getJSON(c *http.Client, url string, out any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil && len(raw) > 0 && resp.StatusCode < 400 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// benchFleet is B in-process backends plus a proxy, the same topology
// the cluster smoke test uses (httptest servers: real HTTP, no ports).
type benchFleet struct {
	servers []*server.Server
	tss     []*httptest.Server
	proxy   *cluster.Proxy
	front   *httptest.Server
	client  *http.Client
}

func newBenchFleet(n int) (*benchFleet, error) {
	f := &benchFleet{client: &http.Client{Timeout: time.Minute}}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Options{
			MaxSessions: 4096, DefaultTimeout: time.Minute, DefaultMaxCycles: 1 << 20,
		})
		ts := httptest.NewServer(srv.Handler())
		f.servers = append(f.servers, srv)
		f.tss = append(f.tss, ts)
		urls = append(urls, ts.URL)
	}
	p, err := cluster.New(cluster.Options{Backends: urls, HealthEvery: time.Hour, Client: f.client})
	if err != nil {
		f.close()
		return nil, err
	}
	f.proxy = p
	f.front = httptest.NewServer(p.Handler())
	return f, nil
}

func (f *benchFleet) close() {
	if f.front != nil {
		f.front.Close()
	}
	if f.proxy != nil {
		f.proxy.Close()
	}
	for i := range f.tss {
		f.tss[i].Close()
		f.servers[i].Close()
	}
}

// clusterClient drives sessions to their halt point through the proxy:
// create by hash, run cycle-budget batches until halted or the quota is
// spent, delete, recreate. Returns executed batches, cycles, sessions.
func clusterClient(c *http.Client, base, hash string, batches, maxCycles int) (int, int64, int64, error) {
	var nBatches int
	var nCycles, nSessions int64
	for nBatches < batches {
		var info server.SessionInfo
		code, err := postJSON(c, base+"/sessions", &server.SessionConfig{ProgramHash: hash}, &info)
		if err != nil || code != http.StatusCreated {
			return nBatches, nCycles, nSessions, fmt.Errorf("create: status %d err %v", code, err)
		}
		nSessions++
		halted := false
		for !halted && nBatches < batches {
			var res server.BatchResult
			req := server.BatchRequest{MaxCycles: maxCycles, NoFirings: true}
			code, err := postJSON(c, base+"/sessions/"+info.ID+"/assert", &req, &res)
			if err != nil || code != http.StatusOK {
				return nBatches, nCycles, nSessions, fmt.Errorf("batch: status %d err %v", code, err)
			}
			nBatches++
			nCycles += int64(res.Cycles)
			halted = res.Halted
		}
		req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+info.ID, nil)
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	return nBatches, nCycles, nSessions, nil
}

// RunClusterBench sweeps fleet sizes × workloads, measures migration
// latency under load, and runs the migrate differential across matcher
// backends.
func RunClusterBench(opt ClusterBenchOptions) (*ClusterReport, error) {
	opt.fill()
	rep := &ClusterReport{
		HostCPUs:            runtime.NumCPU(),
		Oversubscribed:      runtime.NumCPU() < 2*2,
		Clients:             opt.Clients,
		Batches:             opt.Batches,
		MaxCycles:           opt.MaxCycles,
		ScalingX2:           map[string]float64{},
		MigrateDifferential: map[string]bool{},
	}

	var migHist stats.Histogram
	base1 := map[string]float64{} // workload -> 1-backend batches/sec
	for _, nb := range opt.BackendCounts {
		for _, wl := range clusterWorkloads() {
			run, mig, err := runClusterCell(&opt, nb, wl)
			if err != nil {
				return nil, fmt.Errorf("%s @ %d backends: %w", wl.Name, nb, err)
			}
			rep.Runs = append(rep.Runs, *run)
			migHist.Add(mig)
			switch nb {
			case 1:
				base1[wl.Name] = run.BatchesPerSec
			case 2:
				if b := base1[wl.Name]; b > 0 {
					rep.ScalingX2[wl.Name] = run.BatchesPerSec / b
				}
			}
		}
	}
	rep.Migration = migHist.Summary()

	for _, matcher := range []string{"vs1", "vs2"} {
		ok, err := clusterMigrateDifferential(matcher)
		if err != nil {
			return nil, fmt.Errorf("migrate differential (%s): %w", matcher, err)
		}
		rep.MigrateDifferential[matcher] = ok
	}
	return rep, nil
}

// runClusterCell measures one (fleet size, workload) cell, timing
// opt.Migrations migrations under the concurrent load when the fleet
// has somewhere to migrate to.
func runClusterCell(opt *ClusterBenchOptions, nb int, wl Spec) (*ClusterRun, *stats.Histogram, error) {
	f, err := newBenchFleet(nb)
	if err != nil {
		return nil, nil, err
	}
	defer f.close()
	base := f.front.URL

	var reg struct {
		Hash string `json:"hash"`
	}
	if code, err := postJSON(f.client, base+"/programs", map[string]string{"program": wl.Src}, &reg); err != nil || code != http.StatusCreated {
		return nil, nil, fmt.Errorf("register: status %d err %v", code, err)
	}

	run := &ClusterRun{Workload: wl.Name, Backends: nb, Clients: opt.Clients}
	var mu sync.Mutex
	var firstErr error
	var totBatches int
	var totCycles, totSessions int64
	mig := &stats.Histogram{}

	start := time.Now()
	var wg sync.WaitGroup
	for cl := 0; cl < opt.Clients; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, cy, se, err := clusterClient(f.client, base, reg.Hash, opt.Batches, opt.MaxCycles)
			mu.Lock()
			totBatches += b
			totCycles += cy
			totSessions += se
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	// Migration under load: one long-lived session keeps bouncing
	// between backends while the clients hammer the fleet.
	if nb >= 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var info server.SessionInfo
			if code, err := postJSON(f.client, base+"/sessions", &server.SessionConfig{ProgramHash: reg.Hash}, &info); err != nil || code != http.StatusCreated {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("migration session create: status %d err %v", code, err)
				}
				mu.Unlock()
				return
			}
			for i := 0; i < opt.Migrations; i++ {
				t0 := time.Now()
				code, err := postJSON(f.client, base+"/sessions/"+info.ID+"/migrate", map[string]string{}, nil)
				if err != nil || code != http.StatusOK {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("migrate %d: status %d err %v", i, code, err)
					}
					mu.Unlock()
					return
				}
				mu.Lock()
				mig.Observe(time.Since(t0))
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	run.ElapsedUs = time.Since(start).Microseconds()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	run.Batches = totBatches
	run.Cycles = totCycles
	run.Sessions = totSessions
	sec := float64(run.ElapsedUs) / 1e6
	if sec > 0 {
		run.BatchesPerSec = float64(run.Batches) / sec
		run.CyclesPerSec = float64(run.Cycles) / sec
	}
	m := f.proxy.Metrics()
	run.ProgramPushes = m.Cluster.ProgramPushes
	run.ProgramCacheHits = m.Cluster.ProgramCacheHits
	if tot := run.ProgramCacheHits + run.ProgramPushes; tot > 0 {
		run.CacheHitRate = float64(run.ProgramCacheHits) / float64(tot)
	}
	for _, s := range f.servers {
		run.BackendCompiles += s.Snapshot().Server.ProgramCompiles
	}
	return run, mig, nil
}

// clusterMigrateDifferential runs the correctness check the smoke gate
// asserts: over a 2-backend fleet, a session on the given matcher is
// migrated mid-sequence while an unmigrated control receives the same
// batches; both firing traces and final WM must match exactly.
func clusterMigrateDifferential(matcher string) (bool, error) {
	f, err := newBenchFleet(2)
	if err != nil {
		return false, err
	}
	defer f.close()
	base := f.front.URL
	src := workload.Tourney(8)

	mk := func() (string, error) {
		var info server.SessionInfo
		code, err := postJSON(f.client, base+"/sessions", &server.SessionConfig{Program: src, Matcher: matcher}, &info)
		if err != nil || code != http.StatusCreated {
			return "", fmt.Errorf("create: status %d err %v", code, err)
		}
		return info.ID, nil
	}
	migID, err := mk()
	if err != nil {
		return false, err
	}
	ctlID, err := mk()
	if err != nil {
		return false, err
	}

	runSeq := func(id string, batches, budget int) (string, bool, error) {
		var trace string
		halted := false
		for i := 0; i < batches && !halted; i++ {
			var res server.BatchResult
			req := server.BatchRequest{MaxCycles: budget}
			code, err := postJSON(f.client, base+"/sessions/"+id+"/assert", &req, &res)
			if err != nil || code != http.StatusOK {
				return "", false, fmt.Errorf("batch: status %d err %v", code, err)
			}
			for _, fi := range res.Firings {
				trace += fmt.Sprintf("%s%v;", fi.Rule, fi.TimeTags)
			}
			halted = res.Halted
		}
		return trace, halted, nil
	}
	wmOf := func(id string) (string, error) {
		var snap struct {
			WMEs []server.WMEOut `json:"wmes"`
		}
		code, err := getJSON(f.client, base+"/sessions/"+id+"/wm", &snap)
		if err != nil || code != http.StatusOK {
			return "", fmt.Errorf("wm: status %d err %v", code, err)
		}
		var s string
		for _, w := range snap.WMEs {
			s += fmt.Sprintf("%d:%s;", w.TimeTag, w.Text)
		}
		return s, nil
	}

	t1m, _, err := runSeq(migID, 4, 20)
	if err != nil {
		return false, err
	}
	t1c, _, err := runSeq(ctlID, 4, 20)
	if err != nil {
		return false, err
	}
	if code, err := postJSON(f.client, base+"/sessions/"+migID+"/migrate", map[string]string{}, nil); err != nil || code != http.StatusOK {
		return false, fmt.Errorf("migrate: status %d err %v", code, err)
	}
	t2m, _, err := runSeq(migID, 200, 50)
	if err != nil {
		return false, err
	}
	t2c, _, err := runSeq(ctlID, 200, 50)
	if err != nil {
		return false, err
	}
	wmM, err := wmOf(migID)
	if err != nil {
		return false, err
	}
	wmC, err := wmOf(ctlID)
	if err != nil {
		return false, err
	}
	return t1m+t2m == t1c+t2c && wmM == wmC, nil
}
