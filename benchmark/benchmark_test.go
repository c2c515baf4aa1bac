package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the contract file at the repo root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return &b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONInStep holds BENCHMARK.json to the contract's limits
// and to the tables the binary prints from.
func TestBenchmarkJSONInStep(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.EndToEnd) > 16 || len(b.PerLayer) > 128 || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("limits: %d end-to-end, %d per-layer, %d workloads", len(b.EndToEnd), len(b.PerLayer), len(b.Workloads))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d", b.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n, unit string) {
		t.Helper()
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", n, unit)
		}
		seen[n] = true
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in workloads.go", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		name(w.Name, "")
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, workloads.go %q", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, metrics.go %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	setup := false
	for i, m := range b.EndToEnd {
		name(m.Name, m.Unit)
		if got := (metricDef{m.Name, m.Unit, m.Better, m.Bound}); got != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, metrics.go has %+v", i, got, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range b.PerLayer {
		name(m.Name, m.Unit)
		if got := (metricDef{name: m.Name, unit: m.Unit, better: m.Better}); got != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, metrics.go has %+v", i, got, perLayer[i])
		}
	}
}

// smoke runs one pass of one workload at two sessions per window.
func smoke(t *testing.T, wl *workloadDef, trace, corrupt bool) *runReport {
	t.Helper()
	rep, err := runWorkload(&config{wl: wl, seed: 1, sessions: numClients, trace: trace,
		dataDir: t.TempDir(), setups: 1, corruptRef: corrupt})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
	}
	return rep
}

// TestSmoke runs all four workloads, untraced and traced, and checks
// that every metric BENCHMARK.json names is reported once with its
// unit, that no op fails, and that the layers a workload bypasses
// report exactly zero.
func TestSmoke(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			e2e, layers := smoke(t, wl, false, false), smoke(t, wl, true, false)
			for _, rep := range []*runReport{e2e, layers} {
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d: %v", rep.Trace, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
				}
			}
			if len(e2e.Metrics) != len(b.EndToEnd) || len(layers.Metrics) != len(b.PerLayer) {
				t.Errorf("reported %d+%d metrics, BENCHMARK.json names %d+%d", len(e2e.Metrics), len(layers.Metrics), len(b.EndToEnd), len(b.PerLayer))
			}
			for _, m := range b.EndToEnd {
				got, ok := e2e.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("%s = %+v (reported: %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}
			for _, m := range b.PerLayer {
				got, ok := layers.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s = %+v (reported: %v), want unit %s", m.Name, got, ok, m.Unit)
				}
				layer, _, _ := strings.Cut(m.Name, ".")
				bypassed := layer == "cluster" && wl.path != pathProxy || layer == "wmlog" && wl.path != pathDurable ||
					layer == "server" && wl.path == pathLib
				if bypassed && got.Value != 0 {
					t.Errorf("%s = %v on a workload that bypasses %s, want 0", m.Name, got.Value, layer)
				}
			}
			for _, must := range map[path][]string{
				pathLib:     {"parmatch.match_share", "taskqueue.spins_per_acquire", "client.self_us_p50"},
				pathDirect:  {"seqmatch.match_share", "server.engine_us_p50", "server.create_ms_p50"},
				pathProxy:   {"cluster.proxy_self_us_p50", "cluster.hop_us_p50", "cluster.program_cache_hit_rate", "server.handler_self_us_p50"},
				pathDurable: {"wmlog.records_per_op", "wmlog.fsyncs_per_op", "wmlog.recover_ms", "server.fork_ms_p50"},
			}[wl.path] {
				if layers.Metrics[must].Value <= 0 {
					t.Errorf("%s = %v, want > 0: this is the layer the workload is for", must, layers.Metrics[must].Value)
				}
			}
			if v := layers.Metrics["server.program_compiles"].Value; wl.path != pathLib && v != 1 {
				t.Errorf("server.program_compiles = %v, want 1 per backend", v)
			}
		})
	}
}

// TestCorruptReferenceFailsOps: a session whose firing digest misses
// its reference must fail every op it issued.
func TestCorruptReferenceFailsOps(t *testing.T) {
	logw = io.Discard
	defer func() { logw = os.Stderr }()
	wl, err := workloadByName("serve-small-proxy")
	if err != nil {
		t.Fatal(err)
	}
	rep := smoke(t, wl, false, true)
	if rep.Correct || rep.Failed != rep.Attempted || rep.Failed == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d, want every op failed", rep.Correct, rep.Failed, rep.Attempted)
	}
}

// TestRunPrintsResultLine drives the command's own entry point and
// holds the last line of its output to the contract's shape.
func TestRunPrintsResultLine(t *testing.T) {
	var out bytes.Buffer
	if code := run(&out, "serve-small-proxy", 2, 0, false, numClients, t.TempDir()); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 {
		t.Errorf("result line has keys %v", last)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(endToEnd) {
		t.Errorf("result %+v: %v", res, err)
	}
	var doc document
	if err := json.Unmarshal([]byte(lines[0]), &doc); err != nil || doc.Host.CPUs < 1 || doc.Seed != 2 || len(doc.Runs) != 1 {
		t.Errorf("document %+v: %v", doc, err)
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", [][2]int64{{10, 40}}, 70},
		{"disjoint, out of order", [][2]int64{{60, 80}, {10, 40}}, 50},
		{"overlapping", [][2]int64{{10, 50}, {30, 70}}, 40},
		{"nested", [][2]int64{{10, 90}, {20, 30}}, 20},
		{"sticking out", [][2]int64{{-20, 10}, {90, 150}}, 80},
		{"covering", [][2]int64{{-5, 200}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestOpSelfTimesJoinOnSessionAndSeq(t *testing.T) {
	tr := newTracer()
	add := func(l layer, session string, start, end, engineNs int64) {
		tr.record(l, kindOp, session, tr.epoch.Add(time.Duration(start)), tr.epoch.Add(time.Duration(end)), engineNs)
	}
	// Two sessions' first ops, interleaved in arrival order at each layer.
	add(layerServer, "a", 30, 70, 0)
	add(layerServer, "b", 35, 55, 0)
	add(layerHop, "b", 25, 65, 0)
	add(layerHop, "a", 20, 80, 0)
	add(layerProxy, "a", 10, 90, 0)
	add(layerProxy, "b", 15, 75, 0)
	add(layerClient, "a", 0, 100, 25)
	add(layerClient, "b", 5, 95, 10)
	lt := selfTimes(joinOps(tr.spans))
	want := layerTimes{
		clientSelf:  []int64{20, 30},
		proxySelf:   []int64{20, 20},
		hop:         []int64{20, 20},
		handlerSelf: []int64{15, 10},
		engine:      []int64{25, 10},
	}
	for name, pair := range map[string][2][]int64{
		"client": {lt.clientSelf, want.clientSelf}, "proxy": {lt.proxySelf, want.proxySelf}, "hop": {lt.hop, want.hop},
		"handler": {lt.handlerSelf, want.handlerSelf}, "engine": {lt.engine, want.engine},
	} {
		got, want := sortedCopy(pair[0]), sortedCopy(pair[1])
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
			t.Errorf("%s self times %v, want %v", name, got, want)
		}
	}
}

func TestPercentileAndSampleRule(t *testing.T) {
	v := make([]int64, 1000)
	for i := range v {
		v[i] = int64(i + 1)
	}
	for p, want := range map[float64]int64{0.50: 500, 0.99: 990, 1.0: 1000, 0.001: 1} {
		if got := percentile(v, p); got != want {
			t.Errorf("p%v of 1..1000 = %d, want %d", p*100, got, want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing must be 0")
	}
	// A percentile counts only with ten samples beyond it.
	for n, want := range map[int]float64{1000: 0.99, 999: 0.95, 200: 0.95, 199: 0.90, 100: 0.90, 99: 0.50, 3: 0.50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile of %d samples = %v, want %v", n, got, want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	got := quartiles([]float64{46, 1, 37, 2, 29, 4, 22, 7, 16, 11})
	if want := [3]float64{3.5, 13.5, 31}; got != want {
		t.Errorf("quartiles %v, want %v", got, want)
	}
	if got, want := quartiles([]float64{1, 2}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Errorf("quartiles of two values %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{name: "op_p50_ms", better: "lower", bound: 0.10}
	higher := metricDef{name: "wm_changes_per_s", better: "higher", bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"within bound", lower, steady, []float64{104, 105, 103, 104}, "ok"},
		{"slower beyond bound", lower, steady, []float64{115, 116, 114, 115}, "regressed"},
		{"throughput down beyond bound", higher, steady, []float64{85, 86, 84, 85}, "regressed"},
		{"throughput up", higher, steady, []float64{130, 131, 129, 130}, "ok"},
		{"spread wider than bound", lower, []float64{80, 100, 120, 100}, []float64{85, 105, 125, 95}, "unresolved"},
		{"wide spread, but every run better", lower, []float64{80, 100, 120, 100}, []float64{50, 60, 70, 60}, "ok"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
