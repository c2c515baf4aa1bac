// Command benchmark is the repo's one end-to-end benchmark: four
// closed-loop workloads, from an in-process engine call to clients ->
// proxy -> ops5d -> journal, each checked against a reference, with a
// traced pass that splits an op's latency by layer. README.md describes
// the workloads, the metrics and what each layer metric should move.
//
// One run, as BENCHMARK.json's command invokes it:
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints a report document and then, as the last line of stdout, the
// result object {"correct","attempted","failed","metrics"}. Without
// --workload it runs every workload, untraced then traced, each in a
// child process, and prints one document. With -compare it compares the
// documents of two sets of runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// logw takes progress and failures; stdout carries only documents.
var logw io.Writer = os.Stderr

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's stdout, the keys fixed by the
// benchmark contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runReport is one (workload, pass) of a document.
type runReport struct {
	Workload string `json:"workload"`
	Trace    bool   `json:"trace"`
	result
	Seconds  float64  `json:"seconds"`
	Sessions int      `json:"sessions"` // in the measured windows
	Cycles   int64    `json:"cycles"`
	Changes  int64    `json:"wm_changes"`
	Errors   []string `json:"errors,omitempty"`
	// Samples says how many observations stand behind each percentile.
	Samples map[string]int `json:"samples"`
}

// hostInfo makes a document self-describing: a number is only as good
// as the host it came from.
type hostInfo struct {
	CPUs       int    `json:"host_cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Revision   string `json:"vcs.revision"`
	// DataDirTmpfs: the durable workload's fsyncs cost device time unless
	// the data dir is on tmpfs.
	DataDirTmpfs bool `json:"data_dir_tmpfs"`
	// Oversubscribed: fewer cores than the load model's 2 clients need.
	// ROADMAP: a number from a 1-CPU host does not count.
	Oversubscribed bool `json:"oversubscribed"`
}

type document struct {
	Host hostInfo    `json:"host"`
	Seed int64       `json:"seed"`
	Runs []runReport `json:"runs"`
}

const tmpfsMagic = 0x01021994

func host(dataDir string) hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
	}
	h.Oversubscribed = h.CPUs < numClients
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Revision = s.Value
			}
		}
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(dataDir, &fs) == nil {
		h.DataDirTmpfs = fs.Type == tmpfsMagic
	}
	if h.Oversubscribed {
		fmt.Fprintf(logw, "benchmark: WARNING: %d CPU for %d closed-loop clients — host is oversubscribed, these numbers do not count\n",
			h.CPUs, numClients)
	}
	return h
}

// runWorkload is one run of one workload: set-up (cfg.setups times),
// the timed window(s), the durable workload's recovery check, and the
// pass's metrics.
func runWorkload(cfg *config) (*runReport, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var (
		e      *env
		setupS []float64
	)
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg, i, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()
	sort.Float64s(setupS)

	rep := &runReport{Workload: cfg.wl.name, Trace: cfg.trace, Seconds: cfg.seconds, Samples: map[string]int{}}
	var vals values
	defs := endToEnd
	total := &recorder{}
	if !cfg.trace {
		w := e.timed(1, false)
		total.merge(&w.rec)
		if cfg.wl.path == pathDurable {
			e.recoveryCheck(total)
		}
		vals = endToEndValues(w, setupS[len(setupS)/2], rep.Samples)
	} else {
		// Half the time untraced, half traced, the traced half in the
		// middle so neither side is the warmer one: their throughput ratio
		// is the tracing overhead.
		defs = perLayer
		untraced := e.timed(0.25, false)
		before := e.counters()
		traced := e.timed(0.5, true)
		after := e.counters()
		untraced.add(e.timed(0.25, false))
		total.merge(&untraced.rec)
		total.merge(&traced.rec)
		var recoverNs int64
		if cfg.wl.path == pathDurable {
			recoverNs = e.recoveryCheck(total)
		}
		rep.Samples["op"] = len(traced.rec.opNs)
		var err error
		if vals, err = e.perLayerValues(untraced, traced, before, after, recoverNs); err != nil {
			return nil, err
		}
	}

	rep.Attempted, rep.Failed = total.ops, total.failedOps
	rep.Correct = total.failedOps == 0 && total.ops > 0
	rep.Sessions, rep.Cycles, rep.Changes = total.sessions, total.cycles, total.changes
	rep.Errors = e.errs.msgs
	rep.Metrics = make(map[string]metric, len(defs))
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return rep, nil
}

// emit prints v as one line of JSON.
func emit(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// suite runs every workload, untraced then traced, each in a fresh
// child process so peak RSS and heap state do not leak between them.
func suite(self string, args []string, doc *document) error {
	for i := range workloads {
		for _, trace := range []string{"0", "1"} {
			name := workloads[i].name
			fmt.Fprintf(logw, "benchmark: %s trace=%s\n", name, trace)
			cmd := exec.Command(self, append(args, "-workload", name, "-trace", trace)...)
			cmd.Stderr = logw
			out, runErr := cmd.Output()
			// The child's first line is its document, whether or not it
			// went on to exit non-zero over failed ops.
			var child document
			first, _, _ := strings.Cut(string(out), "\n")
			if err := json.Unmarshal([]byte(first), &child); err != nil || len(child.Runs) != 1 {
				return fmt.Errorf("%s trace=%s: no report (%v)", name, trace, runErr)
			}
			doc.Runs = append(doc.Runs, child.Runs[0])
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload; empty runs all four, untraced then traced")
		seed     = flag.Int64("seed", 1, "workload seed: the ledger's op streams are drawn from it")
		seconds  = flag.Float64("seconds", 10, "length of a run's timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced pass's per-layer metrics")
		sessions = flag.Int("sessions", 0, "fixed work: run this many sessions per window instead of -seconds")
		dataDir  = flag.String("data-dir", "", "parent of the durable workload's data dir (default: a fresh temp dir); tmpfs takes device time out of the numbers")
		compare  = flag.Bool("compare", false, "compare two sets of documents: -compare a1.json,a2.json b1.json,b2.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json[,A2.json...] B.json[,B2.json...]")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments (see -h)")
		os.Exit(2)
	}
	os.Exit(run(os.Stdout, *name, *seed, *seconds, *trace != 0, *sessions, *dataDir))
}

// run is main after flag parsing, returning the exit code: 1 when any
// op failed or missed its reference, 2 when the run itself broke.
func run(stdout io.Writer, name string, seed int64, seconds float64, trace bool, sessions int, dataDir string) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	// The run's files live in a directory of this process's own, removed
	// when it is done.
	if dataDir != "" {
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return fail(err)
		}
	}
	dir, err := os.MkdirTemp(dataDir, "ops5bench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(dir)
	doc := &document{Host: host(dir), Seed: seed}

	if name == "" {
		self, err := os.Executable()
		if err != nil {
			return fail(err)
		}
		args := []string{"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-sessions", fmt.Sprint(sessions), "-data-dir", dir}
		if err := suite(self, args, doc); err != nil {
			return fail(err)
		}
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", out)
		for _, r := range doc.Runs {
			if !r.Correct {
				return 1
			}
		}
		return 0
	}

	wl, err := workloadByName(name)
	if err != nil {
		return fail(err)
	}
	cfg := &config{wl: wl, seed: seed, seconds: seconds, sessions: sessions, trace: trace, dataDir: dir, setups: 1}
	if !trace {
		// setup_s is the median of five set-ups; the first also pays the
		// process's cold start, which the median leaves out.
		cfg.setups = 5
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	doc.Runs = []runReport{*rep}
	if err := emit(stdout, doc); err != nil {
		return fail(err)
	}
	if err := emit(stdout, rep.result); err != nil {
		return fail(err)
	}
	if !rep.Correct {
		return 1
	}
	return 0
}
