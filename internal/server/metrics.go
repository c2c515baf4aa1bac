package server

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// metrics is the server-wide counter sink: stats.Server counters, the
// folded match, conflict-set, epoch and memory counters of every session
// (live and closed) with the gauges of the live ones, latency histograms
// and count histograms. One mutex guards it all — updates are a handful
// of integer adds, far off the match hot path.
type metrics struct {
	mu    sync.Mutex
	srv   stats.Server
	match stats.Match
	conf  stats.Conflict
	epoch stats.Epoch
	mem   stats.Memory
	dur   stats.Durability
	// lastSnap is when any session snapshot was last written, for the
	// snapshot-age gauge.
	lastSnap time.Time
	hists    map[string]*stats.Histogram // latency, µs
	counts   map[string]*stats.Histogram // sizes, items (ObserveCount)
}

// Latency histogram keys.
const (
	histRequest = "request" // whole-request latency, µs
	histRun     = "run"     // recognize-act run portion, µs
)

// Count histogram keys.
const (
	countBatch = "batch_items" // WM changes per batch
)

func (m *metrics) init() {
	m.hists = map[string]*stats.Histogram{
		histRequest: {},
		histRun:     {},
	}
	m.counts = map[string]*stats.Histogram{
		countBatch: {},
	}
}

func (m *metrics) sessionCreated() {
	m.mu.Lock()
	m.srv.SessionsCreated++
	m.srv.SessionsLive++
	m.mu.Unlock()
}

func (m *metrics) sessionClosed() {
	m.mu.Lock()
	m.srv.SessionsClosed++
	m.srv.SessionsLive--
	m.mu.Unlock()
}

// programRegistered records one program registered via POST /programs.
func (m *metrics) programRegistered() {
	m.mu.Lock()
	m.srv.ProgramsRegistered++
	m.mu.Unlock()
}

// programCompiled records one parse+Rete compile of a program body.
func (m *metrics) programCompiled() {
	m.mu.Lock()
	m.srv.ProgramCompiles++
	m.mu.Unlock()
}

// imageBuilt records one program init image built.
func (m *metrics) imageBuilt() {
	m.mu.Lock()
	m.srv.ProgramImagesBuilt++
	m.mu.Unlock()
}

// thawReused records one session start that took over its image's
// spare token table.
func (m *metrics) thawReused() {
	m.mu.Lock()
	m.srv.ThawsReused++
	m.mu.Unlock()
}

// programHit records one session create that reused an already-compiled
// program (by hash or by byte-identical source) instead of compiling.
func (m *metrics) programHit() {
	m.mu.Lock()
	m.srv.ProgramHits++
	m.mu.Unlock()
}

func (m *metrics) panicked() {
	m.mu.Lock()
	m.srv.Panics++
	m.mu.Unlock()
}

// request records one API request and its total latency.
func (m *metrics) request(d time.Duration, failed bool) {
	m.mu.Lock()
	m.srv.Requests++
	if failed {
		m.srv.RequestErrors++
	}
	m.hists[histRequest].Observe(d)
	m.mu.Unlock()
}

// batchDone records the outcome of one executed batch.
func (m *metrics) batchDone(asserts, retracts int, res *BatchResult, d time.Duration) {
	m.mu.Lock()
	m.srv.Batches++
	m.srv.BatchItems += int64(asserts + retracts)
	m.srv.Asserts += int64(asserts)
	m.srv.Retracts += int64(retracts)
	m.srv.Cycles += int64(res.Cycles)
	// One recognize-act cycle fires exactly one instantiation, whether
	// or not the request asked for the firing log.
	m.srv.Firings += int64(res.Cycles)
	if res.LimitHit {
		m.srv.LimitStops++
	}
	m.hists[histRun].Observe(d)
	m.counts[countBatch].ObserveCount(int64(asserts + retracts))
	m.mu.Unlock()
}

// fold adds what a session counted between two folds, cur less done,
// to the server totals.
func (m *metrics) fold(cur, done *counters) {
	m.mu.Lock()
	m.match.Add(&cur.match)
	m.match.Sub(&done.match)
	m.conf.Add(&cur.conf)
	m.conf.Sub(&done.conf)
	m.epoch.Add(&cur.epoch)
	m.epoch.Sub(&done.epoch)
	m.mem.Add(&cur.mem)
	m.mem.Sub(&done.mem)
	d := cur.dur
	d.Sub(&done.dur)
	m.dur.LogRecords += d.Records
	m.dur.LogBytes += d.Bytes
	m.dur.LogCommits += d.Commits
	m.dur.Fsyncs += d.Fsyncs
	m.dur.FsyncUs += d.FsyncUs
	m.mu.Unlock()
}

// snapshotTaken records one compaction installed; took is its wall time
// off the session lock.
func (m *metrics) snapshotTaken(bytes int, took time.Duration) {
	m.mu.Lock()
	m.dur.Snapshots++
	m.dur.SnapshotBytes += int64(bytes)
	m.dur.CompactionUs += took.Microseconds()
	m.lastSnap = time.Now()
	m.mu.Unlock()
}

func (m *metrics) compactionSkipped() {
	m.mu.Lock()
	m.dur.CompactionsSkipped++
	m.mu.Unlock()
}

func (m *metrics) compactionFailed() {
	m.mu.Lock()
	m.dur.CompactionsFailed++
	m.mu.Unlock()
}

func (m *metrics) compactionCancelled() {
	m.mu.Lock()
	m.dur.CompactionsCancelled++
	m.mu.Unlock()
}

func (m *metrics) forked() {
	m.mu.Lock()
	m.dur.Forks++
	m.mu.Unlock()
}

func (m *metrics) templateCreated() {
	m.mu.Lock()
	m.dur.TemplatesLive++
	m.mu.Unlock()
}

func (m *metrics) templateClosed() {
	m.mu.Lock()
	m.dur.TemplatesLive--
	m.mu.Unlock()
}

// recovered records one session or template rebuilt from durable state.
func (m *metrics) recovered(replayed int, torn bool) {
	m.mu.Lock()
	m.dur.Recoveries++
	m.dur.ReplayedRecords += int64(replayed)
	if torn {
		m.dur.TornTails++
	}
	m.mu.Unlock()
}

// Snapshot returns the point-in-time metrics view served by /metrics.
func (s *Server) Snapshot() stats.Snapshot {
	s.met.mu.Lock()
	defer s.met.mu.Unlock()
	snap := stats.Snapshot{
		Server:     s.met.srv,
		Match:      s.met.match,
		Conflict:   s.met.conf,
		Epoch:      s.met.epoch,
		Memory:     s.met.mem,
		Durability: s.met.dur,
		Latency:    make(map[string]stats.LatencySummary, len(s.met.hists)),
		Counts:     make(map[string]stats.CountSummary, len(s.met.counts)),
	}
	if s.met.lastSnap.IsZero() {
		snap.Durability.SnapshotAgeSec = -1
	} else {
		snap.Durability.SnapshotAgeSec = int64(time.Since(s.met.lastSnap).Seconds())
	}
	for k, h := range s.met.hists {
		snap.Latency[k] = h.Summary()
	}
	for k, h := range s.met.counts {
		snap.Counts[k] = h.CountSummary()
	}
	return snap
}
