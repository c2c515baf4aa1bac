package server

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/symbols"
	"repro/internal/wm"
	"repro/internal/wmlog"
)

// This file wires the wmlog durability layer into the session manager:
// per-session delta logs written through the engine's journal hook,
// snapshot compaction on a batch cadence (the snapshot written off the
// session lock), crash recovery at startup, and rebuild-from-disk for
// the restore endpoint.

// durState is the server's durability configuration, nil when the
// daemon runs memory-only.
type durState struct {
	store     *wmlog.Store
	policy    wmlog.SyncPolicy
	snapEvery int        // batches between automatic snapshot compactions; 0 = never
	fs        wmlog.FS   // compaction file operations
	lane      sync.Mutex // held by the compaction running now: one at a time
}

// ErrNotDurable reports a durability operation on a memory-only session
// or server.
var ErrNotDurable = errors.New("session has no durable state (server running without -data-dir)")

// sessionJournal adapts a wmlog.Writer to the engine's Journal
// interface. Append errors are sticky: the engine hooks cannot fail, so
// the first error is kept and surfaced at the batch commit point.
type sessionJournal struct {
	w   *wmlog.Writer
	seg int // the log segment w appends to
	tab *symbols.Table
	err error
}

func (j *sessionJournal) append(rec *wmlog.Record) {
	if j.err != nil {
		return
	}
	j.err = j.w.Append(rec)
}

func (j *sessionJournal) RecordMake(w *wm.WME) {
	j.append(&wmlog.Record{Type: wmlog.RecMake, Tag: w.TimeTag, Fields: wmlog.EncodeFields(w.Fields, j.tab)})
}

func (j *sessionJournal) RecordRemove(w *wm.WME) {
	j.append(&wmlog.Record{Type: wmlog.RecRemove, Tag: w.TimeTag})
}

func (j *sessionJournal) RecordFire(rule string, tags []int) {
	j.append(&wmlog.Record{Type: wmlog.RecFire, Rule: rule, Tags: tags})
}

func (j *sessionJournal) RecordHalt() {
	j.append(&wmlog.Record{Type: wmlog.RecHalt})
}

func (j *sessionJournal) RecordProgram(src string) {
	j.append(&wmlog.Record{Type: wmlog.RecProgram, Src: src})
}

func (j *sessionJournal) RecordAccept(vals []wm.Value) {
	j.append(&wmlog.Record{Type: wmlog.RecAccept, Fields: wmlog.EncodeFields(vals, j.tab)})
}

func (j *sessionJournal) RecordAcceptTake(n int) {
	j.append(&wmlog.Record{Type: wmlog.RecAcceptTake, Tag: n})
}

// close releases the log file descriptor, flushing buffered frames
// first so the on-disk log ends at a clean frame boundary. Used by
// teardown and by the panic quarantine (a quarantined session must not
// pin its fd, and its log must stay cleanly truncatable).
func (j *sessionJournal) close() {
	if j == nil || j.w.Closed() {
		return
	}
	_ = j.w.Close()
}

// EnableDurability opens the data directory named in Options, then
// rebuilds every persisted template and session found there. Call once,
// after New and before serving. Returns how many entries were
// recovered. With no DataDir configured it is a no-op.
func (s *Server) EnableDurability() (recovered int, err error) {
	if s.opt.DataDir == "" {
		return 0, nil
	}
	policy, err := wmlog.ParseSyncPolicy(s.opt.Durability)
	if err != nil {
		return 0, err
	}
	store, err := wmlog.Open(s.opt.DataDir)
	if err != nil {
		return 0, err
	}
	s.dur = &durState{store: store, policy: policy, snapEvery: s.opt.SnapshotEvery, fs: wmlog.OS}

	tids, err := store.List(wmlog.KindTemplate)
	if err != nil {
		return 0, err
	}
	for _, id := range tids {
		if err := s.recoverTemplate(id); err != nil {
			return recovered, fmt.Errorf("recover template %s: %w", id, err)
		}
		recovered++
	}
	sids, err := store.List(wmlog.KindSession)
	if err != nil {
		return recovered, err
	}
	for _, id := range sids {
		if err := s.recoverSession(id); err != nil {
			return recovered, fmt.Errorf("recover session %s: %w", id, err)
		}
		recovered++
	}
	return recovered, nil
}

// sessionMeta is an entry's meta.json: the session's (or template's)
// resolved config — the program source lives in its own file — plus the
// template a fork came from.
type sessionMeta struct {
	storedConfig
	Template string `json:"template,omitempty"`
}

// storedConfig is a session config as a meta.json or an export payload
// carries it. Earlier builds also wrote the keys below — backend (the
// matcher's old name), procs, queues, locks, cs_shards, fire_batch and
// unlink — so an entry or payload they wrote still decodes; resolve
// drops them.
type storedConfig struct {
	SessionConfig
	Backend   string `json:"backend,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	Queues    int    `json:"queues,omitempty"`
	Locks     string `json:"locks,omitempty"`
	CSShards  int    `json:"cs_shards,omitempty"`
	FireBatch int    `json:"fire_batch,omitempty"`
	Unlink    bool   `json:"unlink,omitempty"`
}

// resolve is the one compatibility rule for stored configs, used by
// recovery and import alike: the old matcher key fills in for the new
// one, a session that ran on the parallel matcher comes back on vs2 —
// the same firings, WM and time tags on one goroutine — and the
// parallel matcher's, the multi-fire act phase's and beta unlinking's
// knobs are dropped.
func (c *storedConfig) resolve() SessionConfig {
	cfg := c.SessionConfig
	if cfg.Matcher == "" {
		cfg.Matcher = c.Backend
	}
	if cfg.Matcher == "parallel" {
		cfg.Matcher = "vs2"
	}
	return cfg
}

// writeEntry creates the durable entry of a session or template:
// directory, program source, meta, and — when the entry does not start
// from empty working memory — the encoded state it starts from.
func (s *Server) writeEntry(kind wmlog.Kind, id string, cfg *SessionConfig, template string, state []byte) (string, error) {
	dir, err := s.dur.store.EntryDir(kind, id)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(wmlog.ProgramPath(dir), []byte(cfg.Program), 0o644); err != nil {
		return "", fmt.Errorf("persist program: %w", err)
	}
	meta := sessionMeta{storedConfig: storedConfig{SessionConfig: *cfg}, Template: template}
	meta.Program = ""
	if err := wmlog.WriteMeta(dir, &meta); err != nil {
		return "", fmt.Errorf("persist meta: %w", err)
	}
	if state != nil {
		if err := wmlog.InstallSnapshot(s.dur.fs, dir, state); err != nil {
			return "", fmt.Errorf("persist snapshot: %w", err)
		}
	}
	return dir, nil
}

// readEntry loads what writeEntry wrote (by this build or the one before
// it) and resolves the entry's compiled program.
func (s *Server) readEntry(kind wmlog.Kind, id string) (dir string, sp *sharedProgram, cfg SessionConfig, template string, err error) {
	if dir, err = s.dur.store.EntryDir(kind, id); err != nil {
		return
	}
	src, err := os.ReadFile(wmlog.ProgramPath(dir))
	if err != nil {
		return dir, nil, cfg, "", fmt.Errorf("read program: %w", err)
	}
	var meta sessionMeta
	if err = wmlog.ReadMeta(dir, &meta); err != nil {
		return dir, nil, cfg, "", fmt.Errorf("read meta: %w", err)
	}
	cfg = meta.resolve()
	cfg.Program = string(src)
	sp, _, err = s.sharedProg(cfg.Program)
	return dir, sp, cfg, meta.Template, err
}

// persist creates a new session's durable state — its entry plus an
// empty delta log — and installs the journal. state is the encoded
// snapshot the session starts from: nil for a cold create (its log
// journals everything from empty working memory), a template's pinned
// bytes for a fork, the payload's for an import; recovery restores it
// and replays the session's own log over it. No-op when memory-only.
func (s *Server) persist(sess *Session, state []byte) error {
	if s.dur == nil {
		return nil
	}
	dir, err := s.writeEntry(wmlog.KindSession, sess.ID, &sess.cfg, sess.template, state)
	if err != nil {
		return err
	}
	w, err := wmlog.Create(wmlog.LogPath(dir), sess.sp.hash, s.dur.policy, 0)
	if err != nil {
		return fmt.Errorf("create delta log: %w", err)
	}
	sess.dir = dir
	sess.journal = &sessionJournal{w: w, tab: sess.sp.prog.Symbols}
	sess.eng.SetJournal(sess.journal)
	return nil
}

// commitLocked is the per-batch durability point: surface any sticky
// journal error, commit the log under the sync policy, fold writer
// stats, and run the snapshot cadence. Caller holds the session mutex.
func (s *Server) commitLocked(sess *Session) error {
	j := sess.journal
	if j == nil {
		return nil
	}
	if j.err == nil {
		j.err = j.w.Commit()
	}
	if j.err != nil {
		// The on-disk log no longer tracks the in-memory session; broken
		// is the honest state. Restore rebuilds from the durable prefix.
		sess.broken = fmt.Errorf("%w: journal: %v", ErrSessionBroken, j.err)
		return sess.broken
	}
	s.foldDurLocked(sess)
	sess.batches++
	if s.dur.snapEvery == 0 || sess.batches < s.dur.snapEvery {
		return nil
	}
	sess.batches = 0
	if p := sess.compaction; p != nil {
		select {
		case <-p.done:
		default:
			s.met.compactionSkipped()
			return nil
		}
	}
	_, err := s.compactLocked(sess)
	return err
}

// foldDurLocked folds the session's writer-stats delta into /metrics.
func (s *Server) foldDurLocked(sess *Session) {
	if sess.journal == nil {
		return
	}
	cur := sess.journal.w.Stats()
	delta := cur
	delta.Sub(&sess.prevDur)
	sess.prevDur = cur
	s.met.foldWriter(&delta)
}

// compactLocked starts a compaction: capture the session's state,
// switch its log to a new segment, and hand the capture to compact on
// its own goroutine, which serializes, encodes and installs it off the
// session lock. The snapshot names the new segment as the first one
// recovery replays. Caller holds the session mutex, has committed the
// log, and has no compaction pending; the engine must be settled.
func (s *Server) compactLocked(sess *Session) (*compaction, error) {
	j := sess.journal
	job := &compaction{dir: sess.dir, state: sess.eng.Capture(), prog: sess.sp.hash, seg: j.seg + 1, done: make(chan struct{})}
	if err := j.w.Switch(s.dur.fs, wmlog.SegmentPath(sess.dir, job.seg)); err != nil {
		j.err = err
		sess.broken = fmt.Errorf("%w: journal: %v", ErrSessionBroken, err)
		return nil, sess.broken
	}
	j.seg = job.seg
	sess.compaction = job
	go s.compact(job)
	return job, nil
}

// compaction is one captured state on its way to disk. done closes once
// it is installed (st, bytes), has failed (err) or was cancelled.
type compaction struct {
	dir     string
	state   *engine.Capture
	prog    [32]byte    // program hash the snapshot pins
	seg     int         // first segment the snapshot leaves to replay
	claimed atomic.Bool // by compact starting it or by a cancel, whichever is first
	done    chan struct{}
	st      *wmlog.Snapshot
	bytes   int // encoded snapshot length
	err     error
}

// compact runs one compaction once the server's previous one is done:
// encode the captured state once, install it (the rename is the commit
// point) and unlink the segments it covers. A failed compaction loses
// nothing — the old snapshot and every segment since stay on disk — and
// the next threshold tries again.
func (s *Server) compact(job *compaction) {
	defer close(job.done)
	s.dur.lane.Lock()
	defer s.dur.lane.Unlock()
	if !job.claimed.CompareAndSwap(false, true) {
		return // cancelled while queued
	}
	start := time.Now()
	job.st = job.state.Snapshot()
	job.st.ProgHash, job.st.Segment = job.prog, job.seg
	b, err := job.st.Encode()
	if err == nil {
		err = wmlog.CommitCompaction(s.dur.fs, job.dir, b, job.seg)
	}
	if job.err = err; err != nil {
		s.met.compactionFailed()
		return
	}
	job.bytes = len(b)
	s.met.snapshotTaken(len(b), time.Since(start))
}

// cancelCompaction withdraws a queued compaction or waits out one in
// flight: afterwards it touches the entry directory no more.
func (s *Server) cancelCompaction(job *compaction) {
	if job.claimed.CompareAndSwap(false, true) {
		s.met.compactionCancelled()
		return
	}
	<-job.done
}

// SnapshotResult reports an explicit snapshot request.
type SnapshotResult struct {
	Bytes   int    `json:"bytes"`
	WMSize  int    `json:"wm_size"`
	Hash    string `json:"hash"`
	Elapsed int64  `json:"elapsed_us"`
}

// SnapshotSession snapshots one session on demand (POST
// /sessions/{id}/snapshot), compacting its delta log. It holds the
// session until the snapshot is installed.
func (s *Server) SnapshotSession(id string) (*SnapshotResult, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.broken != nil {
		return nil, sess.broken
	}
	if sess.journal == nil {
		return nil, ErrNotDurable
	}
	start := time.Now()
	if p := sess.compaction; p != nil {
		<-p.done
	}
	if err := sess.journal.w.Commit(); err != nil {
		return nil, err
	}
	job, err := s.compactLocked(sess)
	if err != nil {
		return nil, err
	}
	<-job.done
	if job.err != nil {
		return nil, job.err
	}
	sess.batches = 0
	h, err := job.st.Hash()
	if err != nil {
		return nil, err
	}
	return &SnapshotResult{
		Bytes:   job.bytes,
		WMSize:  len(job.st.Wmes),
		Hash:    fmt.Sprintf("%x", h),
		Elapsed: time.Since(start).Microseconds(),
	}, nil
}

// rebuildFromDisk reconstructs a session from its persisted state: a
// fresh core for the persisted config (program cache-shared), snapshot
// restore through the match machinery, delta-log replay, torn-tail
// truncation, and the reopened journal installed.
func (s *Server) rebuildFromDisk(id string) (sess *Session, replayed int, torn bool, err error) {
	dir, sp, cfg, template, err := s.readEntry(wmlog.KindSession, id)
	if err != nil {
		return nil, 0, false, err
	}
	c, err := sp.build(&cfg)
	if err != nil {
		return nil, 0, false, err
	}
	fail := func(e error) (*Session, int, bool, error) { return nil, 0, false, e }

	snap, err := wmlog.ReadSnapshot(wmlog.SnapshotPath(dir))
	if err != nil {
		return fail(fmt.Errorf("read snapshot: %w", err))
	}
	var first int
	var from int64
	if snap != nil {
		if snap.ProgHash != sp.hash {
			return fail(fmt.Errorf("snapshot belongs to a different program"))
		}
		if err := c.eng.RestoreState(snap); err != nil {
			return fail(fmt.Errorf("restore snapshot: %w", err))
		}
		first, from = snap.Segment, snap.LogOffset
	}
	res, err := wmlog.ReadSegments(dir, sp.hash, first, from)
	if err != nil {
		return fail(fmt.Errorf("read log: %w", err))
	}
	if err := c.eng.ReplayRecords(res.Records); err != nil {
		return fail(fmt.Errorf("replay: %w", err))
	}
	w, err := wmlog.Create(wmlog.SegmentPath(dir, res.Segment), sp.hash, s.dur.policy, res.CleanLen)
	if err != nil {
		return fail(fmt.Errorf("reopen log: %w", err))
	}
	sess = newSession(id, sp, cfg, c, template)
	sess.dir = dir
	sess.journal = &sessionJournal{w: w, seg: res.Segment, tab: sp.prog.Symbols}
	c.eng.SetJournal(sess.journal)
	return sess, len(res.Records), res.Torn, nil
}

// recoverSession rebuilds one persisted session at startup and
// registers it under its original ID.
func (s *Server) recoverSession(id string) error {
	sess, replayed, torn, err := s.rebuildFromDisk(id)
	if err != nil {
		return err
	}
	s.met.recovered(replayed, torn)
	return s.register(sess)
}

// bumpNextID advances the ID counter past a recovered entry's numeric
// suffix so new sessions never collide with recovered ones. Caller
// holds the server mutex.
func (s *Server) bumpNextID(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "s-%d", &n); err == nil && n > s.nextID {
		s.nextID = n
	}
}

// RestoreSession tears a session's live engine down and rebuilds it
// from its durable state — the last snapshot plus the clean delta-log
// prefix. It is both the rollback endpoint and the way out of a panic
// quarantine: the rebuilt core replaces the broken one whole.
func (s *Server) RestoreSession(id string) (*SessionInfo, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.journal == nil {
		return nil, ErrNotDurable
	}
	// Let an in-flight compaction land, then release the current core:
	// fold what its counters say and close the log fd so the rebuild can
	// reopen the file.
	if p := sess.compaction; p != nil {
		<-p.done
	}
	s.foldStatsLocked(sess)
	s.foldDurLocked(sess)
	sess.journal.close()

	fresh, replayed, torn, err := s.rebuildFromDisk(id)
	if err != nil {
		// The session is now unusable; keep it quarantined.
		sess.broken = fmt.Errorf("%w: restore failed: %v", ErrSessionBroken, err)
		return nil, sess.broken
	}
	sess.core, sess.journal, sess.prevDur = fresh.core, fresh.journal, fresh.prevDur
	sess.broken = nil
	sess.batches = 0
	s.met.recovered(replayed, torn)
	s.foldStatsLocked(sess)
	return sess.info(false), nil
}

// removeDurable deletes a session's or template's on-disk state when it
// is deleted through the API (recovery must not resurrect it).
func (s *Server) removeDurable(kind wmlog.Kind, id string) {
	if s.dur != nil {
		_ = s.dur.store.Remove(kind, id)
	}
}
