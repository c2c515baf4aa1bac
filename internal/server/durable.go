package server

import (
	"errors"
	"fmt"
	"os"
	"time"

	"repro/internal/symbols"
	"repro/internal/wm"
	"repro/internal/wmlog"
)

// This file wires the wmlog durability layer into the session manager:
// per-session delta logs written through the engine's journal hook,
// snapshot compaction on a batch cadence, crash recovery at startup,
// and rebuild-from-disk for the restore endpoint.

// durState is the server's durability configuration, nil when the
// daemon runs memory-only.
type durState struct {
	store     *wmlog.Store
	policy    wmlog.SyncPolicy
	snapEvery int // batches between automatic snapshot compactions; 0 = never
}

// ErrNotDurable reports a durability operation on a memory-only session
// or server.
var ErrNotDurable = errors.New("session has no durable state (server running without -data-dir)")

// sessionJournal adapts a wmlog.Writer to the engine's Journal
// interface. Append errors are sticky: the engine hooks cannot fail, so
// the first error is kept and surfaced at the batch commit point.
type sessionJournal struct {
	w   *wmlog.Writer
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
	s.dur = &durState{store: store, policy: policy, snapEvery: s.opt.SnapshotEvery}

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
// matcher's old name), procs, queues, locks, cs_shards and fire_batch —
// so an entry or payload they wrote still decodes; resolve drops them.
type storedConfig struct {
	SessionConfig
	Backend   string `json:"backend,omitempty"`
	Procs     int    `json:"procs,omitempty"`
	Queues    int    `json:"queues,omitempty"`
	Locks     string `json:"locks,omitempty"`
	CSShards  int    `json:"cs_shards,omitempty"`
	FireBatch int    `json:"fire_batch,omitempty"`
}

// resolve is the one compatibility rule for stored configs, used by
// recovery and import alike: the old matcher key fills in for the new
// one, a session that ran on the parallel matcher comes back on vs2 —
// the same firings, WM and time tags on one goroutine — and the
// parallel matcher's and the multi-fire act phase's knobs are dropped.
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
		if err := wmlog.WriteSnapshotBytes(wmlog.SnapshotPath(dir), state); err != nil {
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
	if s.dur.snapEvery > 0 && sess.batches >= s.dur.snapEvery {
		if err := s.compactLocked(sess); err != nil {
			return err
		}
	}
	return nil
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

// compactLocked snapshots the session and truncates its delta log.
// The snapshot is written twice around the truncate so every crash
// window leaves a (snapshot, log) pair that recovers to this state:
// first covering the full log (a crash before the truncate replays
// nothing past it), then covering the empty log (so subsequently
// appended records replay from the log head). Caller holds the session
// mutex; the engine must be settled.
func (s *Server) compactLocked(sess *Session) error {
	j := sess.journal
	if j == nil {
		return ErrNotDurable
	}
	if err := j.w.Commit(); err != nil {
		return err
	}
	st := sess.eng.CaptureState()
	st.ProgHash = sess.sp.hash
	st.LogOffset = j.w.Size()
	path := wmlog.SnapshotPath(sess.dir)
	if _, err := wmlog.WriteSnapshot(path, st); err != nil {
		return err
	}
	if err := j.w.Truncate(); err != nil {
		return err
	}
	st.LogOffset = int64(wmlog.HeaderSize)
	n, err := wmlog.WriteSnapshot(path, st)
	if err != nil {
		return err
	}
	sess.batches = 0
	s.met.snapshotTaken(n)
	return nil
}

// SnapshotResult reports an explicit snapshot request.
type SnapshotResult struct {
	Bytes   int    `json:"bytes"`
	WMSize  int    `json:"wm_size"`
	Hash    string `json:"hash"`
	Elapsed int64  `json:"elapsed_us"`
}

// SnapshotSession snapshots one session on demand (POST
// /sessions/{id}/snapshot), compacting its delta log.
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
	if err := s.compactLocked(sess); err != nil {
		return nil, err
	}
	st, err := wmlog.ReadSnapshot(wmlog.SnapshotPath(sess.dir))
	if err != nil {
		return nil, err
	}
	h, err := st.Hash()
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(wmlog.SnapshotPath(sess.dir))
	if err != nil {
		return nil, err
	}
	return &SnapshotResult{
		Bytes:   int(fi.Size()),
		WMSize:  sess.eng.WM.Len(),
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
	var from int64
	if snap != nil {
		if snap.ProgHash != sp.hash {
			return fail(fmt.Errorf("snapshot belongs to a different program"))
		}
		if err := c.eng.RestoreState(snap); err != nil {
			return fail(fmt.Errorf("restore snapshot: %w", err))
		}
		from = snap.LogOffset
	}
	cleanLen := int64(0)
	logPath := wmlog.LogPath(dir)
	res, err := wmlog.ReadAll(logPath, from)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No log yet (e.g. a fork persisted only its snapshot before a
		// crash): recover from the snapshot alone.
	case err != nil:
		return fail(fmt.Errorf("read log: %w", err))
	default:
		if res.ProgHash != sp.hash {
			return fail(fmt.Errorf("delta log belongs to a different program"))
		}
		if err := c.eng.ReplayRecords(res.Records); err != nil {
			return fail(fmt.Errorf("replay: %w", err))
		}
		replayed = len(res.Records)
		torn = res.Torn
		cleanLen = res.CleanLen
	}
	w, err := wmlog.Create(logPath, sp.hash, s.dur.policy, cleanLen)
	if err != nil {
		return fail(fmt.Errorf("reopen log: %w", err))
	}
	sess = newSession(id, sp, cfg, c, template)
	sess.dir = dir
	sess.journal = &sessionJournal{w: w, tab: sp.prog.Symbols}
	c.eng.SetJournal(sess.journal)
	return sess, replayed, torn, nil
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
	// Release the current core: fold what its counters say and close the
	// log fd so the rebuild can reopen the file.
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
