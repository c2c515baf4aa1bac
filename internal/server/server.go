// Package server hosts many concurrent OPS5 engine sessions behind one
// process — the inference-server layer over the PSM-E engine. The
// session is the grain of concurrency: each owns a working memory, a
// conflict set and a sequential matcher (vs2 or vs1) and runs one
// request at a time on one goroutine, while different sessions run in
// parallel and all sessions created from the same program source share
// one compiled Rete network read-only, the way the paper's k match
// processes share theirs. Requests are executed by a fixed worker pool,
// WM changes are batched into a single match phase per request,
// per-request cycle/time budgets ride on the engine's RunHook, and a
// panicking session is quarantined instead of taking the daemon down.
// cmd/ops5d exposes the HTTP/JSON API.
package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/rhs"
	"repro/internal/seqmatch"
	"repro/internal/stats"
	"repro/internal/wm"
	"repro/internal/wmlog"
)

// Options size the server.
type Options struct {
	// MaxSessions caps live sessions (default 256).
	MaxSessions int
	// Workers sizes the request worker pool (default 2×CPU, min 4).
	Workers int
	// DefaultMaxCycles bounds recognize-act cycles per request when the
	// request doesn't say (default 10000; <0 = unlimited).
	DefaultMaxCycles int
	// DefaultTimeout bounds wall-clock per request run (default 5s).
	DefaultTimeout time.Duration
	// MaxBatch caps WM changes per request (default 4096).
	MaxBatch int
	// DataDir, when set, enables the durability layer: per-session WM
	// delta logs, snapshots and templates persisted under this directory
	// and recovered by EnableDurability on restart.
	DataDir string
	// Durability selects the log sync policy: "none", "commit" (fsync
	// once per batch, the default when a DataDir is set) or "always".
	Durability string
	// SnapshotEvery compacts a session's delta log into a snapshot after
	// this many batches (0 = only on explicit snapshot requests).
	SnapshotEvery int
}

func (o *Options) fill() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 256
	}
	if o.DefaultMaxCycles == 0 {
		o.DefaultMaxCycles = 10000
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Second
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4096
	}
	if o.DataDir != "" && o.Durability == "" {
		o.Durability = "commit"
	}
}

// Server is the session manager. Create one with New, serve its
// Handler, and Close it when done.
type Server struct {
	opt  Options
	pool *pool

	mu        sync.RWMutex
	sessions  map[string]*Session
	programs  map[[sha256.Size]byte]*sharedProgram
	compiling map[[sha256.Size]byte]*progCompile // in-flight compiles, by source hash
	templates map[string]*template
	// reserved holds caller-requested session IDs between the uniqueness
	// check and registration, so two concurrent creates (or imports) of
	// the same ID cannot both win.
	reserved map[string]struct{}
	nextID   uint64
	nextTpl  uint64
	closed   bool
	// bootID identifies this server process instance (new on every New);
	// /healthz reports it so a routing proxy can tell a restart — and a
	// stale program-cache view — from a healthy backend.
	bootID string

	// dur is the durability layer, nil when running memory-only. Set
	// once by EnableDurability before serving, then read-only.
	dur *durState

	met metrics
}

// sharedProgram is one compiled program, shared read-only by every
// session created from byte-identical source. RHS compilation may
// lazily extend the class tables of an undeclared-attribute program, so
// it happens here, once, before the program is published and frozen —
// sessions of one program build concurrently.
type sharedProgram struct {
	src  string            // the exact source the hash covers
	hash [sha256.Size]byte // SHA-256 of src: registry key, pins logs and snapshots
	prog *ops5.Program
	net  *rete.Network   // compiled with the cost-based join planner
	rhs  []*rhs.Compiled // every rule's right-hand side, by rule ID
	refs int             // live sessions, for the sessions listing
}

// core is one engine and everything bound to it: the matcher (which
// owns the token memories), the conflict set and input queue (eng.CS,
// eng.IO), the resolved trace level, and the counters already folded
// into the server metrics. A session or template holds exactly one;
// restore replaces it whole. build is its only constructor, the
// template fork (Fork) its only copier.
type core struct {
	eng     *engine.Engine
	matcher *seqmatch.Matcher
	Backend string // resolved matcher name: vs2 or vs1
	// watch is the resolved trace level (0..2): SessionConfig.Watch
	// merged with the program's (watch ...) declaration.
	watch int
	// prev* are the counters already folded into server metrics: match,
	// conflict set, runtime build/excise and token-table memory. Gauge
	// fields fold correctly as deltas too: the sum of per-session net
	// changes is the current total.
	prev      stats.Match
	prevConf  stats.Conflict
	prevEpoch stats.Epoch
	prevMem   stats.Memory
}

// build turns a compiled program and a session config into a fresh
// per-engine core on empty working memory. What the caller does next is
// the lifecycle operation: Init (create, template), RestoreState
// (import, template recovery), RestoreState and ReplayRecords (crash
// recovery, restore).
func (sp *sharedProgram) build(cfg *SessionConfig) (*core, error) {
	watch, err := resolveWatch(cfg.Watch, sp.prog)
	if err != nil {
		return nil, err
	}
	cs := conflict.NewSet()
	m, name, err := newMatcher(sp.net, cfg, cs)
	if err != nil {
		return nil, err
	}
	eng, err := engine.NewWithRHS(sp.prog, sp.net, sp.rhs, cs, m, nil)
	if err != nil {
		return nil, err
	}
	// Hosted sessions read (accept) input from a per-session queue the
	// batch API fills; an empty queue suspends the run (awaiting_input)
	// instead of fabricating end-of-file. Installed before any restore or
	// replay: snapshot Pending and accept records go through it.
	eng.IO = engine.NewQueueIO(sp.prog.Symbols, false)
	return &core{eng: eng, matcher: m, Backend: name, watch: watch}, nil
}

// Session is one hosted engine. Its mutex serializes requests: a
// session processes one batch at a time, while different sessions run
// in parallel on the worker pool.
type Session struct {
	ID      string
	Created time.Time

	sp *sharedProgram
	mu sync.Mutex
	*core
	broken error // set when a panic quarantined the session

	// cfg is the session's resolved configuration (Program holds the
	// full source, Matcher the resolved backend, ProgramHash/ID cleared):
	// what meta.json persists and export serializes, so recovery and a
	// migration target build the same core.
	cfg      SessionConfig
	template string // template this session was forked from

	// Durable state, zero-valued when the server runs memory-only.
	dir        string            // entry directory under the data dir
	journal    *sessionJournal   // engine journal over the delta log
	batches    int               // batches since the last snapshot
	prevDur    wmlog.WriterStats // writer counters already folded
	compaction *compaction       // the last one handed off, nil if none
}

// newSession wraps a built core as a session, resolving cfg into the
// form that is persisted and exported.
func newSession(id string, sp *sharedProgram, cfg SessionConfig, c *core, template string) *Session {
	cfg.ID, cfg.ProgramHash, cfg.Program, cfg.Matcher = "", "", sp.src, c.Backend
	return &Session{ID: id, Created: time.Now(), sp: sp, core: c, cfg: cfg, template: template}
}

// info describes the session; shared is SessionInfo.SharedNet. The
// caller holds the session mutex or has not published the session yet.
func (sess *Session) info(shared bool) *SessionInfo {
	return &SessionInfo{
		ID:      sess.ID,
		Backend: sess.Backend,
		// The session's network may have diverged from the shared base
		// epoch through runtime build/excise; report its own view.
		Rules:     len(sess.eng.Net.Rules),
		Epoch:     sess.eng.Epoch(),
		SharedNet: shared,
		WMSize:    sess.eng.WM.Len(),
		Halted:    sess.eng.Halted(),
		Template:  sess.template,
	}
}

// New builds a server and starts its worker pool.
func New(opt Options) *Server {
	opt.fill()
	s := &Server{
		opt:       opt,
		sessions:  make(map[string]*Session),
		programs:  make(map[[sha256.Size]byte]*sharedProgram),
		compiling: make(map[[sha256.Size]byte]*progCompile),
		templates: make(map[string]*template),
		reserved:  make(map[string]struct{}),
		bootID:    newBootID(),
	}
	s.pool = newPool(opt.Workers)
	s.met.init()
	return s
}

// Close drains the worker pool and tears down every session. Safe to
// call once; new requests fail afterwards.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		live = append(live, sess)
	}
	s.sessions = map[string]*Session{}
	tpls := len(s.templates)
	s.templates = map[string]*template{}
	s.mu.Unlock()

	s.pool.close()
	for _, sess := range live {
		s.teardown(sess)
	}
	for range tpls {
		s.met.templateClosed()
	}
}

// SessionConfig creates a session.
type SessionConfig struct {
	// Program is OPS5 source. Byte-identical sources share one compiled
	// network.
	Program string `json:"program"`
	// ProgramHash creates the session from an already-registered program
	// (POST /programs) by its hex SHA-256 instead of resending source —
	// the content-addressed fast path a routing proxy uses. Exactly one
	// of Program and ProgramHash must be set. An unknown hash fails with
	// ErrNoProgram (HTTP 424): register the program first.
	ProgramHash string `json:"program_hash,omitempty"`
	// ID requests a specific session ID (proxy-assigned routing keys,
	// migration imports). Empty lets the server pick. A taken ID fails
	// with ErrSessionExists.
	ID string `json:"id,omitempty"`
	// Matcher picks the sequential matcher: "vs2" (default, global token
	// hash tables) or "vs1" (per-node list memories).
	Matcher string `json:"matcher"`
	// HashLines sizes the token hash tables (0 = default).
	HashLines int `json:"hash_lines"`
	// MatchBudget > 0 caps the opposite-memory candidates any one rule's
	// joins may examine in a single cycle. A rule over budget is excised
	// from this session's network (quarantining the rule, not the
	// process) and counted in the epoch budget_trips metric. 0 disables.
	MatchBudget int64 `json:"match_budget"`
	// Watch sets the session's trace level, mirroring OPS5 (watch N):
	// 0 defers to the program's own (watch ...) declaration (silent when
	// it has none), 1 traces firings, 2 adds WM changes, and -1 forces
	// silence even when the program asks for tracing. Per-batch trace
	// text comes back in BatchResult.Output.
	Watch int `json:"watch"`
}

// SessionInfo describes a created session.
type SessionInfo struct {
	ID        string `json:"id"`
	Backend   string `json:"backend"`
	Rules     int    `json:"rules"`
	Epoch     int    `json:"epoch"`      // network version; >0 once runtime build/excise ran
	SharedNet bool   `json:"shared_net"` // create: network was cache-hit; listing: other live sessions share it
	WMSize    int    `json:"wm_size"`    // after the program's top-level makes
	Halted    bool   `json:"halted"`
	Template  string `json:"template,omitempty"` // template this session was forked from
}

// Errors the HTTP layer maps to status codes.
var (
	ErrClosed          = errors.New("server closed")
	ErrNoSession       = errors.New("no such session")
	ErrTooManySessions = errors.New("session limit reached")
	ErrSessionBroken   = errors.New("session quarantined after panic")
	ErrBatchTooLarge   = errors.New("batch exceeds limit")
	// ErrNoProgram reports a create-by-hash against an unregistered
	// program (HTTP 424: register via POST /programs, then retry).
	ErrNoProgram = errors.New("no such program")
	// ErrSessionExists reports a requested session ID that is already
	// live (HTTP 409).
	ErrSessionExists = errors.New("session ID already exists")
)

// progCompile is one in-flight compile of a program source. Creates of
// the same source that arrive while it runs wait on done and share its
// result, so a program is compiled at most once per process however
// many sessions race to create it.
type progCompile struct {
	done chan struct{}
	sp   *sharedProgram
	err  error
}

// sharedProg resolves program source to the cached compiled program,
// parsing and compiling on a miss. shared reports that this call did
// not compile: a cache hit, or a wait on another caller's compile.
func (s *Server) sharedProg(src string) (sp *sharedProgram, shared bool, err error) {
	hash := sha256.Sum256([]byte(src))
	s.mu.Lock()
	if sp = s.programs[hash]; sp != nil {
		s.mu.Unlock()
		return sp, true, nil
	}
	if c := s.compiling[hash]; c != nil {
		s.mu.Unlock()
		<-c.done
		return c.sp, c.err == nil, c.err
	}
	c := &progCompile{done: make(chan struct{})}
	s.compiling[hash] = c
	s.mu.Unlock()

	// Publish and release the waiters on every exit, a parser panic
	// included (waiters then see the error, not a hang).
	c.err = errors.New("program compile aborted")
	defer func() {
		s.mu.Lock()
		delete(s.compiling, hash)
		if c.err == nil {
			s.programs[hash] = c.sp
		}
		s.mu.Unlock()
		close(c.done)
	}()
	c.sp, c.err = compileProgram(src, hash)
	if c.err != nil {
		return nil, false, c.err
	}
	s.met.programCompiled()
	return c.sp, false, nil
}

// compileProgram parses src and compiles its network and right-hand
// sides; the program is frozen from here on.
func compileProgram(src string, hash [sha256.Size]byte) (*sharedProgram, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	net, err := rete.CompileWithPlan(prog, rete.PlanConfig{Reorder: true})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	compiled, err := engine.CompileRHS(prog, net)
	if err != nil {
		return nil, fmt.Errorf("rhs compile: %w", err)
	}
	return &sharedProgram{src: src, hash: hash, prog: prog, net: net, rhs: compiled}, nil
}

// resolveProgram maps a session config onto its compiled program:
// either by hash against the content-addressed registry (the cluster
// fast path — no source transfer, no compile) or by source, compiling
// on a miss.
func (s *Server) resolveProgram(cfg *SessionConfig) (sp *sharedProgram, shared bool, err error) {
	switch {
	case cfg.Program == "" && cfg.ProgramHash == "":
		return nil, false, errors.New("missing program source (or program_hash of a registered program)")
	case cfg.Program != "" && cfg.ProgramHash != "":
		return nil, false, errors.New("program and program_hash are mutually exclusive")
	case cfg.ProgramHash != "":
		sp, err = s.programByHash(cfg.ProgramHash)
		shared = true
	default:
		sp, shared, err = s.sharedProg(cfg.Program)
	}
	if err == nil && shared {
		s.met.programHit()
	}
	return sp, shared, err
}

// reserveID allocates the session's ID: the requested one (held in the
// reservation set until the create resolves, so concurrent creates of
// one ID cannot both win) or the next generated s-NNNNNN. It also
// enforces the session cap.
func (s *Server) reserveID(want string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", ErrClosed
	}
	if len(s.sessions) >= s.opt.MaxSessions {
		return "", fmt.Errorf("%w (%d)", ErrTooManySessions, s.opt.MaxSessions)
	}
	if want == "" {
		s.nextID++
		return fmt.Sprintf("s-%06d", s.nextID), nil
	}
	if strings.ContainsAny(want, "/\\ \t\n") {
		return "", fmt.Errorf("bad session ID %q (no slashes or whitespace)", want)
	}
	if _, live := s.sessions[want]; live {
		return "", fmt.Errorf("%w: %q", ErrSessionExists, want)
	}
	if _, pending := s.reserved[want]; pending {
		return "", fmt.Errorf("%w: %q (create in flight)", ErrSessionExists, want)
	}
	s.reserved[want] = struct{}{}
	return want, nil
}

// unreserveID releases a requested-ID reservation (no-op for generated
// IDs). Called once the create has either registered the session or
// failed.
func (s *Server) unreserveID(want string) {
	if want == "" {
		return
	}
	s.mu.Lock()
	delete(s.reserved, want)
	s.mu.Unlock()
}

// register publishes a fully built session under its ID and folds the
// counters its construction ran up.
func (s *Server) register(sess *Session) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.sessions[sess.ID] = sess
	sess.sp.refs++
	s.bumpNextID(sess.ID)
	s.mu.Unlock()
	s.met.sessionCreated()
	s.foldStats(sess)
	return nil
}

// admit makes a built session live: durable state first (state is the
// encoded snapshot the session starts from, nil for empty working
// memory), then init — a cold create's top-level makes, run under the
// panic quarantine and journaled from the log's first record — then
// registration. A session that fails any step is released whole: log
// fd and whatever durable state it had written.
func (s *Server) admit(sess *Session, state []byte, init func() error) (err error) {
	defer func() {
		if err != nil {
			sess.journal.close()
			s.removeDurable(wmlog.KindSession, sess.ID)
		}
	}()
	if err := s.persist(sess, state); err != nil {
		return err
	}
	if init != nil {
		if err := s.guard(sess, init); err != nil {
			return fmt.Errorf("init: %w", err)
		}
		if sess.journal != nil {
			if err := sess.journal.w.Commit(); err != nil {
				return fmt.Errorf("commit init log: %w", err)
			}
		}
	}
	return s.register(sess)
}

// CreateSession compiles (or reuses) the program, builds the core, runs
// the program's top-level makes on the caller's goroutine, and registers
// the session. With durability enabled the delta log exists before the
// first journaled change: the log records everything from empty working
// memory, top-level makes included.
func (s *Server) CreateSession(cfg SessionConfig) (*SessionInfo, error) {
	id, err := s.reserveID(cfg.ID)
	if err != nil {
		return nil, err
	}
	defer s.unreserveID(cfg.ID)

	sp, shared, err := s.resolveProgram(&cfg)
	if err != nil {
		return nil, err
	}
	c, err := sp.build(&cfg)
	if err != nil {
		return nil, err
	}
	sess := newSession(id, sp, cfg, c, "")
	if err := s.admit(sess, nil, sess.eng.Init); err != nil {
		return nil, err
	}
	return sess.info(shared), nil
}

// newBootID draws a random process-instance identifier for /healthz.
func newBootID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// resolveWatch merges the session watch knob with the program's own
// (watch ...) declaration: 0 defers to the program, -1 forces silence,
// 1 and 2 are explicit levels.
func resolveWatch(cfgWatch int, prog *ops5.Program) (int, error) {
	switch {
	case cfgWatch < -1 || cfgWatch > 2:
		return 0, fmt.Errorf("watch level %d out of range (want -1, 0, 1 or 2)", cfgWatch)
	case cfgWatch == -1:
		return 0, nil
	case cfgWatch > 0:
		return cfgWatch, nil
	default:
		if prog.Watch > 0 {
			return prog.Watch, nil
		}
		return 0, nil
	}
}

// newMatcher constructs the sequential matcher a session config asks
// for.
func newMatcher(net *rete.Network, cfg *SessionConfig, cs *conflict.Set) (*seqmatch.Matcher, string, error) {
	v, name := seqmatch.VS2, "vs2"
	switch cfg.Matcher {
	case "", "vs2":
	case "vs1":
		v, name = seqmatch.VS1, "vs1"
	default:
		return nil, "", fmt.Errorf("unknown matcher %q (want vs2 or vs1)", cfg.Matcher)
	}
	return seqmatch.New(net, v, cfg.HashLines, cs), name, nil
}

// session looks a live session up.
func (s *Server) session(id string) (*Session, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	sess, ok := s.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	return sess, nil
}

// DeleteSession removes and tears down a session.
func (s *Server) DeleteSession(id string) error {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
		sess.sp.refs--
	}
	closed := s.closed
	s.mu.Unlock()
	if !ok {
		if closed {
			return ErrClosed
		}
		return fmt.Errorf("%w: %q", ErrNoSession, id)
	}
	s.teardown(sess)
	s.removeDurable(wmlog.KindSession, id)
	return nil
}

// teardown cancels or waits out the session's compaction, folds its
// final counters, and flushes and closes its delta log (the SIGTERM
// drain path runs through here). Once it returns nothing writes to the
// session's entry directory, so a delete can remove it for good.
func (s *Server) teardown(sess *Session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.compaction != nil {
		s.cancelCompaction(sess.compaction)
	}
	s.foldStatsLocked(sess)
	s.foldDurLocked(sess)
	sess.journal.close()
	s.met.sessionClosed()
}

// guard runs fn under the per-session panic quarantine: a panic marks
// the session broken and comes back as an error instead of unwinding
// into the daemon. The caller must hold no session lock conventions
// beyond "one guard at a time per session" (the session mutex).
func (s *Server) guard(sess *Session, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrSessionBroken, p)
			sess.broken = err
			// Release the delta-log fd: a quarantined session must not pin
			// it, and closing flushes whole frames only, so the log stays
			// cleanly truncatable for restore or the next recovery.
			sess.journal.close()
			s.met.panicked()
		}
	}()
	if sess.broken != nil {
		return sess.broken
	}
	return fn()
}

// foldStats folds the matcher counters accumulated since the last fold
// into the server-wide match totals.
func (s *Server) foldStats(sess *Session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.foldStatsLocked(sess)
}

func (s *Server) foldStatsLocked(sess *Session) {
	cur := sess.matcher.MatchStats()
	delta := cur
	delta.Sub(&sess.prev)
	sess.prev = cur
	s.met.foldMatch(&delta)
	fcur := sess.eng.CS.StatsSnapshot()
	fdelta := fcur
	fdelta.Sub(&sess.prevConf)
	sess.prevConf = fcur
	s.met.foldConflict(&fdelta)
	ecur := sess.eng.EpochStats()
	edelta := ecur
	edelta.Sub(&sess.prevEpoch)
	sess.prevEpoch = ecur
	s.met.foldEpoch(&edelta)
	mcur := sess.matcher.MemStats()
	mdelta := mcur
	mdelta.Sub(&sess.prevMem)
	sess.prevMem = mcur
	s.met.foldMemory(&mdelta)
}

// WMEInput is one element to assert: a class name and attribute values
// (JSON strings become OPS5 symbols, numbers become integers or floats).
type WMEInput struct {
	Class string         `json:"class"`
	Attrs map[string]any `json:"attrs"`
}

// WMEOut is one element reported back.
type WMEOut struct {
	TimeTag int    `json:"timetag"`
	Text    string `json:"text"`
}

// BatchRequest is the body of POST /sessions/{id}/assert and /retract.
// Asserts and retracts in one request form one batch: all retracts,
// then all asserts, are submitted to the matcher in a single match
// phase each, then the recognize-act cycle runs under the budgets.
type BatchRequest struct {
	Asserts  []WMEInput `json:"asserts,omitempty"`
	Retracts []int      `json:"retracts,omitempty"`
	// Accepts queues values for the session's (accept)/(acceptline)
	// input before the run: strings become symbols, numbers become
	// integers or floats. A session suspended awaiting_input resumes
	// exactly where it stopped once enough values arrive.
	Accepts []any `json:"accepts,omitempty"`
	// MaxCycles overrides the server default for this request
	// (<0 = unlimited).
	MaxCycles int `json:"max_cycles,omitempty"`
	// TimeoutMs overrides the server's per-request run budget.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoFirings suppresses the firing log in the response.
	NoFirings bool `json:"no_firings,omitempty"`
}

// FiringOut is one production firing.
type FiringOut struct {
	Cycle    int    `json:"cycle"`
	Rule     string `json:"rule"`
	TimeTags []int  `json:"timetags"`
}

// BatchResult is the response body for assert/retract requests.
type BatchResult struct {
	Firings   []FiringOut `json:"firings"`
	Cycles    int         `json:"cycles"`
	Halted    bool        `json:"halted"`
	LimitHit  bool        `json:"limit_hit"`
	WMAdded   []WMEOut    `json:"wm_added"`
	WMRemoved []int       `json:"wm_removed"`
	WMSize    int         `json:"wm_size"`
	ElapsedUs int64       `json:"elapsed_us"`
	// Quarantined lists rules excised from this session by the match
	// budget, oldest first (cumulative over the session's lifetime).
	Quarantined []string `json:"quarantined,omitempty"`
	// AwaitingInput reports that the run suspended because the dominant
	// instantiation executes (accept)/(acceptline) and the session's
	// input queue holds too few values. Supply more via Accepts on the
	// next batch to resume.
	AwaitingInput bool `json:"awaiting_input"`
	// Output is the text the program wrote during this batch — (write ...)
	// actions plus watch tracing at the session's watch level.
	Output string `json:"output,omitempty"`
}

// Batch executes one assert/retract batch on a session. It is the
// synchronous core; the HTTP layer schedules it on the worker pool.
func (s *Server) Batch(id string, req *BatchRequest) (*BatchResult, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	if n := len(req.Asserts) + len(req.Retracts); n > s.opt.MaxBatch {
		return nil, fmt.Errorf("%w: %d > %d", ErrBatchTooLarge, n, s.opt.MaxBatch)
	}

	// Resolve inputs to field vectors before taking the session lock:
	// pure read-only lookups against the shared program.
	fieldsList := make([][]wm.Value, 0, len(req.Asserts))
	for i := range req.Asserts {
		fields, err := buildFields(sess.sp.prog, &req.Asserts[i])
		if err != nil {
			return nil, fmt.Errorf("asserts[%d]: %w", i, err)
		}
		fieldsList = append(fieldsList, fields)
	}
	acceptVals := make([]wm.Value, 0, len(req.Accepts))
	for i, raw := range req.Accepts {
		v, err := toValue(sess.sp.prog, raw)
		if err != nil {
			return nil, fmt.Errorf("accepts[%d]: %w", i, err)
		}
		acceptVals = append(acceptVals, v)
	}

	maxCycles := req.MaxCycles
	if maxCycles == 0 {
		maxCycles = s.opt.DefaultMaxCycles
	}
	timeout := s.opt.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()

	res := &BatchResult{Firings: []FiringOut{}, WMAdded: []WMEOut{}, WMRemoved: []int{}}
	start := time.Now()
	deadline := start.Add(timeout)
	limitHit := false

	var outBuf strings.Builder
	err = s.guard(sess, func() error {
		prog := sess.sp.prog
		sess.eng.WMListener = func(sign bool, w *wm.WME) {
			if sign {
				res.WMAdded = append(res.WMAdded, WMEOut{
					TimeTag: w.TimeTag,
					Text:    w.String(prog.Symbols, prog.AttrName),
				})
			} else {
				res.WMRemoved = append(res.WMRemoved, w.TimeTag)
			}
		}
		sess.eng.Out = &outBuf
		defer func() {
			sess.eng.WMListener = nil
			sess.eng.Out = nil
		}()

		if len(acceptVals) > 0 {
			if err := sess.eng.SupplyInput(acceptVals); err != nil {
				return err
			}
		}
		if _, err := sess.eng.RetractBatch(req.Retracts); err != nil {
			return err
		}
		if _, err := sess.eng.AssertBatch(fieldsList); err != nil {
			return err
		}
		run, err := sess.eng.Run(engine.Options{
			RecordFiring: !req.NoFirings,
			MatchBudget:  sess.cfg.MatchBudget,
			TraceFires:   sess.watch >= 1,
			TraceWMEs:    sess.watch >= 2,
			Hook:         engine.LimitHook(maxCycles, deadline),
		})
		if run != nil {
			res.Cycles = run.Cycles
			res.Halted = run.Halted
			res.AwaitingInput = run.AwaitingInput
			for _, f := range run.Firings {
				res.Firings = append(res.Firings, FiringOut{Cycle: f.Cycle, Rule: f.Rule, TimeTags: f.TimeTags})
			}
		}
		if err != nil {
			if errors.Is(err, engine.ErrLimit) {
				limitHit = true
				return nil
			}
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.LimitHit = limitHit
	res.Output = outBuf.String()
	res.WMSize = sess.eng.WM.Len()
	res.Halted = sess.eng.Halted()
	for _, q := range sess.eng.Quarantined() {
		res.Quarantined = append(res.Quarantined, q.Rule)
	}
	res.ElapsedUs = time.Since(start).Microseconds()

	s.foldStatsLocked(sess)
	if err := s.commitLocked(sess); err != nil {
		return nil, err
	}
	s.met.batchDone(len(req.Asserts), len(req.Retracts), res, time.Since(start))
	return res, nil
}

// WMSnapshot returns the session's live working memory.
func (s *Server) WMSnapshot(id string) ([]WMEOut, error) {
	sess, err := s.session(id)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	prog := sess.sp.prog
	out := make([]WMEOut, 0, sess.eng.WM.Len())
	for _, w := range sess.eng.WM.Snapshot() {
		out = append(out, WMEOut{TimeTag: w.TimeTag, Text: w.String(prog.Symbols, prog.AttrName)})
	}
	return out, nil
}

// Sessions lists live sessions.
func (s *Server) Sessions() []SessionInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sess.mu.Lock()
		out = append(out, *sess.info(sess.sp.refs > 1))
		sess.mu.Unlock()
	}
	return out
}

// buildFields resolves a WMEInput into a field vector with read-only
// lookups: unknown classes and attributes are rejected rather than
// auto-declared, because the program is shared across sessions and must
// not be mutated at run time (see rete.Network).
func buildFields(prog *ops5.Program, in *WMEInput) ([]wm.Value, error) {
	classID, ok := prog.Symbols.Lookup(in.Class)
	if !ok {
		return nil, fmt.Errorf("unknown class %q", in.Class)
	}
	class, ok := prog.Classes[classID]
	if !ok {
		return nil, fmt.Errorf("unknown class %q", in.Class)
	}
	fields := make([]wm.Value, class.NumFields())
	fields[0] = wm.Sym(classID)
	for attr, val := range in.Attrs {
		attrID, ok := prog.Symbols.Lookup(attr)
		if !ok {
			return nil, fmt.Errorf("class %s has no attribute %q", in.Class, attr)
		}
		idx, ok := class.Fields[attrID]
		if !ok {
			return nil, fmt.Errorf("class %s has no attribute %q", in.Class, attr)
		}
		if arr, ok := val.([]any); ok {
			// A JSON array fills the class's vector attribute: element i
			// lands in field idx+i, growing the WME past NumFields.
			if class.VectorField == 0 || idx != class.VectorField {
				return nil, fmt.Errorf("attribute %q of class %s is not a vector attribute", attr, in.Class)
			}
			for end := idx + len(arr); len(fields) < end; {
				fields = append(fields, wm.Nil)
			}
			for i, elem := range arr {
				v, err := toValue(prog, elem)
				if err != nil {
					return nil, fmt.Errorf("attribute %q[%d]: %w", attr, i, err)
				}
				fields[idx+i] = v
			}
			continue
		}
		v, err := toValue(prog, val)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %w", attr, err)
		}
		fields[idx] = v
	}
	return fields, nil
}

// toValue converts a decoded JSON value to an OPS5 value. Interning a
// new symbol is safe: the symbol table is internally synchronized.
func toValue(prog *ops5.Program, val any) (wm.Value, error) {
	switch x := val.(type) {
	case string:
		return wm.Sym(prog.Symbols.Intern(x)), nil
	case float64:
		if x == float64(int64(x)) {
			return wm.Int(int64(x)), nil
		}
		return wm.Float(x), nil
	case int:
		return wm.Int(int64(x)), nil
	case int64:
		return wm.Int(x), nil
	case bool, nil:
		return wm.Nil, fmt.Errorf("unsupported value %v (want string or number)", x)
	default:
		return wm.Nil, fmt.Errorf("unsupported value type %T", val)
	}
}
