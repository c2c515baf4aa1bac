package server

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/wm"
	"repro/internal/wmlog"
)

// A template is a warm session held for forking: program loaded and
// compiled, base facts asserted, matcher settled, all pinned as an
// image. Every fork is a thaw of that image, so it skips the program
// parse, network compile, RHS compile and base-fact match a cold session
// pays. The template itself never runs requests and never changes after
// creation. It pins the encoded snapshot of its state, and that
// encoding's hash pins the immutability.
type template struct {
	ID      string
	Created time.Time

	cfg SessionConfig // resolved the way Session.cfg is
	sp  *sharedProgram
	dir string // durable entry dir; "" when memory-only
	img *image // re-slotted for forks when pinned, then frozen

	// state is the pinned snapshot, encoded once: every durable fork
	// starts from these bytes. sum is their SHA-256, which is the
	// snapshot's Hash, since a pin's log position is zero.
	state []byte
	sum   [32]byte
	forks atomic.Int64
}

// ErrNoTemplate reports an unknown template ID.
var ErrNoTemplate = errors.New("no such template")

// TemplateConfig creates a template: a session config plus the base
// facts to assert before the template settles.
type TemplateConfig struct {
	SessionConfig
	Asserts []WMEInput `json:"asserts,omitempty"`
}

// TemplateInfo describes a template.
type TemplateInfo struct {
	ID           string `json:"id"`
	Backend      string `json:"backend"`
	Rules        int    `json:"rules"`
	WMSize       int    `json:"wm_size"`
	SnapshotHash string `json:"snapshot_hash"`
	Forks        int64  `json:"forks"`
}

// CreateTemplate builds a warm template session: resolve the program
// (by source or by hash, as a create does), thaw its init image, assert
// the base facts, and pin the settled state in an encoded snapshot.
func (s *Server) CreateTemplate(cfg *TemplateConfig) (*TemplateInfo, error) {
	if err := checkMatcher(cfg.Matcher); err != nil {
		return nil, err
	}
	sp, _, err := s.resolveProgram(&cfg.SessionConfig)
	if err != nil {
		return nil, err
	}
	fieldsList := make([][]wm.Value, 0, len(cfg.Asserts))
	for i := range cfg.Asserts {
		fields, err := buildFields(sp.prog, &cfg.Asserts[i])
		if err != nil {
			return nil, fmt.Errorf("asserts[%d]: %w", i, err)
		}
		fieldsList = append(fieldsList, fields)
	}
	watch, err := resolveWatch(cfg.Watch, sp.prog)
	if err != nil {
		return nil, err
	}
	im, err := s.initImage(sp)
	if err != nil {
		return nil, err
	}
	c, _ := im.thaw(watch)
	// The base facts run engine code on caller input; quarantine panics
	// the same way session requests do.
	err = s.quarantined(func() error {
		_, err := c.eng.AssertBatch(fieldsList)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("base facts: %w", err)
	}
	st := c.eng.CaptureState()
	st.ProgHash = sp.hash
	state, err := st.Encode()
	if err != nil {
		return nil, err
	}
	tpl, err := s.pinTemplate("", sp, cfg.SessionConfig, c, state)
	if err != nil {
		return nil, err
	}
	if s.dur != nil {
		// Templates have no delta log — they never change.
		tpl.dir, err = s.writeEntry(wmlog.KindTemplate, tpl.ID, &tpl.cfg, "", state)
		if err != nil {
			s.dropTemplate(tpl.ID)
			return nil, err
		}
	}
	return s.templateInfo(tpl), nil
}

// pinTemplate registers a settled core as a template under id (empty =
// the next t-NNNNNN), pinned to state, the core's encoded snapshot. The
// core becomes the template's image.
func (s *Server) pinTemplate(id string, sp *sharedProgram, cfg SessionConfig, c *core, state []byte) (*template, error) {
	cfg.ID, cfg.ProgramHash, cfg.Program, cfg.Matcher = "", "", sp.src, servedMatcher
	tpl := &template{ID: id, Created: time.Now(), cfg: cfg, sp: sp, img: freeze(c), state: state, sum: sha256.Sum256(state)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	var n uint64
	if id == "" {
		s.nextTpl++
		tpl.ID = fmt.Sprintf("t-%06d", s.nextTpl)
	} else if _, err := fmt.Sscanf(id, "t-%d", &n); err == nil && n > s.nextTpl {
		s.nextTpl = n
	}
	s.templates[tpl.ID] = tpl
	sp.refs++
	s.mu.Unlock()
	s.met.templateCreated()
	return tpl, nil
}

// recoverTemplate rebuilds one persisted template at startup: the
// snapshot restores through a fresh core, re-warming it for forks, and
// the template pins the bytes read from disk.
func (s *Server) recoverTemplate(id string) error {
	dir, sp, cfg, _, err := s.readEntry(wmlog.KindTemplate, id)
	if err != nil {
		return err
	}
	state, err := os.ReadFile(wmlog.SnapshotPath(dir))
	if err != nil {
		return fmt.Errorf("read snapshot: %w", err)
	}
	st, err := wmlog.DecodeSnapshot(state)
	if err != nil {
		return err
	}
	c, err := sp.restore(&cfg, st, nil)
	if err != nil {
		return err
	}
	tpl, err := s.pinTemplate(id, sp, cfg, c, state)
	if err != nil {
		return err
	}
	tpl.dir = dir
	return nil
}

func (s *Server) templateInfo(tpl *template) *TemplateInfo {
	return &TemplateInfo{
		ID:           tpl.ID,
		Backend:      servedMatcher,
		Rules:        len(tpl.img.eng.Net.Rules),
		WMSize:       tpl.img.eng.WM.Len(),
		SnapshotHash: fmt.Sprintf("%x", tpl.sum),
		Forks:        tpl.forks.Load(),
	}
}

// Templates lists the server's warm templates.
func (s *Server) Templates() []*TemplateInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*TemplateInfo, 0, len(s.templates))
	for _, tpl := range s.templates {
		out = append(out, s.templateInfo(tpl))
	}
	return out
}

// dropTemplate unregisters a template.
func (s *Server) dropTemplate(id string) *template {
	s.mu.Lock()
	tpl, ok := s.templates[id]
	if ok {
		delete(s.templates, id)
		tpl.sp.refs--
	}
	s.mu.Unlock()
	if !ok {
		return nil
	}
	s.met.templateClosed()
	return tpl
}

// DeleteTemplate removes a template and its durable state. Sessions
// already forked from it are unaffected — they own their own state.
func (s *Server) DeleteTemplate(id string) error {
	if tpl := s.dropTemplate(id); tpl == nil {
		return fmt.Errorf("%w: %q", ErrNoTemplate, id)
	}
	s.removeDurable(wmlog.KindTemplate, id)
	return nil
}

// ForkResult describes a session created from a template.
type ForkResult struct {
	SessionInfo
	SpawnUs int64 `json:"spawn_us"`
}

// Fork starts a new session from a template by thawing its image
// (startFrom, the same path a create takes from its program's init
// image): working memory and conflict set are copied, sharing every
// immutable WME with the template, the token table is thawed from its
// frozen words, and parse, compile, RHS compile and matching are skipped
// entirely. The image is only read, so forks of one template run
// concurrently and never change it.
func (s *Server) Fork(templateID string) (*ForkResult, error) {
	start := time.Now()
	id, err := s.reserveID("")
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	tpl := s.templates[templateID]
	s.mu.RUnlock()
	if tpl == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoTemplate, templateID)
	}

	tpl.forks.Add(1)

	// A durable fork starts from the template's pinned snapshot bytes (one
	// encoding shared across forks) and diverges through its own log.
	sess, err := s.startFrom(id, tpl.sp, tpl.cfg, tpl.img, tpl.ID, tpl.state)
	if err != nil {
		return nil, err
	}
	s.met.forked()
	return &ForkResult{SessionInfo: *sess.info(true), SpawnUs: time.Since(start).Microseconds()}, nil
}
