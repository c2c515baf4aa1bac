package server

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/seqmatch"
)

// An image is a settled engine state held for copying: the working
// memory, conflict set, halted flag and runtime program changes of an
// engine that never runs again, and its matcher frozen
// (seqmatch.Image) — the live token table is dropped, so an image costs
// what its table holds, not the table's line array. Every session starts
// as a thaw of one: a create thaws its program's init image (the state
// right after Init), a fork its template's. Thawing only reads the
// image, so any number of sessions may start from it at once.
type image struct {
	eng     *engine.Engine
	matcher *seqmatch.Image
	backend string
}

// freeze turns a settled core into an image. The core is spent: its
// engine is the image's now.
func freeze(c *core) *image {
	im := &image{eng: c.eng, matcher: c.matcher.Freeze(), backend: c.Backend}
	c.eng.Matcher = nil
	return im
}

// thaw builds a new core from the image at trace level watch. Parse,
// compile, RHS compile and matching are all skipped: the conflict set
// and working memory are copied (sharing every immutable WME), the
// token table is thawed.
func (im *image) thaw(watch int) *core {
	cs := im.eng.CS.Clone()
	m := im.matcher.Thaw(cs)
	eng := im.eng.CloneWith(im.eng.WM.Clone(), cs, m, nil)
	// An image never reads input, so there is no queue to inherit.
	eng.IO = engine.NewQueueIO(im.eng.Prog.Symbols, false)
	return &core{eng: eng, matcher: m, Backend: im.backend, watch: watch}
}

// imageKey is what an init image depends on besides the program: the
// resolved matcher and the table size it was built at. Trace level and
// match budget do not change what Init leaves.
type imageKey struct {
	matcher string
	lines   int
}

// programImage is a program's one init image and the lock its build
// runs under.
type programImage struct {
	mu  sync.Mutex
	key imageKey
	img *image
}

// initImage returns sp's init image for a create's config, building it
// on the first create that needs it: a fresh core, the program's
// top-level makes under the panic quarantine, then freeze. Creates that
// arrive during the build wait for it, so concurrent creates of a new
// program run Init once. A failed build is not kept, and a create with
// another key replaces the image: a program holds at most one.
func (s *Server) initImage(sp *sharedProgram, cfg *SessionConfig) (*image, error) {
	name, v, err := resolveMatcher(cfg)
	if err != nil {
		return nil, err
	}
	key := imageKey{matcher: name}
	if v == seqmatch.VS2 {
		key.lines = max(cfg.HashLines, 0)
	}
	pi := &sp.init
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.img != nil && pi.key == key {
		return pi.img, nil
	}
	c, err := sp.build(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(c.eng.Init); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	pi.key, pi.img = key, freeze(c)
	s.met.imageBuilt()
	return pi.img, nil
}

// quarantined runs engine code on caller input outside any session (an
// image or template build): a panic comes back as ErrSessionBroken and
// is counted, instead of unwinding into the daemon.
func (s *Server) quarantined(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrSessionBroken, p)
			s.met.panicked()
		}
	}()
	return fn()
}
