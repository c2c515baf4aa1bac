package server

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/hashmem"
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
//
// spare is the token table of the last session of this image that was
// deleted, waiting for the next thaw to take it over instead of
// allocating one (hashmem.Frozen.Thaw): at most one table per image, as
// large as that session grew it. A later delete replaces it; the one
// replaced goes to the collector.
type image struct {
	eng     *engine.Engine
	matcher *seqmatch.Image
	spare   atomic.Pointer[hashmem.Table]
}

// freeze turns a settled core into an image, its token table re-slotted
// first (seqmatch.Matcher.Reslot) so the image, and every thaw of it,
// holds lines for what the table holds. The core is spent: its engine
// is the image's now.
func freeze(c *core) *image {
	c.matcher.Reslot()
	im := &image{eng: c.eng, matcher: c.matcher.Freeze()}
	c.eng.Matcher = nil
	return im
}

// thaw builds a new core from the image at trace level watch. Parse,
// compile, RHS compile and matching are all skipped: the conflict set
// and working memory are copied (sharing every immutable WME), the
// token table is thawed, into the image's spare when it holds one
// (reused).
func (im *image) thaw(watch int) (c *core, reused bool) {
	spare := im.spare.Swap(nil)
	cs := im.eng.CS.Clone()
	m := im.matcher.Thaw(cs, spare)
	eng := im.eng.CloneWith(im.eng.WM.Clone(), cs, m, nil)
	// An image never reads input, so there is no queue to inherit.
	eng.IO = engine.NewQueueIO(im.eng.Prog.Symbols, false)
	return &core{eng: eng, matcher: m, watch: watch, from: im}, spare != nil
}

// programImage is a program's one init image and the lock its build
// runs under.
type programImage struct {
	mu  sync.Mutex
	img *image
}

// initImage returns sp's init image, building it on the program's first
// create: a fresh core, the program's top-level makes under the panic
// quarantine, then freeze. Trace level and match budget do not change
// what Init leaves, so every create of the program shares it. Creates
// that arrive during the build wait for it, so concurrent creates of a
// new program run Init once. A failed build is not kept.
func (s *Server) initImage(sp *sharedProgram) (*image, error) {
	pi := &sp.init
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.img != nil {
		return pi.img, nil
	}
	c, err := sp.build(&SessionConfig{})
	if err != nil {
		return nil, err
	}
	if err := s.quarantined(c.eng.Init); err != nil {
		return nil, fmt.Errorf("init: %w", err)
	}
	pi.img = freeze(c)
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
