package engine

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"repro/internal/conflict"
	"repro/internal/rhs"
	"repro/internal/symbols"
	"repro/internal/wm"
	"repro/internal/wmlog"
)

// Journal observes the engine's durable events in execution order: every
// working-memory change it forwards to the matcher, every production
// firing (the refraction event recovery must re-establish), halts, and
// runtime program changes. The server implements it over a wmlog.Writer;
// the engine leaves it nil during replay and restore so recovery never
// re-journals its own input.
type Journal interface {
	RecordMake(w *wm.WME)
	RecordRemove(w *wm.WME)
	RecordFire(rule string, tags []int)
	RecordHalt()
	RecordProgram(src string)
	// RecordAccept journals values supplied to the engine's input queue;
	// RecordAcceptTake journals each (accept)/(acceptline) consumption.
	// Together they make interactive sessions replay deterministically.
	RecordAccept(vals []wm.Value)
	RecordAcceptTake(n int)
}

// SetJournal installs (or clears) the engine's journal. Call only while
// the engine is settled — between requests, never mid-run.
func (e *Engine) SetJournal(j Journal) { e.journal = j }

// SupplyInput buffers values for (accept)/(acceptline) and journals the
// supply, so recovery replays interactive sessions deterministically.
// The engine's IO must be a QueueIO.
func (e *Engine) SupplyInput(vals []wm.Value) error {
	q, ok := e.IO.(*QueueIO)
	if !ok {
		return fmt.Errorf("engine: SupplyInput needs a QueueIO (have %T)", e.IO)
	}
	q.Supply(vals...)
	if e.journal != nil && len(vals) > 0 {
		e.journal.RecordAccept(vals)
	}
	return nil
}

// PendingInput reports the number of buffered input values when the IO
// is a QueueIO, else 0.
func (e *Engine) PendingInput() int {
	if q, ok := e.IO.(*QueueIO); ok {
		return q.Len()
	}
	return 0
}

// Capture is an engine's settled state, taken cheaply: the live WMEs by
// pointer (a WME never changes once made), the fired keys, the runtime
// program changes, the pending input, the tag counter and the halt flag.
// Snapshot turns it into a wmlog.Snapshot on any goroutine, while the
// engine runs on.
type Capture struct {
	wmes    []*wm.WME
	fired   []wmlog.FireKey
	program []string
	pending []wm.Value
	nextTag int
	halted  bool
	syms    *symbols.Table
}

// Capture takes the engine's state for Snapshot. The engine must be
// drained.
func (e *Engine) Capture() *Capture {
	c := &Capture{
		wmes:    e.WM.Live(),
		program: append([]string(nil), e.progDelta...),
		nextTag: e.WM.NextTag(),
		halted:  e.halted,
		syms:    e.Prog.Symbols,
	}
	e.CS.ForEachFired(func(inst *conflict.Instantiation) {
		c.fired = append(c.fired, wmlog.FireKey{Rule: inst.Rule.Rule.Name, Tags: tags(inst.Wmes)})
	})
	if q, ok := e.IO.(*QueueIO); ok && q.Len() > 0 {
		c.pending = q.Pending()
	}
	return c
}

// Snapshot serializes the capture: live WMEs with exact time tags (tag
// order), still-live fired instantiations (rule-then-tags order, so the
// encoding — and the snapshot hash — is deterministic), and the rest as
// captured. The caller fills ProgHash and the log position.
func (c *Capture) Snapshot() *wmlog.Snapshot {
	slices.SortFunc(c.wmes, func(a, b *wm.WME) int { return cmp.Compare(a.TimeTag, b.TimeTag) })
	s := &wmlog.Snapshot{
		NextTag: c.nextTag,
		Halted:  c.halted,
		Program: c.program,
		Wmes:    make([]wmlog.TaggedWME, len(c.wmes)),
		Fired:   c.fired,
	}
	for i, w := range c.wmes {
		s.Wmes[i] = wmlog.TaggedWME{Tag: w.TimeTag, Fields: wmlog.EncodeFields(w.Fields, c.syms)}
	}
	if len(c.pending) > 0 {
		s.Pending = wmlog.EncodeFields(c.pending, c.syms)
	}
	slices.SortFunc(s.Fired, func(a, b wmlog.FireKey) int {
		if a.Rule != b.Rule {
			return cmp.Compare(a.Rule, b.Rule)
		}
		return slices.Compare(a.Tags, b.Tags)
	})
	return s
}

// CaptureState is Capture().Snapshot() in one step.
func (e *Engine) CaptureState() *wmlog.Snapshot { return e.Capture().Snapshot() }

// RestoreState rebuilds a snapshot's state on a fresh engine: the
// runtime program changes are re-applied to the still-empty working
// memory (same rules, rule IDs and epoch as the captured engine, and no
// WM replay to pay for), the WMEs are re-asserted under their original
// tags through the ordinary match machinery, then the fired
// instantiations re-derived by that match are marked to restore
// refraction. Every fired key must resolve — the snapshot captured live
// instantiations of this exact WM state, so a miss means the snapshot
// and program disagree. The journal must be nil (install it after
// restoring).
func (e *Engine) RestoreState(s *wmlog.Snapshot) error {
	for _, src := range s.Program {
		if _, _, err := e.AddRules(src); err != nil {
			return fmt.Errorf("engine: restoring program change: %w", err)
		}
	}
	for i := range s.Wmes {
		tw := &s.Wmes[i]
		w := e.WM.AddTagged(tw.Tag, wmlog.DecodeFields(tw.Fields, e.Prog.Symbols))
		e.submit(true, w)
	}
	e.drain()
	for i := range s.Fired {
		fk := &s.Fired[i]
		cr := e.Net.RuleByName(fk.Rule)
		if cr == nil {
			return fmt.Errorf("engine: snapshot fires unknown production %s", fk.Rule)
		}
		if !e.CS.MarkFiredByTags(cr, fk.Tags) {
			return fmt.Errorf("engine: snapshot fired instantiation %s %v not re-derived", fk.Rule, fk.Tags)
		}
	}
	if len(s.Pending) > 0 {
		q, ok := e.IO.(*QueueIO)
		if !ok {
			return fmt.Errorf("engine: snapshot has pending input but the engine's IO is %T, not a QueueIO", e.IO)
		}
		q.SetPending(wmlog.DecodeFields(s.Pending, e.Prog.Symbols))
	}
	e.WM.SetNextTag(s.NextTag)
	e.halted = s.Halted
	return e.Matcher.CheckInvariants()
}

// ReplayRecords applies a delta-log suffix in order. WM changes replay
// through the ordinary match machinery under their logged time tags;
// each fire record is applied at its interleaved position — preceding WM
// changes drained first — because the same (rule, tags) identity can be
// annihilated and re-derived across negated-condition changes, so
// marking fired at the wrong point corrupts refraction. Program records
// re-apply runtime builds and excises one canonical form at a time.
// Skip Init when replaying from an empty engine: the log journals every
// change from empty working memory, top-level makes included.
func (e *Engine) ReplayRecords(recs []*wmlog.Record) error {
	dirty := false
	settle := func() {
		if dirty {
			e.drain()
			dirty = false
		}
	}
	for _, r := range recs {
		switch r.Type {
		case wmlog.RecMake:
			w := e.WM.AddTagged(r.Tag, wmlog.DecodeFields(r.Fields, e.Prog.Symbols))
			e.submit(true, w)
			dirty = true
		case wmlog.RecRemove:
			if w := e.WM.Get(r.Tag); w != nil && e.WM.Remove(w) {
				e.submit(false, w)
				dirty = true
			} else {
				return fmt.Errorf("engine: replay removes dead time tag %d", r.Tag)
			}
		case wmlog.RecFire:
			settle()
			cr := e.Net.RuleByName(r.Rule)
			if cr == nil {
				return fmt.Errorf("engine: replay fires unknown production %s", r.Rule)
			}
			if !e.CS.MarkFiredByTags(cr, r.Tags) {
				return fmt.Errorf("engine: replayed firing %s %v not live", r.Rule, r.Tags)
			}
		case wmlog.RecHalt:
			e.halted = true
		case wmlog.RecAccept:
			q, ok := e.IO.(*QueueIO)
			if !ok {
				return fmt.Errorf("engine: replay supplies accept input but the engine's IO is %T, not a QueueIO", e.IO)
			}
			q.Supply(wmlog.DecodeFields(r.Fields, e.Prog.Symbols)...)
		case wmlog.RecAcceptTake:
			q, ok := e.IO.(*QueueIO)
			if !ok {
				return fmt.Errorf("engine: replay consumes accept input but the engine's IO is %T, not a QueueIO", e.IO)
			}
			q.Take(r.Tag)
		case wmlog.RecProgram:
			settle()
			if _, _, err := e.AddRules(r.Src); err != nil {
				return fmt.Errorf("engine: replaying program change: %w", err)
			}
		default:
			return fmt.Errorf("engine: replay hit unknown record type %d", r.Type)
		}
	}
	settle()
	return e.Matcher.CheckInvariants()
}

// CloneWith builds a forked engine over pre-cloned session state: the
// caller supplies the cloned working memory, conflict set, and matcher
// (or a fresh matcher it restored separately). Program, network epoch,
// and compiled right-hand sides are shared — all read-only at execution
// time. The compiled slice and the program delta are copied so post-fork
// rule changes never write through a shared backing array.
func (e *Engine) CloneWith(wmem *wm.Memory, cs *conflict.Set, m Matcher, out io.Writer) *Engine {
	UseSlots(m, wmem.Slots())
	return &Engine{
		Prog:      e.Prog,
		Net:       e.Net,
		WM:        wmem,
		CS:        cs,
		Matcher:   m,
		Out:       out,
		compiled:  append([]*rhs.Compiled(nil), e.compiled...),
		progDelta: append([]string(nil), e.progDelta...),
		halted:    e.halted,
	}
}
