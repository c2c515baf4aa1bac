package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/parmatch"
	"repro/internal/rete"
	"repro/internal/seqmatch"
	"repro/internal/wm"
	"repro/internal/wmlog"
)

// slotSrc churns working memory — negation, modify and remove on every
// cycle — so slots are released and reused throughout, with a rule to
// build at runtime and one to excise whose join memory holds the
// churning items.
const slotSrc = `
(literalize config mode)
(literalize note mode)
(literalize item n val)
(literalize probe n)
(p config-note (config ^mode <m>) (item ^n <m>) --> (make note ^mode <m>))
(p spawn (probe ^n <n>) - (item ^n <n>) --> (make item ^n <n> ^val 0))
(p bump (probe ^n <n>) (item ^n <n> ^val <v>) --> (modify 2 ^val (compute <v> + 1)) (remove 1))
`

const slotTally = `(p tally (item ^n <n> ^val 2) --> (make note ^mode <n>))`

// recJournal keeps an engine's delta log in memory.
type recJournal struct {
	syms *ops5.Program
	recs []*wmlog.Record
}

func (j *recJournal) RecordMake(w *wm.WME) {
	j.recs = append(j.recs, &wmlog.Record{Type: wmlog.RecMake, Tag: w.TimeTag, Fields: wmlog.EncodeFields(w.Fields, j.syms.Symbols)})
}
func (j *recJournal) RecordRemove(w *wm.WME) {
	j.recs = append(j.recs, &wmlog.Record{Type: wmlog.RecRemove, Tag: w.TimeTag})
}
func (j *recJournal) RecordFire(rule string, tags []int) {
	j.recs = append(j.recs, &wmlog.Record{Type: wmlog.RecFire, Rule: rule, Tags: tags})
}
func (j *recJournal) RecordHalt() { j.recs = append(j.recs, &wmlog.Record{Type: wmlog.RecHalt}) }
func (j *recJournal) RecordProgram(src string) {
	j.recs = append(j.recs, &wmlog.Record{Type: wmlog.RecProgram, Src: src})
}
func (j *recJournal) RecordAccept([]wm.Value) {}
func (j *recJournal) RecordAcceptTake(int)    {}

// TestSlotSafetyLifecycle takes a churning session through every
// lifecycle step the engine has — runtime build (an epoch swap), excise,
// snapshot→restore, crash→recover (snapshot plus delta-log replay) and,
// where the matcher can be cloned, fork — on vs1, vs2 and the parallel
// matcher under both lock schemes. After every step the slot-safety
// oracle must hold (no stored token names a slot whose element is not
// live), and every step's firings must match an undisturbed control's.
func TestSlotSafetyLifecycle(t *testing.T) {
	backends := []dynBackend{dynBackends()[0], dynBackends()[1]}
	for _, scheme := range []parmatch.Scheme{parmatch.SchemeSimple, parmatch.SchemeMRSW} {
		scheme := scheme
		backends = append(backends, dynBackend{"par-" + scheme.String(),
			func(net *rete.Network, cs *conflict.Set) (engine.Matcher, func()) {
				m := parmatch.New(net, parmatch.Config{Procs: 2, Queues: 2, Scheme: scheme}, cs)
				return m, m.Close
			}})
	}
	type step struct {
		probes []int
		build  string
		excise string
	}
	steps := []step{
		{probes: []int{1, 2, 3, 4}},
		{probes: []int{1, 2, 3, 5}},
		{build: slotTally},
		{probes: []int{1, 2, 4, 5}},
		{excise: "config-note"},
		{probes: []int{1, 3, 4, 5}},
		{probes: []int{2, 3, 4, 5}},
		{probes: []int{1, 2, 3, 4, 5}},
		{probes: []int{1, 2, 3, 4, 5}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			ctl, closeCtl := newDynEngine(t, slotSrc, b)
			defer closeCtl()
			vic, closeVic := newDynEngine(t, slotSrc, b)
			defer func() { closeVic() }()
			check := func(e *engine.Engine, what string) {
				t.Helper()
				if err := e.CheckSlots(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
			}
			// apply runs one step and renders its firings.
			apply := func(e *engine.Engine, st step) string {
				t.Helper()
				switch {
				case st.build != "":
					if _, _, err := e.AddRules(st.build); err != nil {
						t.Fatal(err)
					}
				case st.excise != "":
					if err := e.Excise(st.excise); err != nil {
						t.Fatal(err)
					}
				}
				var batch [][]wm.Value
				for _, n := range st.probes {
					batch = append(batch, []wm.Value{wm.Sym(e.Prog.Symbols.Intern("probe")), wm.Int(int64(n))})
				}
				if _, err := e.AssertBatch(batch); err != nil {
					t.Fatal(err)
				}
				check(e, "assert")
				res, err := e.Run(engine.Options{RecordFiring: true})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprint(res.Firings)
			}
			// restart replaces the victim with a fresh engine of the same
			// backend rebuilt from snap and, when recs is not nil, the
			// delta log since snap.
			var journal *recJournal
			restart := func(snap *wmlog.Snapshot, recs []*wmlog.Record, what string) {
				t.Helper()
				prog, err := ops5.Parse(slotSrc)
				if err != nil {
					t.Fatal(err)
				}
				net, err := rete.Compile(prog)
				if err != nil {
					t.Fatal(err)
				}
				cs := conflict.NewSet()
				m, closer := b.new(net, cs)
				e, err := engine.New(prog, net, cs, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.RestoreState(snap); err != nil {
					t.Fatalf("%s: restore: %v", what, err)
				}
				if err := e.ReplayRecords(recs); err != nil {
					t.Fatalf("%s: replay: %v", what, err)
				}
				check(e, what)
				closeVic()
				vic, closeVic = e, closer
				journal = &recJournal{syms: prog}
				vic.SetJournal(journal)
			}
			journal = &recJournal{syms: vic.Prog}
			vic.SetJournal(journal)
			var crashSnap *wmlog.Snapshot
			var crashFrom int
			for i, st := range steps {
				want := apply(ctl, st)
				if got := apply(vic, st); got != want {
					t.Fatalf("step %d diverged:\n%s\nwant\n%s", i, got, want)
				}
				check(vic, fmt.Sprintf("step %d", i))
				check(ctl, fmt.Sprintf("control step %d", i))
				switch i {
				case 1: // snapshot→restore
					vic.SetJournal(nil)
					restart(vic.CaptureState(), nil, "restore")
				case 3: // the crash point's snapshot
					crashSnap, crashFrom = vic.CaptureState(), len(journal.recs)
				case 5: // crash→recover: snapshot plus the log since
					restart(crashSnap, journal.recs[crashFrom:], "recover")
				case 6: // fork, for matchers that freeze: a create's copy, then a pinned template's
					sm, ok := vic.Matcher.(*seqmatch.Matcher)
					if !ok {
						continue
					}
					vic.SetJournal(nil)
					forkOf := func(im *seqmatch.Image) *engine.Engine {
						cs := vic.CS.Clone()
						return vic.CloneWith(vic.WM.Clone(), cs, im.Thaw(cs, nil), nil)
					}
					check(forkOf(sm.Freeze()), "thawed copy")
					sm.Reslot()
					check(vic, "pinned template")
					fork := forkOf(sm.Freeze())
					check(fork, "fork")
					check(vic, "fork's template")
					vic = fork
				}
			}
			// The churn must have recycled slots, or the oracle checked
			// nothing a reuse could break.
			if issued, tags := vic.WM.Slots().Issued(), vic.WM.NextTag()-1; int(issued) >= tags {
				t.Fatalf("%d slots issued for %d time tags: no slot was reused", issued, tags)
			}
		})
	}
}
