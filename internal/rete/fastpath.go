// Specialized test closures, built once per node as the compiler
// creates it. An interpreted test would re-branch on the test kind
// (disjunction / other-field / predicate) for every token; §2 of the
// paper attributes much of its 10-20x sequential win to exactly this
// sort of per-activation discipline, so each test is lowered into a
// closure with the branch already resolved.
package rete

import (
	"repro/internal/ops5"
	"repro/internal/wm"
)

// compileFast lowers the chain's tests into per-test closures used by
// RootDeliver.
func (a *AlphaChain) compileFast() {
	a.evals = make([]func(*wm.WME) bool, len(a.Tests))
	for i := range a.Tests {
		a.evals[i] = a.Tests[i].compile()
	}
}

// compile specializes one constant test.
func (t *ConstTest) compile() func(*wm.WME) bool {
	field := t.Field
	switch {
	case t.Disj != nil:
		disj := t.Disj
		return func(w *wm.WME) bool {
			v := w.Field(field)
			for _, d := range disj {
				if v.Equal(d) {
					return true
				}
			}
			return false
		}
	case t.OtherField >= 0:
		other := t.OtherField
		if t.Pred == ops5.PredEQ {
			return func(w *wm.WME) bool { return w.Field(field).Equal(w.Field(other)) }
		}
		pred := t.Pred
		return func(w *wm.WME) bool { return pred.Apply(w.Field(field), w.Field(other)) }
	case t.Pred == ops5.PredEQ:
		c := t.Const
		if c.Kind == wm.KindSym {
			// The dominant alpha test: equality against a constant
			// symbol reduces to one kind check and one ID compare.
			sym := c.Sym
			return func(w *wm.WME) bool {
				v := w.Field(field)
				return v.Kind == wm.KindSym && v.Sym == sym
			}
		}
		return func(w *wm.WME) bool { return w.Field(field).Equal(c) }
	default:
		pred, c := t.Pred, t.Const
		return func(w *wm.WME) bool { return pred.Apply(w.Field(field), c) }
	}
}

// compileFast lowers the join tests into pairFn.
func (j *JoinNode) compileFast() {
	switch {
	case len(j.EqTests) == 0 && len(j.OtherTests) == 0:
		j.pairFn = func(wm.SlotView, []uint32, *wm.WME) bool { return true }
	case len(j.EqTests) == 1 && len(j.OtherTests) == 0:
		// The common shape: a single equality test, which is also the
		// value both hash functions fold over.
		t := j.EqTests[0]
		lp, lf, rf := t.LeftPos, t.LeftField, t.RightField
		j.pairFn = func(v wm.SlotView, left []uint32, right *wm.WME) bool {
			return right.Field(rf).Equal(v.Get(left[lp]).Field(lf))
		}
	default:
		tests := make([]func(wm.SlotView, []uint32, *wm.WME) bool, 0, len(j.EqTests)+len(j.OtherTests))
		for i := range j.EqTests {
			tests = append(tests, compileJoinTest(&j.EqTests[i]))
		}
		for i := range j.OtherTests {
			tests = append(tests, compileJoinTest(&j.OtherTests[i]))
		}
		if len(tests) == 2 {
			f0, f1 := tests[0], tests[1]
			j.pairFn = func(v wm.SlotView, left []uint32, right *wm.WME) bool {
				return f0(v, left, right) && f1(v, left, right)
			}
			return
		}
		j.pairFn = func(v wm.SlotView, left []uint32, right *wm.WME) bool {
			for _, f := range tests {
				if !f(v, left, right) {
					return false
				}
			}
			return true
		}
	}
}

// compileJoinTest specializes one inter-element test.
func compileJoinTest(t *JoinTest) func(wm.SlotView, []uint32, *wm.WME) bool {
	lp, lf, rf := t.LeftPos, t.LeftField, t.RightField
	switch t.Pred {
	case ops5.PredEQ:
		return func(v wm.SlotView, left []uint32, right *wm.WME) bool {
			return right.Field(rf).Equal(v.Get(left[lp]).Field(lf))
		}
	case ops5.PredNE:
		return func(v wm.SlotView, left []uint32, right *wm.WME) bool {
			return !right.Field(rf).Equal(v.Get(left[lp]).Field(lf))
		}
	default:
		pred := t.Pred
		return func(v wm.SlotView, left []uint32, right *wm.WME) bool {
			return pred.Apply(right.Field(rf), v.Get(left[lp]).Field(lf))
		}
	}
}
