// Package lispemu is the stand-in for the Franz Lisp OPS5 interpreter
// the paper compares against in Table 4-4. It computes exactly the same
// match as the optimized matchers — it walks the same compiled network
// topology — but evaluates every node interpretively, the way the Lisp
// system did: attribute values are fetched through per-element
// string-keyed association maps built on the fly (consing), predicates
// are dispatched by name, values are boxed through interface{}, and node
// memories are plain linear lists. The 10-20x gap between this matcher
// and vs2 is the paper's optimized-vs-interpreted ratio, reproduced
// within one codebase.
package lispemu

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/symbols"
	"repro/internal/wm"
)

// box is a Lisp-style boxed value.
type box any

// entry is a token in a node memory, with the negation join count.
type entry struct {
	wmes     []*wm.WME
	negCount int
}

// Matcher is the interpreted matcher. It implements engine.Matcher.
type Matcher struct {
	Net  *rete.Network
	Prog *ops5.Program
	Sink rete.TerminalSink
	// mems[side][joinID] is the node's memory list.
	mems [2][][]*entry
	// boxed holds each element's association map, built once when the
	// element enters the system — Lisp OPS5 stores working-memory
	// elements as association structures, paying a string-keyed lookup
	// on every attribute access.
	boxed map[*wm.WME]map[string]box
	// Activations counts node activations, for parity checks with the
	// optimized matchers.
	Activations int64
	// Ops counts interpreted work items — node dispatches, boxed-value
	// predicate applications, constant-test evaluations, and string-keyed
	// attribute fetches. It is deterministic for a given program, so the
	// table tests use it (against vs2's stats.Match counters) as the
	// load-independent stand-in for the wall-clock Table 4-4 ratio.
	Ops int64
	// lastToken anchors dispatch's consed token so the allocation is
	// real work, as it is in the interpreter being modelled.
	lastToken []box
}

// New builds the interpreted matcher.
func New(prog *ops5.Program, net *rete.Network, sink rete.TerminalSink) *Matcher {
	m := &Matcher{Net: net, Prog: prog, Sink: sink, boxed: make(map[*wm.WME]map[string]box)}
	m.mems[0] = make([][]*entry, net.NumJoinIDs())
	m.mems[1] = make([][]*entry, net.NumJoinIDs())
	return m
}

// boxWME returns the association map for a working-memory element,
// building it on first encounter.
func (m *Matcher) boxWME(w *wm.WME) map[string]box {
	m.Ops++
	if attrs, ok := m.boxed[w]; ok {
		return attrs
	}
	attrs := make(map[string]box, len(w.Fields))
	attrs["class"] = m.Prog.Symbols.Name(w.Class())
	for i := 1; i < len(w.Fields); i++ {
		attrs[m.fieldKey(w.Class(), i)] = boxValue(m.Prog, w.Fields[i])
	}
	m.boxed[w] = attrs
	return attrs
}

// fieldKey is the association-map key for a field: the attribute name
// when the field has one, a positional key for the unnamed continuation
// fields past a vector attribute. A lookup miss (a test on a field
// beyond the element's length) yields the nil box, exactly what
// boxValue produces for wm.Nil — matching the positional matchers'
// out-of-range Field() behaviour.
func (m *Matcher) fieldKey(class symbols.ID, field int) string {
	if name := m.Prog.AttrName(class, field); name != "" {
		return name
	}
	return "#" + strconv.Itoa(field)
}

// dispatch models the interpreter's per-node-activation overhead: the
// Lisp system walks a node description list and conses a fresh token
// structure for every activation, where the compiled matchers fall
// through straight-line code. The allocation and the string switch are
// the point — this is the "interpretation overhead of nodes" the paper
// eliminates by compiling to machine code (§2.2).
func (m *Matcher) dispatch(kind string, wmes []*wm.WME) []box {
	m.Ops++
	token := make([]box, 0, len(wmes)+1)
	switch kind {
	case "and":
		token = append(token, "and-node")
	case "not":
		token = append(token, "not-node")
	case "alpha":
		token = append(token, "alpha-node")
	case "term":
		token = append(token, "terminal-node")
	default:
		token = append(token, "unknown")
	}
	for _, w := range wmes {
		token = append(token, m.boxWME(w))
	}
	return token
}

func boxValue(prog *ops5.Program, v wm.Value) box {
	switch v.Kind {
	case wm.KindNil:
		return nil
	case wm.KindSym:
		return prog.Symbols.Name(v.Sym)
	case wm.KindInt:
		return v.Num
	default:
		return v.F
	}
}

// boxedEqual compares two boxed values the way an interpreter would:
// type dispatch at run time.
func boxedEqual(a, b box) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case string:
		s, ok := b.(string)
		return ok && s == x
	case int64:
		switch y := b.(type) {
		case int64:
			return x == y
		case float64:
			return float64(x) == y
		}
		return false
	case float64:
		switch y := b.(type) {
		case int64:
			return x == float64(y)
		case float64:
			return x == y
		}
		return false
	}
	return false
}

func boxedNumber(a box) (float64, bool) {
	switch x := a.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// applyPred dispatches a predicate by its printed name — the
// interpretation overhead the compiled matchers eliminate.
func applyPred(pred string, v, o box) bool {
	switch pred {
	case "=":
		return boxedEqual(v, o)
	case "<>":
		return !boxedEqual(v, o)
	case "<", "<=", ">", ">=":
		a, ok1 := boxedNumber(v)
		b, ok2 := boxedNumber(o)
		if !ok1 || !ok2 {
			return false
		}
		switch pred {
		case "<":
			return a < b
		case "<=":
			return a <= b
		case ">":
			return a > b
		default:
			return a >= b
		}
	case "<=>":
		_, n1 := boxedNumber(v)
		_, n2 := boxedNumber(o)
		return n1 == n2
	}
	return false
}

// evalConst interprets one alpha test against a boxed element.
func (m *Matcher) evalConst(t *rete.ConstTest, w *wm.WME, attrs map[string]box) bool {
	m.Ops++
	v := attrs[m.fieldKey(w.Class(), t.Field)]
	if t.Disj != nil {
		for _, d := range t.Disj {
			if boxedEqual(v, boxValue(m.Prog, d)) {
				return true
			}
		}
		return false
	}
	if t.OtherField >= 0 {
		o := attrs[m.fieldKey(w.Class(), t.OtherField)]
		return applyPred(t.Pred.String(), v, o)
	}
	return applyPred(t.Pred.String(), v, boxValue(m.Prog, t.Const))
}

// testPair interprets all join tests on a (left token, right WME) pair,
// boxing both sides afresh each time.
func (m *Matcher) testPair(j *rete.JoinNode, left []*wm.WME, right *wm.WME) bool {
	rattrs := m.boxWME(right)
	check := func(pred string, lp, lf, rf int) bool {
		m.Ops++
		lw := left[lp]
		lattrs := m.boxWME(lw)
		lv := lattrs[m.fieldKey(lw.Class(), lf)]
		rv := rattrs[m.fieldKey(right.Class(), rf)]
		return applyPred(pred, rv, lv)
	}
	for i := range j.EqTests {
		t := &j.EqTests[i]
		if !check("=", t.LeftPos, t.LeftField, t.RightField) {
			return false
		}
	}
	for i := range j.OtherTests {
		t := &j.OtherTests[i]
		if !check(t.Pred.String(), t.LeftPos, t.LeftField, t.RightField) {
			return false
		}
	}
	return true
}

// Submit processes one WM change to completion.
func (m *Matcher) Submit(sign bool, w *wm.WME) {
	attrs := m.boxWME(w)
	for _, chain := range m.Net.ChainsByClass[w.Class()] {
		pass := true
		for i := range chain.Tests {
			if !m.evalConst(&chain.Tests[i], w, attrs) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		for _, d := range m.Net.DestsOf(chain) {
			if d.Terminal != nil {
				m.toTerminal(d.Terminal, sign, []*wm.WME{w})
				continue
			}
			m.activate(d.Join, d.Side, sign, []*wm.WME{w})
		}
	}
}

// Drain is a no-op: Submit is synchronous.
func (m *Matcher) Drain() {}

// CheckInvariants always succeeds: the interpreted matcher deletes
// eagerly and never parks tokens.
func (m *Matcher) CheckInvariants() error { return nil }

func (m *Matcher) activate(j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME) {
	m.Activations++
	if j.Negated {
		m.lastToken = m.dispatch("not", wmes)
	} else {
		m.lastToken = m.dispatch("and", wmes)
	}
	mem := &m.mems[side][j.ID]
	var ent *entry
	if sign {
		ent = &entry{wmes: wmes}
		*mem = append(*mem, ent)
	} else {
		found := -1
		for i, e := range *mem {
			if slices.Equal(e.wmes, wmes) {
				found = i
				ent = e
				break
			}
		}
		if found < 0 {
			// Sequential processing should never miss a delete target.
			panic(fmt.Sprintf("lispemu: delete with no matching token at node %d", j.ID))
		}
		*mem = append((*mem)[:found], (*mem)[found+1:]...)
	}
	emit := func(csign bool, cwmes []*wm.WME) {
		for _, succ := range m.Net.SuccsOf(j) {
			m.activate(succ, rete.Left, csign, cwmes)
		}
		for _, t := range m.Net.TermsOf(j) {
			m.toTerminal(t, csign, cwmes)
		}
	}
	opp := m.mems[side^1][j.ID]
	if j.Negated {
		m.negated(j, side, sign, wmes, ent, opp, emit)
		return
	}
	for _, e := range opp {
		var left []*wm.WME
		var right *wm.WME
		if side == rete.Left {
			left, right = wmes, e.wmes[0]
		} else {
			left, right = e.wmes, wmes[0]
		}
		if !m.testPair(j, left, right) {
			continue
		}
		child := make([]*wm.WME, len(left)+1)
		copy(child, left)
		child[len(left)] = right
		emit(sign, child)
	}
}

func (m *Matcher) negated(j *rete.JoinNode, side rete.Side, sign bool, wmes []*wm.WME, ent *entry, opp []*entry, emit func(bool, []*wm.WME)) {
	if side == rete.Left {
		if sign {
			count := 0
			for _, e := range opp {
				if m.testPair(j, wmes, e.wmes[0]) {
					count++
				}
			}
			ent.negCount = count
			if count == 0 {
				emit(true, wmes)
			}
			return
		}
		if ent.negCount == 0 {
			emit(false, wmes)
		}
		return
	}
	w := wmes[0]
	for _, e := range opp {
		if !m.testPair(j, e.wmes, w) {
			continue
		}
		if sign {
			e.negCount++
			if e.negCount == 1 {
				emit(false, e.wmes)
			}
		} else {
			e.negCount--
			if e.negCount == 0 {
				emit(true, e.wmes)
			}
		}
	}
}

func (m *Matcher) toTerminal(t *rete.Terminal, sign bool, wmes []*wm.WME) {
	m.Activations++
	m.lastToken = m.dispatch("term", wmes)
	if sign {
		m.Sink.InsertInstantiation(t.Rule, wmes)
	} else {
		m.Sink.RemoveInstantiation(t.Rule, wmes)
	}
}
