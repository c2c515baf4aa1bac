// Package ops5 implements the front end for the OPS5 production-system
// language: lexer, parser, literalize declarations and the AST consumed
// by the Rete compiler and the RHS threaded-code compiler.
package ops5

import (
	"fmt"

	"repro/internal/symbols"
	"repro/internal/wm"
)

// Pred is a test predicate from a condition element.
type Pred uint8

// Predicates supported in condition-element attribute tests.
const (
	PredEQ       Pred = iota // = (default)
	PredNE                   // <>
	PredLT                   // <
	PredLE                   // <=
	PredGT                   // >
	PredGE                   // >=
	PredSameType             // <=>
)

func (p Pred) String() string {
	switch p {
	case PredEQ:
		return "="
	case PredNE:
		return "<>"
	case PredLT:
		return "<"
	case PredLE:
		return "<="
	case PredGT:
		return ">"
	case PredGE:
		return ">="
	case PredSameType:
		return "<=>"
	}
	return "?"
}

// Apply evaluates the predicate on working-memory value v against
// operand o (v is the WME side, o the condition side).
func (p Pred) Apply(v, o wm.Value) bool {
	switch p {
	case PredEQ:
		return v.Equal(o)
	case PredNE:
		return !v.Equal(o)
	case PredLT:
		return v.IsNumber() && o.IsNumber() && v.AsFloat() < o.AsFloat()
	case PredLE:
		return v.IsNumber() && o.IsNumber() && v.AsFloat() <= o.AsFloat()
	case PredGT:
		return v.IsNumber() && o.IsNumber() && v.AsFloat() > o.AsFloat()
	case PredGE:
		return v.IsNumber() && o.IsNumber() && v.AsFloat() >= o.AsFloat()
	case PredSameType:
		return v.SameType(o)
	}
	return false
}

// TestTerm is one predicate application inside an attribute test. The
// operand is a constant, a variable reference, or a disjunction of
// constants (<< a b c >>, equality only).
type TestTerm struct {
	Pred  Pred
	IsVar bool
	Var   string     // variable name when IsVar
	Const wm.Value   // constant operand otherwise
	Disj  []wm.Value // non-nil for << ... >>
}

// AttrTest is the conjunction of terms applied to one field of a
// condition element ({ ... } groups several terms on one attribute).
type AttrTest struct {
	Field int // field index within the class vector (0 = class, tested separately)
	Attr  symbols.ID
	Terms []TestTerm
}

// CondElem is one condition element of a production's left-hand side.
type CondElem struct {
	Negated bool
	Class   symbols.ID
	Tests   []AttrTest
	// ElemVar is the element variable of a { <var> (pattern) } form,
	// letting the RHS name this condition element in remove/modify.
	ElemVar string
	Line    int
}

// Rule is a parsed production.
type Rule struct {
	Name    string
	CEs     []*CondElem
	Actions []*Action
	Line    int
}

// PositiveCEs counts the non-negated condition elements.
func (r *Rule) PositiveCEs() int {
	n := 0
	for _, ce := range r.CEs {
		if !ce.Negated {
			n++
		}
	}
	return n
}

// ExprKind discriminates RHS value expressions.
type ExprKind uint8

// Expression kinds appearing in RHS values and write arguments.
const (
	ExprConst ExprKind = iota
	ExprVar
	ExprCompute
	ExprCrlf       // (crlf) inside write
	ExprTabto      // (tabto n) inside write
	ExprAccept     // (accept) — reads the next value from the engine's IO
	ExprAcceptLine // (acceptline) — reads a whole line of values from the engine's IO
)

// Expr is an RHS value expression. Compute nodes form a binary tree;
// OPS5's compute has no precedence and associates right-to-left.
type Expr struct {
	Kind  ExprKind
	Const wm.Value
	Var   string
	Op    byte // one of + - * / % for ExprCompute ('/'=//, '%'=\\)
	L, R  *Expr
}

// AttrSet assigns an expression to an attribute in make/modify.
type AttrSet struct {
	Attr  symbols.ID
	Field int
	Expr  *Expr
}

// ActionKind discriminates RHS actions.
type ActionKind uint8

// RHS action kinds.
const (
	ActMake ActionKind = iota
	ActModify
	ActRemove
	ActBind
	ActWrite
	ActHalt
)

// Action is one RHS action.
type Action struct {
	Kind    ActionKind
	Class   symbols.ID // make
	CEIndex int        // modify/remove: 1-based index over the rule's CEs
	Sets    []AttrSet  // make/modify
	Args    []*Expr    // write arguments or the single bind expression
	Var     string     // bind target
	Line    int
}

// Class records a literalize declaration: the attribute layout of a WME
// class. Field indices start at 1 (field 0 is the class symbol).
type Class struct {
	Name      symbols.ID
	Fields    map[symbols.ID]int
	FieldAttr []symbols.ID // index -> attribute symbol; [0] unused
	Declared  bool         // false when auto-created on first use
	// VectorField is the index of the class's vector attribute, or 0 when
	// the class has none. A vector attribute must be the last literalized
	// field: its value occupies that field and every field after it, so a
	// WME of this class may be longer than NumFields().
	VectorField int
}

// NumFields is the vector length including the class slot.
func (c *Class) NumFields() int { return len(c.FieldAttr) }

// Program is a fully parsed OPS5 source file.
type Program struct {
	Symbols  *symbols.Table
	Strategy string // "lex" (default) or "mea"
	Classes  map[symbols.ID]*Class
	Rules    []*Rule
	// InitialMakes are top-level (make ...) forms evaluated once, in
	// order, before the recognize-act loop starts.
	InitialMakes []*Action
	// VectorAttrs holds the attributes declared by (vector-attribute ...).
	// The declaration is order-independent with respect to literalize:
	// both directions validate that the attribute is the last field.
	VectorAttrs map[symbols.ID]bool
	// Watch is the trace level from a top-level (watch N) form: 0 silent,
	// 1 rule firings, 2 firings plus WM changes. -1 when the program does
	// not set one, letting hosts pick their own default.
	Watch int
	// frozen forbids further mutation of the class tables. The engine
	// freezes the program when it compiles it: from then on many matchers
	// and RHS evaluators may read Classes concurrently, so the lazy
	// auto-extension of undeclared classes (a write under readers) is
	// disabled and unknown classes/attributes become parse-time errors.
	frozen bool
}

// Freeze marks the class tables immutable. Called once at compile time;
// afterwards ClassOf and FieldIndex are pure reads and safe to call from
// any goroutine. Symbol interning stays available (symbols.Table has its
// own lock).
func (p *Program) Freeze() { p.frozen = true }

// Frozen reports whether the class tables are immutable.
func (p *Program) Frozen() bool { return p.frozen }

// ClassOf returns the class record, creating an implicit one on demand
// (OPS5 requires literalize; we auto-declare for convenience and record
// that it was implicit). On a frozen program it never mutates: unknown
// classes yield nil, and parser entry points report them as errors
// before any lookup can dereference one.
func (p *Program) ClassOf(name symbols.ID) *Class {
	c, ok := p.Classes[name]
	if !ok {
		if p.frozen {
			return nil
		}
		c = &Class{Name: name, Fields: make(map[symbols.ID]int), FieldAttr: []symbols.ID{symbols.None}}
		p.Classes[name] = c
	}
	return c
}

// FieldIndex returns the field index of attr in class, allocating the
// next slot when the class was not explicitly literalized. Explicitly
// declared classes reject unknown attributes, and a frozen program
// rejects them for every class: attribute layouts are fixed at compile
// time, so concurrent readers never observe a growing field table.
func (p *Program) FieldIndex(class *Class, attr symbols.ID) (int, error) {
	if i, ok := class.Fields[attr]; ok {
		return i, nil
	}
	if class.Declared {
		return 0, fmt.Errorf("class %s has no attribute %s (literalize lists: %d attrs)",
			p.Symbols.Name(class.Name), p.Symbols.Name(attr), len(class.Fields))
	}
	if p.frozen {
		return 0, fmt.Errorf("class %s has no attribute %s (the program is frozen: attribute layouts are fixed at compile time)",
			p.Symbols.Name(class.Name), p.Symbols.Name(attr))
	}
	i := len(class.FieldAttr)
	class.Fields[attr] = i
	class.FieldAttr = append(class.FieldAttr, attr)
	return i, nil
}

// AttrName renders a field index of a class back to its attribute name,
// for tracing and WME printing. Continuation fields of a vector attribute
// (every field past VectorField) render as "" so printers emit the values
// bare, after the single ^attr of the vector's first field.
func (p *Program) AttrName(class symbols.ID, field int) string {
	if c, ok := p.Classes[class]; ok {
		if field > 0 && field < len(c.FieldAttr) {
			return p.Symbols.Name(c.FieldAttr[field])
		}
		if c.VectorField > 0 && field > c.VectorField {
			return ""
		}
	}
	return fmt.Sprintf("f%d", field)
}

// ExciseRule removes a parsed rule by name and reports whether it
// existed. It implements the top-level (excise name) form evaluated
// during Parse; at runtime the engine recompiles its network without
// the rule instead and leaves the (possibly shared) Program untouched.
func (p *Program) ExciseRule(name string) bool {
	for i, r := range p.Rules {
		if r.Name == name {
			p.Rules = append(p.Rules[:i], p.Rules[i+1:]...)
			return true
		}
	}
	return false
}

// RuleByName finds a rule, for tests and tooling.
func (p *Program) RuleByName(name string) *Rule {
	for _, r := range p.Rules {
		if r.Name == name {
			return r
		}
	}
	return nil
}
