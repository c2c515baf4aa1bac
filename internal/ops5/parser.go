package ops5

import (
	"fmt"

	"repro/internal/symbols"
	"repro/internal/wm"
)

// ParseTopLevelMake parses a single (make ...) form against an existing
// program, interning symbols and auto-extending undeclared classes in
// place — the OPS5 top-level make, used by the REPL.
func (prog *Program) ParseTopLevelMake(src string) (*Action, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, prog: prog}
	if _, err := p.expect(tokLParen, "("); err != nil {
		return nil, err
	}
	head, err := p.expect(tokSym, "make")
	if err != nil {
		return nil, err
	}
	if head.text != "make" {
		return nil, fmt.Errorf("expected a (make ...) form, got %q", head.text)
	}
	act, err := p.parseMakeBody(nil, head.line)
	if err != nil {
		return nil, err
	}
	if err := requireGroundAction(act); err != nil {
		return nil, err
	}
	if p.cur().kind != tokEOF {
		return nil, fmt.Errorf("trailing input after make form")
	}
	return act, nil
}

// Parse parses OPS5 source into a Program. The accepted dialect is
// documented in DESIGN.md: literalize, p, strategy, and top-level make.
func Parse(src string) (*Program, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		prog: &Program{
			Symbols:     symbols.NewTable(),
			Strategy:    "lex",
			Classes:     make(map[symbols.ID]*Class),
			VectorAttrs: make(map[symbols.ID]bool),
			Watch:       -1,
		},
	}
	p.rules = &p.prog.Rules
	if err := p.parseTop(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// ProgramChange is one dynamic program edit: exactly one of Add and
// Excise is set. ParseProductions returns them in source order, which
// matters — (excise r) followed by (p r ...) redefines r.
type ProgramChange struct {
	Add    *Rule
	Excise string
}

// ParseProductions parses a runtime batch of (p ...) and (excise name)
// forms against an existing — typically frozen — program. It interns
// symbols (thread-safe) but never mutates prog.Rules or the class
// tables: new rules are returned to the caller, who owns applying them
// to whichever network it is building. Unknown classes and
// attributes are errors when the program is frozen.
func (prog *Program) ParseProductions(src string) ([]ProgramChange, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	var added []*Rule
	p := &parser{toks: toks, prog: prog, rules: &added}
	var changes []ProgramChange
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return changes, nil
		}
		if t.kind != tokLParen {
			return nil, p.errf(t, "expected (p ...) or (excise ...) form, got %q", t.String())
		}
		p.advance()
		head, err := p.expect(tokSym, "form head")
		if err != nil {
			return nil, err
		}
		switch head.text {
		case "p":
			before := len(added)
			if err := p.parseProduction(head.line); err != nil {
				return nil, err
			}
			changes = append(changes, ProgramChange{Add: added[before]})
		case "excise":
			name, err := p.expect(tokSym, "production name")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			changes = append(changes, ProgramChange{Excise: name.text})
		default:
			return nil, p.errf(head, "only (p ...) and (excise ...) are allowed in a runtime batch, got %q", head.text)
		}
	}
}

type parser struct {
	toks []token
	pos  int
	prog *Program
	// rules is where parseProduction appends finished rules: the
	// program's own list for Parse, a caller-local list for
	// ParseProductions (which must not mutate a shared frozen program).
	rules *[]*Rule
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) advance() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(t token, format string, args ...any) error {
	return fmt.Errorf("line %d: %s", t.line, fmt.Sprintf(format, args...))
}

func (p *parser) expect(k tokKind, what string) (token, error) {
	t := p.advance()
	if t.kind != k {
		return t, p.errf(t, "expected %s, got %q", what, t.String())
	}
	return t, nil
}

func (p *parser) intern(name string) symbols.ID { return p.prog.Symbols.Intern(name) }

// parseTop handles the sequence of top-level forms.
func (p *parser) parseTop() error {
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return nil
		}
		if t.kind != tokLParen {
			return p.errf(t, "expected top-level form, got %q", t.String())
		}
		p.advance()
		head, err := p.expect(tokSym, "form head")
		if err != nil {
			return err
		}
		switch head.text {
		case "literalize":
			if err := p.parseLiteralize(); err != nil {
				return err
			}
		case "p":
			if err := p.parseProduction(head.line); err != nil {
				return err
			}
		case "excise":
			name, err := p.expect(tokSym, "production name")
			if err != nil {
				return err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return err
			}
			if !p.prog.ExciseRule(name.text) {
				return p.errf(name, "excise: no production named %s", name.text)
			}
		case "strategy":
			s, err := p.expect(tokSym, "strategy name")
			if err != nil {
				return err
			}
			if s.text != "lex" && s.text != "mea" {
				return p.errf(s, "unknown strategy %q (want lex or mea)", s.text)
			}
			p.prog.Strategy = s.text
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return err
			}
		case "make":
			act, err := p.parseMakeBody(nil, head.line)
			if err != nil {
				return err
			}
			if err := requireGroundAction(act); err != nil {
				return p.errf(head, "top-level make: %v", err)
			}
			p.prog.InitialMakes = append(p.prog.InitialMakes, act)
		case "vector-attribute":
			if err := p.parseVectorAttribute(); err != nil {
				return err
			}
		case "watch":
			n, err := p.expect(tokNum, "watch level")
			if err != nil {
				return err
			}
			if !n.isInt || n.inum < 0 || n.inum > 2 {
				return p.errf(n, "watch level %s out of range (want 0, 1 or 2)", n.String())
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return err
			}
			p.prog.Watch = int(n.inum)
		default:
			return p.errf(head, "unknown top-level form %q", head.text)
		}
	}
}

// parseLiteralize reads (literalize class attr...).
func (p *parser) parseLiteralize() error {
	name, err := p.expect(tokSym, "class name")
	if err != nil {
		return err
	}
	id := p.intern(name.text)
	if c, ok := p.prog.Classes[id]; ok && c.Declared {
		return p.errf(name, "class %s literalized twice", name.text)
	}
	c := p.prog.ClassOf(id)
	c.Declared = true
	for {
		t := p.advance()
		switch t.kind {
		case tokRParen:
			return p.checkVectorLayout(c, t)
		case tokSym:
			a := p.intern(t.text)
			if _, dup := c.Fields[a]; dup {
				return p.errf(t, "attribute %s repeated in literalize %s", t.text, name.text)
			}
			c.Fields[a] = len(c.FieldAttr)
			c.FieldAttr = append(c.FieldAttr, a)
		default:
			return p.errf(t, "expected attribute name in literalize, got %q", t.String())
		}
	}
}

// checkVectorLayout validates that any attribute of class c declared by a
// (vector-attribute ...) form sits in the last literalized field, and
// records it as the class's vector field. It runs both when a literalize
// completes and when a vector-attribute form names an already-literalized
// attribute, so the two declarations may appear in either order.
func (p *parser) checkVectorLayout(c *Class, at token) error {
	for a, i := range c.Fields {
		if !p.prog.VectorAttrs[a] {
			continue
		}
		if i != len(c.FieldAttr)-1 {
			return p.errf(at, "vector attribute %s must be the last literalize field of class %s",
				p.prog.Symbols.Name(a), p.prog.Symbols.Name(c.Name))
		}
		c.VectorField = i
	}
	return nil
}

// parseVectorAttribute reads (vector-attribute attr...). The named
// attributes hold variable-length value vectors occupying the trailing
// fields of their WMEs; each must be the last field of every class that
// literalizes it.
func (p *parser) parseVectorAttribute() error {
	n := 0
	for {
		t := p.advance()
		switch t.kind {
		case tokRParen:
			if n == 0 {
				return p.errf(t, "vector-attribute needs at least one attribute name")
			}
			return nil
		case tokSym:
			p.prog.VectorAttrs[p.intern(t.text)] = true
			n++
			for _, c := range p.prog.Classes {
				if c.Declared {
					if err := p.checkVectorLayout(c, t); err != nil {
						return err
					}
				}
			}
		default:
			return p.errf(t, "expected attribute name in vector-attribute, got %q", t.String())
		}
	}
}

// parseProduction reads the remainder of (p name CE... --> action...).
func (p *parser) parseProduction(line int) error {
	name, err := p.expect(tokSym, "production name")
	if err != nil {
		return err
	}
	r := &Rule{Name: name.text, Line: line}
	// Left-hand side: condition elements until -->.
	for {
		t := p.cur()
		if t.kind == tokSym && t.text == "-->" {
			p.advance()
			break
		}
		neg := false
		if t.kind == tokSym && t.text == "-" {
			neg = true
			p.advance()
			t = p.cur()
		}
		var ce *CondElem
		var err error
		switch t.kind {
		case tokLParen:
			ce, err = p.parseCE(neg)
		case tokLBrace:
			// { <var> (pattern) } binds the element to a variable the
			// RHS can name in remove/modify. Negated elements match no
			// element, so they cannot carry one.
			if neg {
				return p.errf(t, "negated condition element cannot have an element variable")
			}
			ce, err = p.parseElemCE()
		default:
			return p.errf(t, "expected condition element in %s, got %q", r.Name, t.String())
		}
		if err != nil {
			return fmt.Errorf("production %s: %w", r.Name, err)
		}
		r.CEs = append(r.CEs, ce)
	}
	if len(r.CEs) == 0 {
		return p.errf(name, "production %s has no condition elements", r.Name)
	}
	if r.PositiveCEs() == 0 {
		return p.errf(name, "production %s has only negated condition elements", r.Name)
	}
	// Right-hand side: actions until the closing paren of the p form.
	for {
		t := p.cur()
		if t.kind == tokRParen {
			p.advance()
			break
		}
		if t.kind != tokLParen {
			return p.errf(t, "expected action in %s, got %q", r.Name, t.String())
		}
		act, err := p.parseAction(r)
		if err != nil {
			return fmt.Errorf("production %s: %w", r.Name, err)
		}
		r.Actions = append(r.Actions, act)
	}
	if err := checkRule(p.prog, r); err != nil {
		return fmt.Errorf("production %s: %w", r.Name, err)
	}
	*p.rules = append(*p.rules, r)
	return nil
}

// classRef resolves a class reference, honouring the freeze: on a
// frozen program an unknown class is a parse error rather than an
// implicit declaration.
func (p *parser) classRef(at token, name string) (*Class, error) {
	id := p.intern(name)
	if c, ok := p.prog.Classes[id]; ok {
		return c, nil
	}
	if p.prog.Frozen() {
		return nil, p.errf(at, "class %s is not defined (the program is frozen: new classes cannot be introduced at runtime)", name)
	}
	return p.prog.ClassOf(id), nil
}

// parseElemCE reads { <var> (pattern) } or { (pattern) <var> }.
func (p *parser) parseElemCE() (*CondElem, error) {
	open := p.advance() // consume {
	var elemVar string
	var ce *CondElem
	for i := 0; i < 2; i++ {
		t := p.cur()
		switch t.kind {
		case tokVar:
			if elemVar != "" {
				return nil, p.errf(t, "element binding has two variables")
			}
			elemVar = t.text
			p.advance()
		case tokLParen:
			if ce != nil {
				return nil, p.errf(t, "element binding has two patterns")
			}
			var err error
			ce, err = p.parseCE(false)
			if err != nil {
				return nil, err
			}
		default:
			return nil, p.errf(t, "expected <variable> or (pattern) in element binding, got %q", t.String())
		}
	}
	if elemVar == "" || ce == nil {
		return nil, p.errf(open, "element binding needs both a variable and a pattern")
	}
	if _, err := p.expect(tokRBrace, "}"); err != nil {
		return nil, err
	}
	ce.ElemVar = elemVar
	return ce, nil
}

// parseCE reads one parenthesized condition element.
func (p *parser) parseCE(negated bool) (*CondElem, error) {
	open, err := p.expect(tokLParen, "(")
	if err != nil {
		return nil, err
	}
	cls, err := p.expect(tokSym, "class name")
	if err != nil {
		return nil, err
	}
	ce := &CondElem{Negated: negated, Class: p.intern(cls.text), Line: open.line}
	class, err := p.classRef(cls, cls.text)
	if err != nil {
		return nil, err
	}
	for {
		t := p.advance()
		switch t.kind {
		case tokRParen:
			return ce, nil
		case tokAttr:
			attr := p.intern(t.text)
			field, err := p.prog.FieldIndex(class, attr)
			if err != nil {
				return nil, p.errf(t, "%v", err)
			}
			terms, err := p.parseAttrValue()
			if err != nil {
				return nil, err
			}
			ce.Tests = append(ce.Tests, AttrTest{Field: field, Attr: attr, Terms: terms})
			if class.VectorField > 0 && field == class.VectorField {
				// Vector attribute: further value terms before the next
				// ^attr or ) test the consecutive continuation fields.
				for k := 1; !atValueEnd(p.cur().kind); k++ {
					terms, err := p.parseAttrValue()
					if err != nil {
						return nil, err
					}
					ce.Tests = append(ce.Tests, AttrTest{Field: field + k, Attr: attr, Terms: terms})
				}
			}
		default:
			return nil, p.errf(t, "expected ^attribute in condition element, got %q", t.String())
		}
	}
}

// atValueEnd reports that the token after a vector attribute's value
// terminates the run of continuation values.
func atValueEnd(k tokKind) bool {
	return k == tokRParen || k == tokAttr || k == tokEOF
}

// parseAttrValue reads the value part after ^attr: a single term, a
// curly-brace conjunction, or a disjunction of constants.
func (p *parser) parseAttrValue() ([]TestTerm, error) {
	t := p.cur()
	switch t.kind {
	case tokLBrace:
		p.advance()
		var terms []TestTerm
		for {
			if p.cur().kind == tokRBrace {
				p.advance()
				if len(terms) == 0 {
					return nil, p.errf(t, "empty {} conjunction")
				}
				return terms, nil
			}
			term, err := p.parseTerm()
			if err != nil {
				return nil, err
			}
			terms = append(terms, term)
		}
	default:
		term, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		return []TestTerm{term}, nil
	}
}

// parseTerm reads one predicate application: [pred] operand, or a
// disjunction << c1 c2 ... >>.
func (p *parser) parseTerm() (TestTerm, error) {
	t := p.advance()
	pred := PredEQ
	if t.kind == tokPred {
		switch t.text {
		case "=":
			pred = PredEQ
		case "<>":
			pred = PredNE
		case "<":
			pred = PredLT
		case "<=":
			pred = PredLE
		case ">":
			pred = PredGT
		case ">=":
			pred = PredGE
		case "<=>":
			pred = PredSameType
		}
		t = p.advance()
	}
	switch t.kind {
	case tokLDisj:
		if pred != PredEQ {
			return TestTerm{}, p.errf(t, "disjunction << >> only supports equality")
		}
		var disj []wm.Value
		for {
			d := p.advance()
			switch d.kind {
			case tokRDisj:
				if len(disj) == 0 {
					return TestTerm{}, p.errf(t, "empty << >> disjunction")
				}
				return TestTerm{Pred: PredEQ, Disj: disj}, nil
			case tokSym:
				disj = append(disj, p.symVal(d.text))
			case tokNum:
				disj = append(disj, numVal(d))
			default:
				return TestTerm{}, p.errf(d, "only constants allowed in << >>, got %q", d.String())
			}
		}
	case tokVar:
		return TestTerm{Pred: pred, IsVar: true, Var: t.text}, nil
	case tokSym:
		return TestTerm{Pred: pred, Const: p.symVal(t.text)}, nil
	case tokNum:
		return TestTerm{Pred: pred, Const: numVal(t)}, nil
	default:
		return TestTerm{}, p.errf(t, "expected test value, got %q", t.String())
	}
}

func numVal(t token) wm.Value {
	if t.isInt {
		return wm.Int(t.inum)
	}
	return wm.Float(t.num)
}

// symVal interns a symbol constant. The symbol nil is the distinguished
// unset value: OPS5 attributes that were never assigned hold nil, and
// (make c ^a nil) must store the same value that matching tests compare
// against.
func (p *parser) symVal(text string) wm.Value {
	if text == "nil" {
		return wm.Nil
	}
	return wm.Sym(p.intern(text))
}

// parseAction reads one parenthesized RHS action. rule is nil for
// top-level makes.
func (p *parser) parseAction(rule *Rule) (*Action, error) {
	open, err := p.expect(tokLParen, "(")
	if err != nil {
		return nil, err
	}
	head, err := p.expect(tokSym, "action name")
	if err != nil {
		return nil, err
	}
	switch head.text {
	case "make":
		return p.parseMakeBody(rule, open.line)
	case "modify":
		return p.parseModifyBody(rule, open.line)
	case "remove":
		idx, n, err := p.ceRef(rule)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		act := &Action{Kind: ActRemove, CEIndex: idx, Line: open.line}
		return act, p.checkCEIndex(rule, act, n)
	case "bind":
		v, err := p.expect(tokVar, "variable")
		if err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return &Action{Kind: ActBind, Var: v.text, Args: []*Expr{e}, Line: open.line}, nil
	case "write":
		act := &Action{Kind: ActWrite, Line: open.line}
		for p.cur().kind != tokRParen {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			act.Args = append(act.Args, e)
		}
		p.advance()
		return act, nil
	case "halt":
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return &Action{Kind: ActHalt, Line: open.line}, nil
	default:
		return nil, p.errf(head, "unknown action %q", head.text)
	}
}

func (p *parser) checkCEIndex(rule *Rule, act *Action, at token) error {
	if rule == nil {
		return p.errf(at, "modify/remove not allowed at top level")
	}
	if act.CEIndex < 1 || act.CEIndex > len(rule.CEs) {
		return p.errf(at, "condition-element index %d out of range 1..%d", act.CEIndex, len(rule.CEs))
	}
	if rule.CEs[act.CEIndex-1].Negated {
		return p.errf(at, "cannot modify/remove negated condition element %d", act.CEIndex)
	}
	return nil
}

// parseMakeBody reads the tail of (make class ^attr expr ...).
func (p *parser) parseMakeBody(rule *Rule, line int) (*Action, error) {
	cls, err := p.expect(tokSym, "class name")
	if err != nil {
		return nil, err
	}
	act := &Action{Kind: ActMake, Class: p.intern(cls.text), Line: line}
	class, err := p.classRef(cls, cls.text)
	if err != nil {
		return nil, err
	}
	if err := p.parseSets(act, class); err != nil {
		return nil, err
	}
	return act, nil
}

// ceRef reads a condition-element reference: a 1-based number or an
// element variable bound with { <var> (pattern) }.
func (p *parser) ceRef(rule *Rule) (int, token, error) {
	t := p.advance()
	switch t.kind {
	case tokNum:
		return int(t.inum), t, nil
	case tokVar:
		if rule != nil {
			for i, ce := range rule.CEs {
				if ce.ElemVar == t.text {
					return i + 1, t, nil
				}
			}
		}
		return 0, t, p.errf(t, "no element variable <%s> in this production", t.text)
	}
	return 0, t, p.errf(t, "expected condition-element number or element variable, got %q", t.String())
}

// parseModifyBody reads the tail of (modify k ^attr expr ...).
func (p *parser) parseModifyBody(rule *Rule, line int) (*Action, error) {
	idx, n, err := p.ceRef(rule)
	if err != nil {
		return nil, err
	}
	act := &Action{Kind: ActModify, CEIndex: idx, Line: line}
	if err := p.checkCEIndex(rule, act, n); err != nil {
		return nil, err
	}
	class := p.prog.ClassOf(rule.CEs[act.CEIndex-1].Class)
	act.Class = class.Name // lets printers resolve the class's vector field
	if err := p.parseSets(act, class); err != nil {
		return nil, err
	}
	return act, nil
}

// parseSets reads ^attr expr pairs up to the closing paren.
func (p *parser) parseSets(act *Action, class *Class) error {
	for {
		t := p.advance()
		switch t.kind {
		case tokRParen:
			return nil
		case tokAttr:
			attr := p.intern(t.text)
			field, err := p.prog.FieldIndex(class, attr)
			if err != nil {
				return p.errf(t, "%v", err)
			}
			e, err := p.parseExpr()
			if err != nil {
				return err
			}
			act.Sets = append(act.Sets, AttrSet{Attr: attr, Field: field, Expr: e})
			if class.VectorField > 0 && field == class.VectorField {
				// Vector attribute: further expressions before the next
				// ^attr or ) fill the consecutive continuation fields.
				for k := 1; !atValueEnd(p.cur().kind); k++ {
					e, err := p.parseExpr()
					if err != nil {
						return err
					}
					act.Sets = append(act.Sets, AttrSet{Attr: attr, Field: field + k, Expr: e})
				}
			}
		default:
			return p.errf(t, "expected ^attribute in %s, got %q", actName(act.Kind), t.String())
		}
	}
}

func actName(k ActionKind) string {
	switch k {
	case ActMake:
		return "make"
	case ActModify:
		return "modify"
	case ActRemove:
		return "remove"
	case ActBind:
		return "bind"
	case ActWrite:
		return "write"
	case ActHalt:
		return "halt"
	}
	return "?"
}

// parseExpr reads one RHS value: constant, variable, or a parenthesized
// special form (compute/crlf/tabto/accept).
func (p *parser) parseExpr() (*Expr, error) {
	t := p.advance()
	switch t.kind {
	case tokVar:
		return &Expr{Kind: ExprVar, Var: t.text}, nil
	case tokSym:
		return &Expr{Kind: ExprConst, Const: p.symVal(t.text)}, nil
	case tokNum:
		return &Expr{Kind: ExprConst, Const: numVal(t)}, nil
	case tokLParen:
		head, err := p.expect(tokSym, "special form name")
		if err != nil {
			return nil, err
		}
		switch head.text {
		case "compute":
			e, err := p.parseCompute()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return e, nil
		case "crlf":
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprCrlf}, nil
		case "tabto":
			n, err := p.expect(tokNum, "column")
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen, ")"); err != nil {
				return nil, err
			}
			return &Expr{Kind: ExprTabto, Const: wm.Int(n.inum)}, nil
		case "accept":
			if p.cur().kind != tokRParen {
				return nil, p.errf(head, "(accept) takes no arguments")
			}
			p.advance()
			return &Expr{Kind: ExprAccept}, nil
		case "acceptline":
			if p.cur().kind != tokRParen {
				return nil, p.errf(head, "(acceptline) takes no arguments")
			}
			p.advance()
			return &Expr{Kind: ExprAcceptLine}, nil
		default:
			return nil, p.errf(head, "unknown value form %q", head.text)
		}
	default:
		return nil, p.errf(t, "expected RHS value, got %q", t.String())
	}
}

// parseCompute reads an infix compute body. OPS5 compute has no operator
// precedence and associates right-to-left: a + b * c = a + (b * c).
func (p *parser) parseCompute() (*Expr, error) {
	lhs, err := p.parseComputeOperand()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	var op byte
	switch {
	case t.kind == tokSym && t.text == "+":
		op = '+'
	case t.kind == tokSym && t.text == "-":
		op = '-'
	case t.kind == tokSym && t.text == "*":
		op = '*'
	case t.kind == tokSym && t.text == "//":
		op = '/'
	case t.kind == tokSym && t.text == "\\\\":
		op = '%'
	default:
		return lhs, nil
	}
	p.advance()
	rhs, err := p.parseCompute()
	if err != nil {
		return nil, err
	}
	return &Expr{Kind: ExprCompute, Op: op, L: lhs, R: rhs}, nil
}

func (p *parser) parseComputeOperand() (*Expr, error) {
	t := p.advance()
	switch t.kind {
	case tokVar:
		return &Expr{Kind: ExprVar, Var: t.text}, nil
	case tokNum:
		return &Expr{Kind: ExprConst, Const: numVal(t)}, nil
	case tokLParen:
		// Nested parenthesized compute sub-expression.
		e, err := p.parseCompute()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf(t, "expected compute operand, got %q", t.String())
	}
}

// requireGroundAction rejects variables in top-level makes, which have
// no bindings to draw from.
func requireGroundAction(act *Action) error {
	var walk func(e *Expr) error
	walk = func(e *Expr) error {
		if e == nil {
			return nil
		}
		if e.Kind == ExprVar {
			return fmt.Errorf("variable <%s> outside a production", e.Var)
		}
		if err := walk(e.L); err != nil {
			return err
		}
		return walk(e.R)
	}
	for _, s := range act.Sets {
		if err := walk(s.Expr); err != nil {
			return err
		}
	}
	return nil
}

// checkRule validates variable usage: every variable consumed by the RHS
// or by a negated CE must be bound by a positive CE or a bind action
// before use.
func checkRule(prog *Program, r *Rule) error {
	bound := make(map[string]bool)
	for _, ce := range r.CEs {
		if ce.Negated {
			continue
		}
		for _, at := range ce.Tests {
			for _, term := range at.Terms {
				if term.IsVar && term.Pred == PredEQ {
					bound[term.Var] = true
				}
			}
		}
	}
	// Negated CEs may only *test* variables bound positively, except that
	// variables appearing solely inside one negated CE act as wildcards
	// bound within that CE (standard OPS5 semantics, handled by the Rete
	// compiler); nothing to reject here.
	var checkExpr func(e *Expr) error
	checkExpr = func(e *Expr) error {
		if e == nil {
			return nil
		}
		if e.Kind == ExprVar && !bound[e.Var] {
			return fmt.Errorf("variable <%s> used in RHS but never bound", e.Var)
		}
		if err := checkExpr(e.L); err != nil {
			return err
		}
		return checkExpr(e.R)
	}
	for _, act := range r.Actions {
		for _, s := range act.Sets {
			if err := checkExpr(s.Expr); err != nil {
				return err
			}
		}
		for _, a := range act.Args {
			if err := checkExpr(a); err != nil {
				return err
			}
		}
		if act.Kind == ActBind {
			bound[act.Var] = true
		}
	}
	return nil
}
