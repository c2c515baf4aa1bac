// Package rhs compiles production right-hand sides into threaded code —
// flat instruction vectors interpreted at run time, as in the paper
// (§3.3): RHS evaluation is not the bottleneck, so the simpler-to-compile
// threaded form is fast enough. Only the control process executes RHS
// code.
package rhs

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/symbols"
	"repro/internal/wm"
)

// Op is a threaded-code opcode.
type Op uint8

// Opcodes.
const (
	OpPushConst Op = iota
	OpPushBinding
	OpPushLocal
	OpCompute
	OpPushCrlf
	OpPushTabto
	OpPushAccept
	OpMake
	OpModify
	OpRemove
	OpBind
	OpWrite
	OpHalt
	OpPushAcceptLine // pushes a whole line of accepted values
)

// Instr is one threaded-code instruction. A and B are operand slots
// whose meaning depends on the opcode (documented at each use).
type Instr struct {
	Op     Op
	A, B   int
	Val    wm.Value
	Class  symbols.ID
	Fields []int // make/modify: destination field per popped value
}

// Compiled is the threaded code of one production's RHS.
type Compiled struct {
	Rule   *rete.CompiledRule
	Code   []Instr
	Locals int

	// Accepts and AcceptLines count the (accept) and (acceptline) reads
	// this RHS performs. Threaded code has no control flow, so the counts
	// are exact; the engine uses them to ask its IO for readiness before
	// firing, suspending cleanly instead of blocking mid-RHS.
	Accepts     int
	AcceptLines int
}

// Env provides the runtime services threaded code calls back into. The
// engine implements the working-memory changes so it can feed the match
// processes as each change is computed (the pipelining of §3.1).
type Env struct {
	Prog   *ops5.Program
	Out    io.Writer
	Accept func() wm.Value
	// AcceptLine reads one whole input line as a value vector, for
	// (acceptline) splicing into a vector attribute.
	AcceptLine func() []wm.Value
	// Make asserts a new WME with the given field vector.
	Make func(fields []wm.Value)
	// Remove retracts a WME that matched the firing instantiation.
	Remove func(w *wm.WME)
	// Modify retracts w and asserts a WME with the new field vector
	// (OPS5 treats modify as delete + add with a fresh time tag).
	Modify func(w *wm.WME, fields []wm.Value)
	// Halt stops the recognize-act loop after this RHS completes.
	Halt func()
}

// Compile translates a production's actions into threaded code, resolving
// variables against the rule's Rete bindings and bind-created locals.
func Compile(prog *ops5.Program, cr *rete.CompiledRule) (*Compiled, error) {
	c := &compiler{prog: prog, cr: cr, locals: map[string]int{}}
	for _, act := range cr.Rule.Actions {
		if err := c.action(act); err != nil {
			return nil, fmt.Errorf("production %s: %w", cr.Rule.Name, err)
		}
	}
	out := &Compiled{Rule: cr, Code: c.code, Locals: len(c.locals)}
	for _, in := range out.Code {
		switch in.Op {
		case OpPushAccept:
			out.Accepts++
		case OpPushAcceptLine:
			out.AcceptLines++
		}
	}
	return out, nil
}

type compiler struct {
	prog   *ops5.Program
	cr     *rete.CompiledRule
	code   []Instr
	locals map[string]int
}

func (c *compiler) emit(i Instr) { c.code = append(c.code, i) }

// expr emits code leaving one value on the stack.
func (c *compiler) expr(e *ops5.Expr) error {
	switch e.Kind {
	case ops5.ExprConst:
		c.emit(Instr{Op: OpPushConst, Val: e.Const})
	case ops5.ExprVar:
		if slot, ok := c.locals[e.Var]; ok {
			c.emit(Instr{Op: OpPushLocal, A: slot})
			return nil
		}
		ref, ok := c.cr.Bindings[e.Var]
		if !ok {
			return fmt.Errorf("variable <%s> unbound in RHS", e.Var)
		}
		// A: WME position in the instantiation, B: field index.
		c.emit(Instr{Op: OpPushBinding, A: ref.Pos, B: ref.Field})
	case ops5.ExprCompute:
		if err := c.expr(e.L); err != nil {
			return err
		}
		if err := c.expr(e.R); err != nil {
			return err
		}
		c.emit(Instr{Op: OpCompute, A: int(e.Op)})
	case ops5.ExprCrlf:
		c.emit(Instr{Op: OpPushCrlf})
	case ops5.ExprTabto:
		c.emit(Instr{Op: OpPushTabto, A: int(e.Const.Num)})
	case ops5.ExprAccept:
		c.emit(Instr{Op: OpPushAccept})
	case ops5.ExprAcceptLine:
		c.emit(Instr{Op: OpPushAcceptLine})
	default:
		return fmt.Errorf("unsupported expression kind %d", e.Kind)
	}
	return nil
}

func (c *compiler) action(act *ops5.Action) error {
	switch act.Kind {
	case ops5.ActMake:
		fields := make([]int, 0, len(act.Sets))
		for _, s := range act.Sets {
			if err := c.expr(s.Expr); err != nil {
				return err
			}
			fields = append(fields, s.Field)
		}
		// A: number of pushed values; Fields: their destinations.
		c.emit(Instr{Op: OpMake, A: len(fields), Class: act.Class, Fields: fields})
	case ops5.ActModify:
		fields := make([]int, 0, len(act.Sets))
		for _, s := range act.Sets {
			if err := c.expr(s.Expr); err != nil {
				return err
			}
			fields = append(fields, s.Field)
		}
		pos := c.cr.CEPos[act.CEIndex-1]
		// A: value count, B: WME position of the modified CE.
		c.emit(Instr{Op: OpModify, A: len(fields), B: pos, Fields: fields})
	case ops5.ActRemove:
		c.emit(Instr{Op: OpRemove, B: c.cr.CEPos[act.CEIndex-1]})
	case ops5.ActBind:
		if err := c.expr(act.Args[0]); err != nil {
			return err
		}
		slot, ok := c.locals[act.Var]
		if !ok {
			slot = len(c.locals)
			c.locals[act.Var] = slot
		}
		c.emit(Instr{Op: OpBind, A: slot})
	case ops5.ActWrite:
		for _, a := range act.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		c.emit(Instr{Op: OpWrite, A: len(act.Args)})
	case ops5.ActHalt:
		c.emit(Instr{Op: OpHalt})
	default:
		return fmt.Errorf("unsupported action kind %d", act.Kind)
	}
	return nil
}

// rval is a stack slot: a value, a whole accepted line of values, or a
// write-formatting directive.
type rval struct {
	v      wm.Value
	line   []wm.Value // (acceptline) result, spliced by make/modify/write
	isLine bool
	crlf   bool
	tabto  int // > 0: tab to column
}

// first collapses a slot to a single value: a line contributes its first
// value (or nil when empty), matching OPS5's scalar coercion.
func (r rval) first() wm.Value {
	if r.isLine {
		if len(r.line) == 0 {
			return wm.Nil
		}
		return r.line[0]
	}
	return r.v
}

// Exec interprets the threaded code for one firing. wmes is the
// instantiation's WME list. It returns the number of instructions
// interpreted (the simulator's RHS cost driver).
func Exec(c *Compiled, wmes []*wm.WME, env *Env) (int, error) {
	var stack []rval
	locals := make([]wm.Value, c.Locals)
	pop := func() rval {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return r
	}
	for pc := range c.Code {
		in := &c.Code[pc]
		switch in.Op {
		case OpPushConst:
			stack = append(stack, rval{v: in.Val})
		case OpPushBinding:
			stack = append(stack, rval{v: wmes[in.A].Field(in.B)})
		case OpPushLocal:
			stack = append(stack, rval{v: locals[in.A]})
		case OpCompute:
			r, l := pop(), pop()
			v, err := compute(byte(in.A), l.v, r.v)
			if err != nil {
				return pc, fmt.Errorf("production %s: %w", c.Rule.Rule.Name, err)
			}
			stack = append(stack, rval{v: v})
		case OpPushCrlf:
			stack = append(stack, rval{crlf: true})
		case OpPushTabto:
			stack = append(stack, rval{tabto: in.A})
		case OpPushAccept:
			stack = append(stack, rval{v: env.Accept()})
		case OpPushAcceptLine:
			stack = append(stack, rval{line: env.AcceptLine(), isLine: true})
		case OpMake:
			fields := buildFields(env.Prog, in.Class, nil, in, &stack)
			env.Make(fields)
		case OpModify:
			old := wmes[in.B]
			fields := buildFields(env.Prog, old.Class(), old, in, &stack)
			env.Modify(old, fields)
		case OpRemove:
			env.Remove(wmes[in.B])
		case OpBind:
			locals[in.A] = pop().first()
		case OpWrite:
			args := stack[len(stack)-in.A:]
			stack = stack[:len(stack)-in.A]
			writeArgs(env, args)
		case OpHalt:
			env.Halt()
		}
	}
	return len(c.Code), nil
}

// buildFields assembles the field vector for a make or modify: the class
// layout's width, seeded from old for modify, with the popped values
// stored at their destination fields. Vector attributes can extend the
// vector beyond the literalized width: explicit continuation values land
// past NumFields, and an (acceptline) splices its whole line starting at
// its destination field.
func buildFields(prog *ops5.Program, class symbols.ID, old *wm.WME, in *Instr, stack *[]rval) []wm.Value {
	n := prog.ClassOf(class).NumFields()
	if old != nil && len(old.Fields) > n {
		n = len(old.Fields)
	}
	vals := (*stack)[len(*stack)-in.A:]
	*stack = (*stack)[:len(*stack)-in.A]
	for i, f := range in.Fields {
		end := f + 1
		if vals[i].isLine {
			end = f + len(vals[i].line)
		}
		if end > n {
			n = end
		}
	}
	fields := make([]wm.Value, n)
	fields[0] = wm.Sym(class)
	if old != nil {
		copy(fields, old.Fields)
	}
	for i, f := range in.Fields {
		if vals[i].isLine {
			for k, v := range vals[i].line {
				fields[f+k] = v
			}
			continue
		}
		fields[f] = vals[i].v
	}
	return fields
}

func writeArgs(env *Env, args []rval) {
	if env.Out == nil {
		return
	}
	col := 0
	var b strings.Builder
	for i, a := range args {
		switch {
		case a.crlf:
			b.WriteByte('\n')
			col = 0
		case a.tabto > 0:
			for col < a.tabto-1 {
				b.WriteByte(' ')
				col++
			}
		case a.isLine:
			for j, v := range a.line {
				if (i > 0 || j > 0) && col > 0 {
					b.WriteByte(' ')
					col++
				}
				s := v.String(env.Prog.Symbols)
				b.WriteString(s)
				col += len(s)
			}
		default:
			if i > 0 && col > 0 {
				b.WriteByte(' ')
				col++
			}
			s := a.v.String(env.Prog.Symbols)
			b.WriteString(s)
			col += len(s)
		}
	}
	io.WriteString(env.Out, b.String())
}

// ComputeOp applies one OPS5 compute operator to two values; the engine
// uses it to fold constant expressions in top-level makes.
func ComputeOp(op byte, l, r wm.Value) (wm.Value, error) { return compute(op, l, r) }

func compute(op byte, l, r wm.Value) (wm.Value, error) {
	if !l.IsNumber() || !r.IsNumber() {
		return wm.Nil, fmt.Errorf("compute on non-numeric value")
	}
	if l.Kind == wm.KindInt && r.Kind == wm.KindInt {
		a, b := l.Num, r.Num
		switch op {
		case '+':
			return wm.Int(a + b), nil
		case '-':
			return wm.Int(a - b), nil
		case '*':
			return wm.Int(a * b), nil
		case '/':
			if b == 0 {
				return wm.Nil, fmt.Errorf("division by zero")
			}
			return wm.Int(a / b), nil
		case '%':
			if b == 0 {
				return wm.Nil, fmt.Errorf("modulus by zero")
			}
			return wm.Int(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case '+':
		return wm.Float(a + b), nil
	case '-':
		return wm.Float(a - b), nil
	case '*':
		return wm.Float(a * b), nil
	case '/':
		if b == 0 {
			return wm.Nil, fmt.Errorf("division by zero")
		}
		return wm.Float(a / b), nil
	case '%':
		return wm.Nil, fmt.Errorf("modulus on floats")
	}
	return wm.Nil, fmt.Errorf("unknown compute operator %q", op)
}
