// Package repl implements the interactive OPS5 top level: the command
// loop the original interpreter offered around a loaded program — run,
// wm, pm, cs, matches, make, remove — built on the vs2 matcher so the
// matches command can inspect the token hash tables.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/seqmatch"
)

// REPL holds one interactive session.
type REPL struct {
	prog    *ops5.Program
	net     *rete.Network
	cs      *conflict.Set
	matcher *seqmatch.Matcher
	eng     *engine.Engine
	out     io.Writer
	watch   int // 0 silent, 1 firings, 2 firings + WM changes
}

// New loads a program into a fresh session. Top-level makes run
// immediately, as the OPS5 loader did.
func New(src string, out io.Writer) (*REPL, error) {
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, err
	}
	net, err := rete.Compile(prog)
	if err != nil {
		return nil, err
	}
	cs := conflict.NewSet()
	m := seqmatch.New(net, seqmatch.VS2, 0, cs)
	eng, err := engine.New(prog, net, cs, m, out)
	if err != nil {
		return nil, err
	}
	if err := eng.Init(); err != nil {
		return nil, err
	}
	// The program's own (watch N) declaration sets the initial trace
	// level; without one the top level defaults to tracing firings.
	watch := 1
	if prog.Watch >= 0 {
		watch = prog.Watch
	}
	return &REPL{prog: prog, net: net, cs: cs, matcher: m, eng: eng, out: out, watch: watch}, nil
}

// Run reads commands until exit or EOF. Parenthesized forms may span
// lines: input accumulates until the parens balance, so a production
// can be typed at the prompt the way it appears in a source file.
func (r *REPL) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	// (accept)/(acceptline) read from the same input stream, the way the
	// original top level shared the terminal between commands and input.
	r.eng.IO = engine.NewScannerIO(r.prog.Symbols, sc)
	fmt.Fprintln(r.out, `ops5 top level — "help" lists commands`)
	var pending strings.Builder
	depth := 0
	for {
		if pending.Len() == 0 {
			fmt.Fprint(r.out, "> ")
		} else {
			fmt.Fprint(r.out, "... ")
		}
		if !sc.Scan() {
			fmt.Fprintln(r.out)
			return sc.Err()
		}
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 {
			if trimmed == "" {
				continue
			}
			if trimmed == "exit" || trimmed == "quit" {
				return nil
			}
			if !strings.HasPrefix(trimmed, "(") {
				if err := r.Exec(trimmed); err != nil {
					fmt.Fprintln(r.out, "error:", err)
				}
				continue
			}
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		depth += strings.Count(line, "(") - strings.Count(line, ")")
		if depth > 0 {
			continue
		}
		form := pending.String()
		pending.Reset()
		depth = 0
		if err := r.Exec(form); err != nil {
			fmt.Fprintln(r.out, "error:", err)
		}
	}
}

// formHead returns the head symbol of a parenthesized form, e.g. "p"
// for "(p r1 ...)".
func formHead(form string) string {
	fields := strings.Fields(strings.TrimPrefix(form, "("))
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// Exec runs one command line or one complete parenthesized form. A
// blank or whitespace-only line is a no-op, so callers other than Run
// can pass raw input safely.
func (r *REPL) Exec(line string) error {
	line = strings.TrimSpace(line)
	if strings.HasPrefix(line, "(") {
		switch formHead(line) {
		case "p", "excise":
			return r.doBuild(line)
		case "watch":
			// (watch N) at the prompt is the command in its source form.
			inner := strings.TrimSuffix(strings.TrimPrefix(line, "("), ")")
			return r.Exec(strings.TrimSpace(inner))
		default:
			return r.doMake(line)
		}
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return nil
	}
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "help":
		r.help()
	case "run":
		return r.doRun(args)
	case "wm":
		r.doWM(args)
	case "pm":
		return r.doPM(args)
	case "rules":
		r.doRules()
	case "cs":
		r.doCS()
	case "matches":
		return r.doMatches(args)
	case "make":
		return r.doMake("(" + line + ")")
	case "remove":
		return r.doRemove(args)
	case "excise":
		if len(args) != 1 {
			return fmt.Errorf("usage: excise <rule>")
		}
		return r.doBuild("(excise " + args[0] + ")")
	case "network":
		s := r.net.Summarize()
		fmt.Fprintf(r.out, "%d rules, %d alpha chains (%d const tests), %d two-input nodes (%d negated), %d terminals\n",
			s.Rules, s.Chains, s.ConstTests, s.Joins, s.NegatedJoins, s.Terminals)
	case "strategy":
		fmt.Fprintln(r.out, r.prog.Strategy)
	case "watch":
		if len(args) != 1 || len(args[0]) != 1 || args[0][0] < '0' || args[0][0] > '2' {
			return fmt.Errorf("usage: watch 0|1|2")
		}
		r.watch = int(args[0][0] - '0')
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

func (r *REPL) help() {
	fmt.Fprint(r.out, `commands:
  run [n]           fire n recognize-act cycles (default: to quiescence)
  wm [class]        print working memory, optionally one class
  pm <rule>         print a production
  rules             list production names
  cs                print the conflict set
  matches <rule>    token counts in the rule's join memories
  make <class> ...  assert a working-memory element, e.g. make goal ^type go
  remove <timetag>  retract the element with that time tag
  (p <name> ...)    build a production into the running engine
  excise <rule>     remove a production (also: the (excise name) form)
  network           network statistics
  strategy          show the conflict-resolution strategy
  watch 0|1|2       trace nothing | firings | firings + WM changes
  exit              leave
`)
}

func (r *REPL) doRun(args []string) error {
	n := 0
	if len(args) > 0 {
		v, err := strconv.Atoi(args[0])
		if err != nil {
			return fmt.Errorf("run: %q is not a number", args[0])
		}
		n = v
	}
	if r.eng.Halted() {
		fmt.Fprintln(r.out, "(halted — assert something to continue matching, firing stays stopped)")
		return nil
	}
	res, err := r.eng.Run(engine.Options{MaxCycles: n, TraceFires: r.watch >= 1, TraceWMEs: r.watch >= 2})
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "%d firings", res.Cycles)
	if res.Halted {
		fmt.Fprint(r.out, " (halt)")
	}
	fmt.Fprintln(r.out)
	return nil
}

func (r *REPL) doWM(args []string) {
	count := 0
	for _, w := range r.eng.WM.Snapshot() {
		s := w.String(r.prog.Symbols, r.prog.AttrName)
		if len(args) > 0 && !strings.HasPrefix(s, "("+args[0]+" ") && s != "("+args[0]+")" {
			continue
		}
		fmt.Fprintf(r.out, "%4d: %s\n", w.TimeTag, s)
		count++
	}
	fmt.Fprintf(r.out, "%d elements\n", count)
}

func (r *REPL) doPM(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: pm <rule>")
	}
	cr := r.net.RuleByName(args[0])
	if cr == nil {
		return fmt.Errorf("no production %q", args[0])
	}
	fmt.Fprintln(r.out, r.prog.FormatRule(cr.Rule))
	return nil
}

func (r *REPL) doRules() {
	for _, cr := range r.net.Rules {
		fmt.Fprintf(r.out, "%s (%d CEs, %d actions)\n", cr.Rule.Name, len(cr.Rule.CEs), len(cr.Rule.Actions))
	}
}

// doBuild applies a batch of (p ...) / (excise name) forms to the live
// engine and reports the resulting epoch and node sharing.
func (r *REPL) doBuild(src string) error {
	added, excised, err := r.eng.AddRules(src)
	for _, name := range excised {
		fmt.Fprintf(r.out, "excised %s\n", name)
	}
	for _, name := range added {
		fmt.Fprintf(r.out, "built %s\n", name)
	}
	r.net = r.eng.Net
	if len(added)+len(excised) > 0 {
		s := r.net.Summarize()
		fmt.Fprintf(r.out, "epoch %d: %d rules, %d chains (%d shared), %d joins (%d shared)\n",
			s.Epoch, s.Rules, s.Chains, s.SharedChains, s.Joins, s.SharedJoins)
	}
	return err
}

func (r *REPL) doCS() {
	insts := r.cs.Snapshot()
	sort.Slice(insts, func(i, j int) bool { return insts[i].Rule.Index < insts[j].Rule.Index })
	next := r.cs.Select() // the one conflict resolution would fire
	for _, inst := range insts {
		var tags []string
		for _, w := range inst.Wmes {
			tags = append(tags, strconv.Itoa(w.TimeTag))
		}
		state := ""
		if inst.Fired {
			state = " (fired)"
		}
		marker := "  "
		if inst == next {
			marker = "=>" // dominant under the active strategy
		}
		fmt.Fprintf(r.out, "%s %s [%s]%s\n", marker, inst.Rule.Rule.Name, strings.Join(tags, " "), state)
	}
	fmt.Fprintf(r.out, "%d instantiations\n", len(insts))
}

// doMatches shows, per two-input node of the rule's chain, the tokens
// in its left and right memories — the OPS5 matches command.
func (r *REPL) doMatches(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: matches <rule>")
	}
	name := args[0]
	cr := r.net.RuleByName(name)
	if cr == nil {
		return fmt.Errorf("no production %q", name)
	}
	sizes := r.matcher.Table.SizeByNode(r.net.NumJoinIDs())
	var joins []*rete.JoinNode
	for _, j := range r.net.Joins {
		for _, rn := range r.net.RuleNamesOf(j) {
			if rn == name {
				joins = append(joins, j)
			}
		}
	}
	sort.Slice(joins, func(i, k int) bool { return joins[i].LeftLen < joins[k].LeftLen })
	for _, j := range joins {
		kind := "and"
		if j.Negated {
			kind = "not"
		}
		shared := ""
		if n := len(r.net.RuleNamesOf(j)); n > 1 {
			shared = fmt.Sprintf(" (shared with %d rules)", n-1)
		}
		fmt.Fprintf(r.out, "join %d [%s, %d CEs matched]: left %d tokens, right %d tokens%s\n",
			j.ID, kind, j.LeftLen, sizes[j.ID][0], sizes[j.ID][1], shared)
	}
	n := 0
	for _, inst := range r.cs.Snapshot() {
		if inst.Rule == cr {
			n++
		}
	}
	fmt.Fprintf(r.out, "%d complete instantiations\n", n)
	return nil
}

func (r *REPL) doMake(form string) error {
	act, err := r.prog.ParseTopLevelMake(form)
	if err != nil {
		return err
	}
	fields, err := engine.MakeFields(r.prog, act)
	if err != nil {
		return err
	}
	w, err := r.eng.Assert(fields)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.out, "asserted %d: %s\n", w.TimeTag, w.String(r.prog.Symbols, r.prog.AttrName))
	return nil
}

func (r *REPL) doRemove(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: remove <timetag>")
	}
	tag, err := strconv.Atoi(args[0])
	if err != nil {
		return fmt.Errorf("remove: %q is not a time tag", args[0])
	}
	ok, err := r.eng.Retract(tag)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no element with time tag %d", tag)
	}
	fmt.Fprintf(r.out, "retracted %d\n", tag)
	return nil
}
