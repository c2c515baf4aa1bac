// Match-kernel and multicore match benchmarks. The kernels drive a
// matcher backend directly — no engine, no RHS evaluation — so that
// ns/op and allocs/op measure the steady-state match hot path alone:
// Submit, the task-queue round trip, the hash-line update/search, and
// the terminal sink. cmd/psmbench -match and the BenchmarkMatch*
// family in bench_test.go both run on top of this file, and the
// recorded results land in BENCH_match.json.
package tables

import (
	"fmt"
	"strings"

	"repro/internal/conflict"
	"repro/internal/engine"
	"repro/internal/ops5"
	"repro/internal/rete"
	"repro/internal/wm"
)

// Kernel is one steady-state micro-workload: a compiled network plus a
// fixed block of WMEs. One Round asserts every WME, drains, retracts
// every WME and drains again, leaving all matcher state empty — so a
// benchmark can run rounds forever without growth.
type Kernel struct {
	Name string
	Prog *ops5.Program
	Net  *rete.Network
	Wmes []*wm.WME
}

// KernelNames lists the available kernels: "join" exercises multi-level
// two-input joins, "alpha" the constant-test fan-out with terminal
// tasks, "neg" negated-node count maintenance, "term" the conflict-set
// hot path (every WM change is one terminal activation), "bigmem" a
// single equality join meant to run at 10k+ WMEs, where token-memory
// layout selectivity dominates the match cost.
func KernelNames() []string { return []string{"join", "alpha", "neg", "term", "bigmem"} }

// kernelSrc returns the OPS5 source of a kernel.
func kernelSrc(name string) (string, error) {
	var b strings.Builder
	switch name {
	case "join":
		// Three-way join on a shared value: items of kinds a, b, c with
		// the same ^val pair up through two join levels to a terminal.
		b.WriteString("(literalize item kind val)\n")
		b.WriteString(`(p triple
  (item ^kind a ^val <v>)
  (item ^kind b ^val <v>)
  (item ^kind c ^val <v>)
-->
  (halt))
`)
	case "alpha":
		// Sixteen single-CE productions with disjoint constant tests: a
		// WM change runs every chain, passes one, and produces a direct
		// alpha-to-terminal task.
		b.WriteString("(literalize ev tag)\n")
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&b, "(p r%d (ev ^tag %d) --> (halt))\n", i, i)
		}
	case "neg":
		// A negated CE whose blockers arrive after the positive side:
		// right activations of the negated node walk the left memory and
		// flip instantiations on count transitions.
		b.WriteString("(literalize slot id)\n(literalize block id)\n")
		b.WriteString(`(p free
  (slot ^id <i>)
  - (block ^id <i>)
-->
  (halt))
`)
	case "term":
		// One single-CE production that every fact satisfies: each WM
		// change goes straight alpha-to-terminal, so the round's cost is
		// dominated by conflict-set insert/remove, and the live set grows
		// to n instantiations at the assert/retract turnaround.
		b.WriteString("(literalize fact id)\n")
		b.WriteString("(p seen (fact ^id <i>) --> (halt))\n")
	case "bigmem":
		// n accounts and n transactions pair one-to-one through a single
		// equality join. At large n the cost is entirely how the token
		// memories narrow each activation's opposite-memory scan, which
		// is what the list-vs-runs layout comparison measures.
		b.WriteString("(literalize acct id)\n(literalize txn id)\n")
		b.WriteString(`(p pay
  (acct ^id <i>)
  (txn ^id <i>)
-->
  (halt))
`)
	default:
		return "", fmt.Errorf("unknown kernel %q (have %v)", name, KernelNames())
	}
	return b.String(), nil
}

// kernelWME builds one WME by hand; the kernels bypass the engine and
// working-memory store entirely.
func kernelWME(prog *ops5.Program, tag int, class string, attrs map[string]wm.Value) *wm.WME {
	cls := prog.ClassOf(prog.Symbols.Intern(class))
	fields := make([]wm.Value, cls.NumFields())
	fields[0] = wm.Sym(cls.Name)
	for a, v := range attrs {
		i, err := prog.FieldIndex(cls, prog.Symbols.Intern(a))
		if err != nil {
			panic(err) // kernels only use literalized attributes
		}
		fields[i] = v
	}
	return &wm.WME{TimeTag: tag, Fields: fields}
}

// NewKernel compiles a kernel at size n (number of distinct join
// values / events / slots; 0 selects the default of 64).
func NewKernel(name string, n int) (*Kernel, error) {
	if n <= 0 {
		n = 64
	}
	src, err := kernelSrc(name)
	if err != nil {
		return nil, err
	}
	prog, err := ops5.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("kernel %s: parse: %w", name, err)
	}
	net, err := rete.Compile(prog)
	if err != nil {
		return nil, fmt.Errorf("kernel %s: compile: %w", name, err)
	}
	k := &Kernel{Name: name, Prog: prog, Net: net}
	tag := 1
	add := func(class string, attrs map[string]wm.Value) {
		k.Wmes = append(k.Wmes, kernelWME(prog, tag, class, attrs))
		tag++
	}
	sym := func(s string) wm.Value { return wm.Sym(prog.Symbols.Intern(s)) }
	switch name {
	case "join":
		for v := 0; v < n; v++ {
			add("item", map[string]wm.Value{"kind": sym("a"), "val": wm.Int(int64(v))})
			add("item", map[string]wm.Value{"kind": sym("b"), "val": wm.Int(int64(v))})
			add("item", map[string]wm.Value{"kind": sym("c"), "val": wm.Int(int64(v))})
		}
	case "alpha":
		for v := 0; v < n; v++ {
			add("ev", map[string]wm.Value{"tag": wm.Int(int64(v % 16))})
		}
	case "neg":
		for v := 0; v < n; v++ {
			add("slot", map[string]wm.Value{"id": wm.Int(int64(v))})
		}
		for v := 0; v < n; v += 2 {
			add("block", map[string]wm.Value{"id": wm.Int(int64(v))})
		}
	case "term":
		for v := 0; v < n; v++ {
			add("fact", map[string]wm.Value{"id": wm.Int(int64(v))})
		}
	case "bigmem":
		for v := 0; v < n; v++ {
			add("acct", map[string]wm.Value{"id": wm.Int(int64(v))})
			add("txn", map[string]wm.Value{"id": wm.Int(int64(v))})
		}
	}
	return k, nil
}

// Round pushes one assert-all / retract-all cycle through a matcher.
// The sink (the matcher's conflict set) returns to empty, as do the
// node memories, so consecutive rounds see identical state.
func (k *Kernel) Round(m engine.Matcher) {
	for _, w := range k.Wmes {
		m.Submit(true, w)
	}
	m.Drain()
	for _, w := range k.Wmes {
		m.Submit(false, w)
	}
	m.Drain()
}

// KernelSink returns a fresh conflict set to use as the terminal sink
// for kernel runs.
func KernelSink() *conflict.Set { return conflict.NewSet() }
