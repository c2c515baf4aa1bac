package repl_test

import (
	"os"
	"strings"
	"testing"

	"repro/internal/repl"
)

// TestReactorThroughREPL drives the REACTOR port over the interactive
// top level: commands and (accept)/(acceptline) answers interleave on
// the same scripted stdin, the way a terminal session would.
func TestReactorThroughREPL(t *testing.T) {
	src, err := os.ReadFile("../../examples/reactor/reactor.ops")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	r, err := repl.New(string(src), &out)
	if err != nil {
		t.Fatal(err)
	}
	stdin := strings.Join([]string{
		"run",
		"case-42",             // incident id
		"10",                  // hpis-flow
		"55",                  // sg-level
		"30",                  // pcs-pressure
		"60",                  // containment-pressure
		"80",                  // containment-radiation
		"all systems nominal", // operator log line, read by (acceptline)
		"wm trace",
		"exit",
	}, "\n") + "\n"
	if err := r.Run(strings.NewReader(stdin)); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"incident case-42 diagnosis: loca",
		"audit trail confirms loca",
		"session complete",
		"(halt)",
		"(trace ^elt diagnosis loca confirmed)",
		"(trace ^elt log all systems nominal)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in session output:\n%s", want, got)
		}
	}
}

// TestWatchParenFormAndProgramDefault checks that the (watch N) source
// form works at the prompt and that a program-level (watch 0) sets the
// session's initial trace level.
func TestWatchParenFormAndProgramDefault(t *testing.T) {
	src := `
(watch 0)
(literalize c v)
(p bump (c ^v <x>) --> (modify 1 ^v (compute <x> + 1)))
(make c ^v 0)
`
	var out strings.Builder
	r, err := repl.New(src, &out)
	if err != nil {
		t.Fatal(err)
	}
	// (watch 0) from the program: run silently.
	if got := exec(t, r, &out, "run 1"); strings.Contains(got, "1. bump") {
		t.Fatalf("watch 0 still traced firings:\n%s", got)
	}
	// Raise to 2 with the parenthesized form and run loud.
	if err := r.Exec("(watch 2)"); err != nil {
		t.Fatal(err)
	}
	got := exec(t, r, &out, "run 1")
	if !strings.Contains(got, "bump") || !strings.Contains(got, "=>WM") {
		t.Fatalf("watch 2 output missing traces:\n%s", got)
	}
}
