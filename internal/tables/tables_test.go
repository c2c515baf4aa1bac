package tables

import (
	"strconv"
	"strings"
	"testing"
)

// TestProgramsParseAtScales guards the spec generator across scales.
func TestProgramsParseAtScales(t *testing.T) {
	for _, scale := range []float64{0.1, 0.5, 1.0} {
		specs := Programs(scale)
		if len(specs) != 3 {
			t.Fatalf("scale %v: %d specs", scale, len(specs))
		}
		for _, s := range specs {
			if _, err := RunSeq(s, "vs2"); err != nil {
				t.Fatalf("scale %v %s: %v", scale, s.Name, err)
			}
		}
	}
}

// TestSeqTablesShape builds Tables 4-1..4-4 at small scale and checks
// the qualitative relations the paper reports.
func TestSeqTablesShape(t *testing.T) {
	t.Parallel()
	specs := Programs(0.4)
	sr, err := RunSeqAll(specs, true)
	if err != nil {
		t.Fatal(err)
	}
	// Table 4-1's claim — hash memories beat list memories — is checked
	// on deterministic counters, not wall-clock: vs2 never examines more
	// memory tokens than vs1 on identical work (same activation count).
	for _, spec := range specs {
		v1, v2 := sr.VS1[spec.Name], sr.VS2[spec.Name]
		if v1.Activations != v2.Activations {
			t.Errorf("%s: activations differ, vs1 %d vs2 %d",
				spec.Name, v1.Activations, v2.Activations)
		}
		scan1 := v1.Rec.M.OppExaminedLeft + v1.Rec.M.OppExaminedRight +
			v1.Rec.M.SameExaminedLeft + v1.Rec.M.SameExaminedRight
		scan2 := v2.Rec.M.OppExaminedLeft + v2.Rec.M.OppExaminedRight +
			v2.Rec.M.SameExaminedLeft + v2.Rec.M.SameExaminedRight
		if scan2 > scan1 {
			t.Errorf("%s: vs2 examined %d tokens, vs1 only %d",
				spec.Name, scan2, scan1)
		}
	}
	// Table 4-2: hash never examines more than list memories (left side).
	t42 := Table42(sr)
	for _, row := range t42.Rows {
		lin, _ := strconv.ParseFloat(row[1], 64)
		hash, _ := strconv.ParseFloat(row[2], 64)
		if hash > lin {
			t.Errorf("%s: hash left (%v) exceeds lin (%v)", row[0], hash, lin)
		}
	}
	// Table 4-4: the interpreter always loses. The rendered table still
	// reports the wall-clock ratio, but the test asserts the claim on
	// deterministic counters: both matchers compute the same match
	// (activation parity), and the interpreter spends several counted
	// work items — dispatches, boxings, predicate applications — for
	// every work item vs2 counts. Those counts depend only on the
	// program, never on machine load.
	for _, spec := range specs {
		rl, r2 := sr.Lisp[spec.Name], sr.VS2[spec.Name]
		if rl.Activations != r2.Activations {
			t.Errorf("%s: interp activations %d != vs2 %d",
				spec.Name, rl.Activations, r2.Activations)
		}
		m2 := &r2.Rec.M
		vs2Work := m2.Activations + m2.ConstTests + m2.Pairs +
			m2.OppExaminedLeft + m2.OppExaminedRight +
			m2.SameExaminedLeft + m2.SameExaminedRight
		if rl.InterpOps < 2*vs2Work {
			t.Errorf("%s: interp ops %d < 2x vs2 work %d",
				spec.Name, rl.InterpOps, vs2Work)
		}
		t.Logf("%s: interp ops %d, vs2 work %d (ratio %.1f)",
			spec.Name, rl.InterpOps, vs2Work,
			float64(rl.InterpOps)/float64(vs2Work))
	}
}

// TestRenderAligns checks the plain-text renderer.
func TestRenderAligns(t *testing.T) {
	tb := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"A", "LONGCOL"},
		Rows:   [][]string{{"aaaa", "b"}, {"c", "dd"}},
	}
	out := tb.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "Table X: demo") {
		t.Fatalf("title line %q", lines[0])
	}
	// Column positions align across rows.
	pos := strings.Index(lines[1], "LONGCOL")
	if strings.Index(lines[2], "b") != pos || strings.Index(lines[3], "dd") != pos {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

// TestSimTableSmall runs the simulation grid at tiny scale end to end
// (TestGoldenTables pins what it renders).
func TestSimTableSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("grid is slow")
	}
	// Monotone headline: Table 4-6 speed-up at 1+13 exceeds 1+1 for all.
	sim, err := smallSim()
	if err != nil {
		t.Fatal(err)
	}
	t46 := Table46(sim)
	for _, row := range t46.Rows {
		first, _ := strconv.ParseFloat(row[2], 64)
		last, _ := strconv.ParseFloat(row[len(row)-1], 64)
		if last <= first {
			t.Errorf("%s: no scaling, 1+1=%v 1+13=%v", row[0], first, last)
		}
	}
}

// TestAblationsSmall exercises the ablation harness.
func TestAblationsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	rows, err := smallAblations()
	if err != nil {
		t.Fatal(err)
	}
	tab := AblationTable(Programs(0.2), rows)
	if len(tab.Rows) != len(rows) {
		t.Fatalf("ablation table rows = %d, want %d", len(tab.Rows), len(rows))
	}
}
