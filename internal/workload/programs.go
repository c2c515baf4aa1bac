package workload

import "fmt"

// Program returns the source of a named built-in program: one of the
// paper's three evaluation programs, "weaver", "rubik" or "tourney", or
// the classic "monkeys" demo. It is the one registry behind psmbench,
// the tables and the psme facade. scale 1.0 is the paper's workload size
// (Table 4-1's WM-change and node-activation counts); scale <= 0 means
// 1.0. Each size is the paper-scale one times scale, truncated and never
// below 2: 20 Weaver nets on a 9x9 grid, a 60-move Rubik scramble, 16
// Tourney teams. Monkeys ignores scale.
func Program(name string, scale float64) (string, error) {
	if scale <= 0 {
		scale = 1
	}
	size := func(n int) int { return max(int(float64(n)*scale), 2) }
	switch name {
	case "weaver":
		return Weaver(size(20), 9), nil
	case "rubik":
		return Rubik(size(60)), nil
	case "tourney":
		return Tourney(size(16)), nil
	case "monkeys":
		return Monkeys(), nil
	}
	return "", fmt.Errorf("unknown benchmark program %q", name)
}
