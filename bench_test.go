// Benchmarks of what the paper tables do not measure: front-end parse
// throughput and the engine's recognize-act cycle rate. The tables
// themselves are regenerated by cmd/psmbench and pinned by
// internal/tables/testdata/*.golden; EXPERIMENTS.md records
// paper-vs-measured.
package psme_test

import (
	"testing"

	psme "repro"
)

// BenchmarkParse measures front-end throughput on the largest program.
func BenchmarkParse(b *testing.B) {
	src, err := psme.BenchmarkProgram("weaver", 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := psme.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFiringRate measures end-to-end recognize-act cycles per
// second on the counter micro-program.
func BenchmarkEngineFiringRate(b *testing.B) {
	src := `
(literalize count value)
(p inc (count ^value {<v> < 1000000000}) --> (modify 1 ^value (compute <v> + 1)))
(make count ^value 0)
`
	prog, err := psme.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := psme.New(prog, psme.Config{Matcher: psme.MatcherVS2})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	b.ResetTimer()
	res, err := eng.Run(psme.RunOptions{MaxCycles: b.N})
	if err != nil {
		b.Fatal(err)
	}
	if res.Cycles != b.N {
		b.Fatalf("ran %d cycles, want %d", res.Cycles, b.N)
	}
}
