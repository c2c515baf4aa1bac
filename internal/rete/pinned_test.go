package rete_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/rete"
	"repro/internal/workload"
)

// TestPaperNetworksPinned pins the compiled networks of the paper's
// four programs in both plan modes by the SHA-256 of their Dump: node
// IDs, sharing, fan-out, tests, plan positions and selectivity
// estimates. A compiler change that moves any of them shows up here
// before it shows up as a drifted table.
func TestPaperNetworksPinned(t *testing.T) {
	programs := []struct {
		name, src       string
		source, reorder string // digests under PlanConfig{} and {Reorder: true}
	}{
		{"monkeys", workload.Monkeys(),
			"80e3732340b0558df0bf55f8f33509255ffebf1dc8463e5bf388df0b8ee041e9",
			"5928c5fb298ca898c68694900d7d141b6437de3f7dc9fd97d2c0eeb39064f577"},
		{"rubik", workload.Rubik(60),
			"86ddf871841f838c8d06e6d8e144a3a254c8bb32124945c9dbebf284a083669c",
			"b2b6eaecb4078e231cb5d6ddca93e921f948ed1eec96e038ca122378cd77d977"},
		{"tourney", workload.Tourney(16),
			"fdce788a7265a2c8d64462dcba9a4aaa37b2ecfa26cbcab3455a08fc78b5741b",
			"e98e0aecf33b8a54bcba83443fa8515b950d5e1e1d066960ba6c5a52727cbe29"},
		{"weaver", workload.Weaver(20, 9),
			"d3af186f84ad0c6e98cce835865c4e405d805bcd9f64196edabb3c201069fdc0",
			"eb2e9bc1cd740dc536c9588feca7206b8d76a6bb9953d30c0285d384a321a455"},
	}
	for _, p := range programs {
		for _, mode := range []struct {
			pc   rete.PlanConfig
			want string
		}{{rete.PlanConfig{}, p.source}, {reorderOn, p.reorder}} {
			sum := sha256.Sum256([]byte(dump(compilePlanned(t, p.src, mode.pc))))
			if got := hex.EncodeToString(sum[:]); got != mode.want {
				t.Errorf("%s %+v: dump digest %s, pinned %s", p.name, mode.pc, got, mode.want)
			}
		}
	}
}
