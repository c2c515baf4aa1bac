package rete

import "repro/internal/wm"

// TerminalSink receives conflict-set changes from terminal nodes. The
// token is the matcher's scratch buffer, valid only for the call: a sink
// that keeps an instantiation copies it.
type TerminalSink interface {
	InsertInstantiation(rule *CompiledRule, wmes []*wm.WME)
	RemoveInstantiation(rule *CompiledRule, wmes []*wm.WME)
}

// RootDeliver pushes one working-memory change through the constant-test
// part of the network: it runs every alpha chain registered for the
// WME's class and invokes deliver for each destination of each passing
// chain. It returns the number of constant tests evaluated, which the
// Multimax simulator's cost model charges at 3 instructions apiece (the
// figure the paper gives for a constant-test node activation).
func (n *Network) RootDeliver(w *wm.WME, deliver func(AlphaDest)) (testsRun int) {
	for _, chain := range n.ChainsByClass[w.Class()] {
		pass := true
		for _, f := range chain.evals {
			testsRun++
			if !f(w) {
				pass = false
				break
			}
		}
		if !pass {
			continue
		}
		for _, d := range n.chainDests[chain.ID] {
			deliver(d)
		}
	}
	return testsRun
}
