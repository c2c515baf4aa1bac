package seqmatch

import (
	"repro/internal/hashmem"
	"repro/internal/rete"
	"repro/internal/wm"
)

// Walk is vs2's match discipline: a change's whole activation subtree
// runs depth-first on the Go stack, with no locks, over one token
// table. vs1 and vs2 run every change through it;
// the parallel matcher's control process runs it on the shared table
// whenever it holds every unit in existence. Each terminal activation
// goes to the walk's terminal callback — the conflict set for the
// sequential matchers, a buffer flushed at the drain for the parallel
// one.
type Walk struct {
	Net   *rete.Network
	Table *hashmem.Table
	Rec   *hashmem.Recorder
	// Pools is the walker's private allocation state. Its Slots view must
	// resolve every slot the walk will read.
	Pools hashmem.Pools

	term func(rule *rete.CompiledRule, sign bool, tok []uint32)
	// curJoin/curSign/curRoot carry the context of the innermost
	// activation so emit and deliver can be bound method values instead
	// of a fresh closure per change or activation. Saved and restored
	// around the depth-first recursion.
	curJoin   *rete.JoinNode
	curSign   bool
	curRoot   []uint32
	emitFn    hashmem.Emit
	deliverFn func(rete.AlphaDest)
}

// Init points the walk at its network, table, recorder and terminal
// callback. The walk must not move afterwards: it binds its own methods.
func (w *Walk) Init(net *rete.Network, table *hashmem.Table, rec *hashmem.Recorder, term func(rule *rete.CompiledRule, sign bool, tok []uint32)) {
	w.Net, w.Table, w.Rec, w.term = net, table, rec, term
	w.emitFn = w.emit
	w.deliverFn = w.deliver
}

// Root runs one working-memory change to completion.
func (w *Walk) Root(sign bool, wme *wm.WME) {
	w.Rec.M.WMChanges++
	w.curSign = sign
	tok := w.Pools.Token(1)
	tok[0] = wme.Slot
	w.curRoot = tok // one length-1 token shared by all destinations
	w.Rec.M.ConstTests += int64(w.Net.RootDeliver(wme, w.deliverFn))
}

// deliver routes one alpha destination of the current root change. The
// depth-first recursion under Activate never touches curSign/curRoot,
// so they stay valid across RootDeliver's destination loop.
func (w *Walk) deliver(d rete.AlphaDest) {
	if d.Terminal != nil {
		w.Terminal(d.Terminal, w.curSign, w.curRoot)
		return
	}
	w.Activate(d.Join, d.Side, w.curSign, w.curRoot)
}

// Activate runs one activation of j and, depth-first, everything it
// leads to.
func (w *Walk) Activate(j *rete.JoinNode, side rete.Side, sign bool, tok []uint32) {
	w.Rec.M.Activations++
	// The hash is computed for vs1 too: its per-node lines ignore it for
	// line selection, but storing it lets a delete short-circuit token
	// comparison without changing any scan count.
	hash := j.TokenHash(w.Pools.Slots, side, tok)
	idx := w.Table.LineIndex(j, hash)
	entry, ref, res := w.Table.UpdateOwn(idx, j, side, sign, tok, hash, w.Rec, &w.Pools)
	if !sign {
		hashmem.RecordDelete(w.Rec, side, &res)
	}
	if !res.Proceeded {
		return
	}
	w.curJoin = j
	w.Table.SearchOpposite(ref, j, side, sign, tok, entry, w.Rec, &w.Pools, w.emitFn)
	if !sign {
		w.Pools.FreeEntry(entry) // removed from its memory; nothing else holds it
	}
}

// emit fans one output token of the current join out depth-first. It
// saves and restores curJoin around the recursion: SearchOpposite may
// call it several times, and each nested Activate overwrites curJoin.
func (w *Walk) emit(csign bool, ctok []uint32) {
	j := w.curJoin
	for _, succ := range w.Net.SuccsOf(j) {
		w.Activate(succ, rete.Left, csign, ctok)
	}
	for _, t := range w.Net.TermsOf(j) {
		w.Terminal(t, csign, ctok)
	}
	w.curJoin = j
}

// Terminal counts one terminal activation and hands it to the terminal
// callback.
func (w *Walk) Terminal(t *rete.Terminal, sign bool, tok []uint32) {
	w.Rec.M.Activations++
	if sign {
		w.Rec.M.CSInserts++
	} else {
		w.Rec.M.CSDeletes++
	}
	w.term(t.Rule, sign, tok)
}
