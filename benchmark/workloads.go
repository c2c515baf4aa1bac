package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/server"
	"repro/internal/workload"
)

// Load model, the same for every workload: closed loop, 2 clients on 2
// connections, k = 2 match processes, default GOMAXPROCS. A session's
// next batch depends on the previous reply (halted, time tags to
// retract), so callers wait; the sizes are fixed rather than derived
// from the host so numbers stay comparable.
const (
	numClients = 2
	matchProcs = 2
	// warmupSessions run per client inside set-up, through the real path
	// and checked like any other, so the program cache, the connection
	// pool and the heap are warm before the first timed op.
	warmupSessions = 2
)

// path is how a workload's requests reach the engine.
type path int

const (
	pathLib     path = iota // engine called in-process, no server
	pathDirect              // clients -> one memory-only ops5d
	pathProxy               // clients -> cluster.Proxy -> 2 ops5d
	pathDurable             // clients -> one durable ops5d, sessions forked from a template
)

type workloadDef struct {
	name, why string
	path      path
	source    func() string
	matcher   string // "parallel" or "vs2"
	// maxCycles is the cycle budget of one op; a paper-program session
	// issues ops until the program halts. 0 for the ledger, whose ops run
	// each planned batch to quiescence.
	maxCycles int
}

// The names are fixed: later issues cite them.
var workloads = []workloadDef{
	{
		name: "lib-rubik-par",
		why:  "Rubik(60) on the parallel matcher called in-process: parmatch/taskqueue/hashmem do the work, server/cluster/wmlog none",
		path: pathLib, source: func() string { return workload.Rubik(60) },
		matcher: "parallel", maxCycles: 25,
	},
	{
		name: "serve-weaver-direct",
		why:  "665-rule Weaver on one memory-only ops5d, no proxy: match dominates through the serving path; cluster and wmlog bypassed",
		path: pathDirect, source: func() string { return workload.Weaver(20, 9) },
		matcher: "vs2", maxCycles: 25,
	},
	{
		name: "serve-small-proxy",
		why:  "Tourney in 5-cycle batches through the proxy to 2 ops5d: per-request HTTP/JSON/proxy overhead dominates, inference is small",
		path: pathProxy, source: func() string { return workload.Tourney(16) },
		matcher: "vs2", maxCycles: 5,
	},
	{
		name: "serve-ingest-durable",
		why:  "client asserts/retracts on forked ledger sessions of one durable ops5d: journal append, fsync per batch, fork, snapshot compaction",
		path: pathDurable, source: func() string { return ledgerSrc },
		matcher: "vs2",
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The ledger is the benchmark's own program: an acct x txn equality
// join guarded by one negated condition element, with a modify + remove
// right-hand side. Unlike the paper programs it does nothing on its own
// — every cycle is driven by a client write — so it exercises assert
// decode, retracts by time tag, WM-delta text and the journal.
const ledgerSrc = `(literalize acct id bal n)
(literalize txn acct amt)
(literalize hold acct)

(p post
   (txn ^acct <a> ^amt <m>)
   (acct ^id <a> ^bal <b> ^n <n>)
  -(hold ^acct <a>)
  -->
   (modify 2 ^bal (compute <b> + <m>) ^n (compute <n> + 1))
   (remove 1))
`

const (
	ledgerAccounts = 2000 // template working memory
	ledgerBatches  = 100  // ops per session; short, so a run has hundreds of forks
	ledgerTxns     = 16   // txn asserts per batch
	// ledgerHoldLag: each batch also asserts one hold and, from the 4th
	// on, retracts the hold of 4 batches earlier by the time tag the
	// server reported for it — releasing the txns it blocked.
	ledgerHoldLag = 4
	// ledgerStreams distinct op streams exist per seed; session ordinal
	// n plays stream n mod 4, so a run repeats exactly and a reference
	// per stream suffices.
	ledgerStreams = 4
)

// fact is one WME to assert. Every ledger attribute is an integer.
type fact struct {
	class string
	attrs []attr
}

type attr struct {
	name string
	val  int64
}

func (f fact) input() server.WMEInput {
	in := server.WMEInput{Class: f.class, Attrs: make(map[string]any, len(f.attrs))}
	for _, a := range f.attrs {
		in.Attrs[a.name] = a.val
	}
	return in
}

func ledgerBase() []fact {
	base := make([]fact, ledgerAccounts)
	for i := range base {
		base[i] = fact{"acct", []attr{{"id", int64(i)}, {"bal", 0}, {"n", 0}}}
	}
	return base
}

// ledgerStream is the asserts of each batch of one session: ledgerTxns
// txns, then the batch's hold (always the last assert). Account keys are
// Zipf(1.1): a few hot accounts take most writes and most holds.
func ledgerStream(seed int64, stream int) [][]fact {
	r := rand.New(rand.NewSource(seed*ledgerStreams + int64(stream)))
	zipf := rand.NewZipf(r, 1.1, 1, ledgerAccounts-1)
	batches := make([][]fact, ledgerBatches)
	for b := range batches {
		facts := make([]fact, 0, ledgerTxns+1)
		for i := 0; i < ledgerTxns; i++ {
			facts = append(facts, fact{"txn", []attr{{"acct", int64(zipf.Uint64())}, {"amt", int64(1 + r.Intn(99))}}})
		}
		batches[b] = append(facts, fact{"hold", []attr{{"acct", int64(zipf.Uint64())}}})
	}
	return batches
}

// script is what a session does once started.
type script struct {
	maxCycles int
	// streams is set for the ledger only: the planned batches by session
	// ordinal mod ledgerStreams.
	streams [][][]fact
}

func (sc *script) stream(ordinal int) [][]fact {
	if sc.streams == nil {
		return nil
	}
	return sc.streams[ordinal%len(sc.streams)]
}

func isHold(text string) bool { return strings.HasPrefix(text, "(hold ") }
