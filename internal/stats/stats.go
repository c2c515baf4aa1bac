// Package stats defines the instrumentation counters the benchmark
// harness reads to regenerate the paper's tables.
package stats

// Match aggregates per-run match statistics. The sequential matchers
// fill every field; the parallel matchers fill the activation counts and
// leave the memory-scan statistics to the sequential instrumentation
// runs, exactly as the paper derives Tables 4-1..4-3 from uniprocessor
// versions.
type Match struct {
	WMChanges   int64 `json:"wm_changes"`  // working-memory changes processed
	Activations int64 `json:"activations"` // node activations == tasks processed (Table 4-1 last column)

	LeftActs  int64 `json:"left_acts"`  // two-input node activations from the left
	RightActs int64 `json:"right_acts"` // ... and from the right

	// Tokens examined in the opposite memory, split by activation side,
	// counted only for activations whose opposite memory is non-empty
	// (Table 4-2's convention).
	OppExaminedLeft   int64 `json:"opp_examined_left"`
	OppExaminedRight  int64 `json:"opp_examined_right"`
	OppNonEmptyLeft   int64 `json:"opp_nonempty_left"` // activations contributing to the left mean
	OppNonEmptyRight  int64 `json:"opp_nonempty_right"`
	SameExaminedLeft  int64 `json:"same_examined_left"` // tokens scanned in own memory for deletes (Table 4-3)
	SameExaminedRight int64 `json:"same_examined_right"`
	DeletesLeft       int64 `json:"deletes_left"`
	DeletesRight      int64 `json:"deletes_right"`

	Pairs      int64 `json:"pairs"`       // matching token pairs emitted by two-input nodes
	ConstTests int64 `json:"const_tests"` // constant tests evaluated
	CSInserts  int64 `json:"cs_inserts"`  // conflict-set insertions
	CSDeletes  int64 `json:"cs_deletes"`
}

// Add accumulates o into m.
func (m *Match) Add(o *Match) {
	m.WMChanges += o.WMChanges
	m.Activations += o.Activations
	m.LeftActs += o.LeftActs
	m.RightActs += o.RightActs
	m.OppExaminedLeft += o.OppExaminedLeft
	m.OppExaminedRight += o.OppExaminedRight
	m.OppNonEmptyLeft += o.OppNonEmptyLeft
	m.OppNonEmptyRight += o.OppNonEmptyRight
	m.SameExaminedLeft += o.SameExaminedLeft
	m.SameExaminedRight += o.SameExaminedRight
	m.DeletesLeft += o.DeletesLeft
	m.DeletesRight += o.DeletesRight
	m.Pairs += o.Pairs
	m.ConstTests += o.ConstTests
	m.CSInserts += o.CSInserts
	m.CSDeletes += o.CSDeletes
}

// Sub subtracts o from m, field by field. The server uses it to fold
// per-session counter deltas into its global totals.
func (m *Match) Sub(o *Match) {
	m.WMChanges -= o.WMChanges
	m.Activations -= o.Activations
	m.LeftActs -= o.LeftActs
	m.RightActs -= o.RightActs
	m.OppExaminedLeft -= o.OppExaminedLeft
	m.OppExaminedRight -= o.OppExaminedRight
	m.OppNonEmptyLeft -= o.OppNonEmptyLeft
	m.OppNonEmptyRight -= o.OppNonEmptyRight
	m.SameExaminedLeft -= o.SameExaminedLeft
	m.SameExaminedRight -= o.SameExaminedRight
	m.DeletesLeft -= o.DeletesLeft
	m.DeletesRight -= o.DeletesRight
	m.Pairs -= o.Pairs
	m.ConstTests -= o.ConstTests
	m.CSInserts -= o.CSInserts
	m.CSDeletes -= o.CSDeletes
}

// Mean returns num/den or 0 when den is 0.
func Mean(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Contention aggregates spin-lock and work-distribution statistics for
// the parallel runs. "Spins" follows the paper's measure: the number of
// times a process observes the lock busy before acquiring it. For the
// goroutine matcher QueueSpins also counts every empty-handed look a
// process that wants work takes at the queues — an idle worker's
// bounded poll before it parks, the control process waiting in Drain
// for a peer's last unit — so QueueSpins/QueueAcquires is failed looks
// per successful one; the Multimax simulator charges an empty scan as
// time (QueueScan) and keeps QueueSpins to the lock. The queue counters
// count run-to-completion units, not node activations: a match process
// runs a unit's whole activation subtree on a private stack nothing here
// sees. QueueAcquires is one per task pushed onto a central queue (a
// Submit, a replay, a Requeue) plus one per batch popped off one.
type Contention struct {
	QueueAcquires int64 `json:"queue_acquires"` // task-queue lock acquisitions
	QueueSpins    int64 `json:"queue_spins"`    // task-queue locks observed busy, plus (parmatch) empty-handed looks at the queues

	LineAcquiresLeft  int64 `json:"line_acquires_left"` // hash-line acquisitions for left activations
	LineSpinsLeft     int64 `json:"line_spins_left"`
	LineAcquiresRight int64 `json:"line_acquires_right"`
	LineSpinsRight    int64 `json:"line_spins_right"`

	Requeues int64 `json:"requeues"` // MRSW wrong-side re-queues

	// Always 0: the matcher no longer shares work between processes.
	// Read by benchmark/layers.go; they go with ROADMAP item 5's
	// benchmark revision.
	LocalPushes int64 `json:"local_pushes"`
	Steals      int64 `json:"steals"`
	Overflows   int64 `json:"overflows"`
}

// Conflict aggregates conflict-set statistics. The counter fields
// accumulate monotonically and fold as deltas like Match; Live, Fired
// and Pending are point-in-time gauges. SelectScanned over SelectRescans
// is the mean rescan depth, the residual O(n) cost the cached partition
// bests avoid.
type Conflict struct {
	Inserts       int64 `json:"inserts"`       // terminal + activations
	Deletes       int64 `json:"deletes"`       // terminal − activations
	Annihilations int64 `json:"annihilations"` // parked deletes cancelled by a later insert
	Live          int64 `json:"live"`          // unfired instantiations (gauge)
	Fired         int64 `json:"fired"`         // fired, retained for refraction (gauge)
	Pending       int64 `json:"pending"`       // parked early deletes (gauge)
	// Always 0: the conflict set takes no locks. Read by
	// benchmark/layers.go; they go with ROADMAP item 5's benchmark
	// revision.
	ShardAcquires int64 `json:"shard_acquires"`
	ShardSpins    int64 `json:"shard_spins"`
	Selects       int64 `json:"selects"`        // Select calls
	SelectRescans int64 `json:"select_rescans"` // dirty partitions recomputed during Select
	SelectScanned int64 `json:"select_scanned"` // live instantiations examined by rescans
}

// Add accumulates o into c.
func (c *Conflict) Add(o *Conflict) {
	c.Inserts += o.Inserts
	c.Deletes += o.Deletes
	c.Annihilations += o.Annihilations
	c.Live += o.Live
	c.Fired += o.Fired
	c.Pending += o.Pending
	c.ShardAcquires += o.ShardAcquires
	c.ShardSpins += o.ShardSpins
	c.Selects += o.Selects
	c.SelectRescans += o.SelectRescans
	c.SelectScanned += o.SelectScanned
}

// Sub subtracts o from c, for per-session delta folding like Match.Sub.
func (c *Conflict) Sub(o *Conflict) {
	c.Inserts -= o.Inserts
	c.Deletes -= o.Deletes
	c.Annihilations -= o.Annihilations
	c.Live -= o.Live
	c.Fired -= o.Fired
	c.Pending -= o.Pending
	c.ShardAcquires -= o.ShardAcquires
	c.ShardSpins -= o.ShardSpins
	c.Selects -= o.Selects
	c.SelectRescans -= o.SelectRescans
	c.SelectScanned -= o.SelectScanned
}

// Epoch aggregates dynamic program-change statistics: runtime (p ...)
// builds and excises applied to a live engine. Swaps counts network
// epoch transitions a matcher adopted; ReplayedWMEs is the number of
// live working-memory elements pushed back through new topology during
// add replays; RemovedEntries and RemovedInsts are the memory entries
// and conflict-set instantiations dropped by excises. All fields are
// monotonic counters and fold as deltas like Match.
type Epoch struct {
	Swaps          int64 `json:"swaps"`
	RulesAdded     int64 `json:"rules_added"`
	RulesExcised   int64 `json:"rules_excised"`
	ReplayedWMEs   int64 `json:"replayed_wmes"`
	RemovedEntries int64 `json:"removed_entries"`
	RemovedInsts   int64 `json:"removed_insts"`
	// BudgetTrips counts rules quarantined by the per-rule match budget.
	BudgetTrips int64 `json:"budget_trips"`
}

// Add accumulates o into e.
func (e *Epoch) Add(o *Epoch) {
	e.Swaps += o.Swaps
	e.RulesAdded += o.RulesAdded
	e.RulesExcised += o.RulesExcised
	e.ReplayedWMEs += o.ReplayedWMEs
	e.RemovedEntries += o.RemovedEntries
	e.RemovedInsts += o.RemovedInsts
	e.BudgetTrips += o.BudgetTrips
}

// Sub subtracts o from e, for per-session delta folding like Match.Sub.
func (e *Epoch) Sub(o *Epoch) {
	e.Swaps -= o.Swaps
	e.RulesAdded -= o.RulesAdded
	e.RulesExcised -= o.RulesExcised
	e.ReplayedWMEs -= o.ReplayedWMEs
	e.RemovedEntries -= o.RemovedEntries
	e.RemovedInsts -= o.RemovedInsts
	e.BudgetTrips -= o.BudgetTrips
}

// Memory describes the token hash tables backing a matcher: Lines,
// Entries and MaxLineDepth are point-in-time gauges (current line
// count, live token entries, high-water live entries in one line);
// Resizes and Rehashed count adaptive grows and the entries they moved.
// Like Conflict's gauges, multi-session folds sum the gauges of every
// session's table.
type Memory struct {
	Lines        int64 `json:"lines"`
	Entries      int64 `json:"entries"`
	MaxLineDepth int64 `json:"max_line_depth"`
	Resizes      int64 `json:"resizes"`
	Rehashed     int64 `json:"rehashed"`
}

// Add accumulates o into m.
func (m *Memory) Add(o *Memory) {
	m.Lines += o.Lines
	m.Entries += o.Entries
	m.MaxLineDepth += o.MaxLineDepth
	m.Resizes += o.Resizes
	m.Rehashed += o.Rehashed
}

// Sub subtracts o from m, for per-session delta folding like Match.Sub.
func (m *Memory) Sub(o *Memory) {
	m.Lines -= o.Lines
	m.Entries -= o.Entries
	m.MaxLineDepth -= o.MaxLineDepth
	m.Resizes -= o.Resizes
	m.Rehashed -= o.Rehashed
}

// Add accumulates o into c.
func (c *Contention) Add(o *Contention) {
	c.QueueAcquires += o.QueueAcquires
	c.QueueSpins += o.QueueSpins
	c.LineAcquiresLeft += o.LineAcquiresLeft
	c.LineSpinsLeft += o.LineSpinsLeft
	c.LineAcquiresRight += o.LineAcquiresRight
	c.LineSpinsRight += o.LineSpinsRight
	c.Requeues += o.Requeues
	c.LocalPushes += o.LocalPushes
	c.Steals += o.Steals
	c.Overflows += o.Overflows
}

// Sub subtracts o from c, for per-session delta folding like Match.Sub.
func (c *Contention) Sub(o *Contention) {
	c.QueueAcquires -= o.QueueAcquires
	c.QueueSpins -= o.QueueSpins
	c.LineAcquiresLeft -= o.LineAcquiresLeft
	c.LineSpinsLeft -= o.LineSpinsLeft
	c.LineAcquiresRight -= o.LineAcquiresRight
	c.LineSpinsRight -= o.LineSpinsRight
	c.Requeues -= o.Requeues
	c.LocalPushes -= o.LocalPushes
	c.Steals -= o.Steals
	c.Overflows -= o.Overflows
}
