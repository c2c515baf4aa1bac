package stats

// Durability counts the write-ahead-log and snapshot layer's work: log
// I/O (with fsync latency), snapshot compactions, template forks, and
// crash recovery. SnapshotAgeSec is a gauge filled at snapshot time in
// /metrics — seconds since the server last wrote any snapshot.
type Durability struct {
	LogRecords int64 `json:"log_records"` // delta-log records appended
	LogBytes   int64 `json:"log_bytes"`   // delta-log bytes appended
	LogCommits int64 `json:"log_commits"` // commit points (one per batch)
	Fsyncs     int64 `json:"fsyncs"`      // fsync calls issued
	FsyncUs    int64 `json:"fsync_us"`    // wall-clock inside fsync, µs

	Snapshots      int64 `json:"snapshots"`        // snapshots written
	SnapshotBytes  int64 `json:"snapshot_bytes"`   // encoded snapshot bytes written
	SnapshotAgeSec int64 `json:"snapshot_age_sec"` // seconds since the last snapshot (-1: never)
	// Compaction runs off the session lock: CompactionUs is its wall
	// time (encode, install, unlink), summed over Snapshots.
	CompactionUs         int64 `json:"compaction_us"`
	CompactionsSkipped   int64 `json:"compactions_skipped"`   // thresholds crossed while one was pending
	CompactionsCancelled int64 `json:"compactions_cancelled"` // queued ones dropped by a session's delete or close
	CompactionsFailed    int64 `json:"compactions_failed"`    // snapshot installs that failed (the log kept everything)

	Forks         int64 `json:"forks"`          // sessions forked from templates
	TemplatesLive int64 `json:"templates_live"` // warm template sessions held

	Recoveries      int64 `json:"recoveries"`       // sessions + templates rebuilt at startup
	ReplayedRecords int64 `json:"replayed_records"` // log records replayed during recovery
	TornTails       int64 `json:"torn_tails"`       // truncated torn log tails detected
}

// Add accumulates o into d.
func (d *Durability) Add(o *Durability) {
	d.LogRecords += o.LogRecords
	d.LogBytes += o.LogBytes
	d.LogCommits += o.LogCommits
	d.Fsyncs += o.Fsyncs
	d.FsyncUs += o.FsyncUs
	d.Snapshots += o.Snapshots
	d.SnapshotBytes += o.SnapshotBytes
	d.CompactionUs += o.CompactionUs
	d.CompactionsSkipped += o.CompactionsSkipped
	d.CompactionsCancelled += o.CompactionsCancelled
	d.CompactionsFailed += o.CompactionsFailed
	d.Forks += o.Forks
	d.TemplatesLive += o.TemplatesLive
	d.Recoveries += o.Recoveries
	d.ReplayedRecords += o.ReplayedRecords
	d.TornTails += o.TornTails
}
