package parmatch

import "repro/internal/rete"

// NewEager is New with the scheduling thresholds lowered, so that
// kernels far too small to pass the real ones still wake parked workers
// and spread over several processes: whole is the queue depth popped
// whole (a deeper queue is split in half), wake the pending-root depth a
// parked worker is woken for.
func NewEager(net *rete.Network, cfg Config, sink rete.TerminalSink, whole, wake int) *Matcher {
	return newMatcher(net, cfg, sink, whole, wake)
}

// Units reports how many units have been retired, summed over the
// processes. Exact while drained.
func (m *Matcher) Units() (n int64) {
	for _, w := range m.procs {
		n += w.units
	}
	return n
}

// SoloUnits reports how many units the control process ran alone, with
// no line locks and no task objects. Exact while drained.
func (m *Matcher) SoloUnits() int64 { return m.ctl.solo }

// Parked reports how many match goroutines are parked on their wake
// channels (registered, and blocked or about to block).
func (m *Matcher) Parked() int { return int(m.parked.Load()) }

// InFlight is TaskCount: units not yet retired.
func (m *Matcher) InFlight() int64 { return m.queues.TaskCount.Load() }
