package parmatch

import "repro/internal/rete"

// NewSharing is New with the sharing thresholds lowered, so that
// kernels far too small to pass the real ones still share work, wake
// parked workers and steal: idle is the backlog split for an awake idle
// peer (and the queue depth popped whole), wake the one (and the
// pending-root depth) a parked peer is woken for.
func NewSharing(net *rete.Network, cfg Config, sink rete.TerminalSink, idle, wake int) *Matcher {
	return newMatcher(net, cfg, sink, idle, wake)
}

// Units reports how many units have been retired, summed over the
// processes. Exact while drained.
func (m *Matcher) Units() (n int64) {
	for _, w := range m.procs {
		n += w.units
	}
	return n
}

// Parked reports how many match goroutines are parked on their wake
// channels (registered, and blocked or about to block).
func (m *Matcher) Parked() int { return int(m.parked.Load()) }

// InFlight is TaskCount: shared units not yet retired.
func (m *Matcher) InFlight() int64 { return m.queues.TaskCount.Load() }
