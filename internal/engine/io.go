package engine

import (
	"bufio"
	"strconv"
	"strings"

	"repro/internal/symbols"
	"repro/internal/wm"
)

// IO supplies interactive input to the (accept) and (acceptline) RHS
// forms. The engine asks Ready before firing an instantiation whose RHS
// reads input (the counts are static — see rhs.Compiled); a false answer
// suspends the run cleanly with Result.AwaitingInput instead of blocking
// mid-RHS, which is what lets the server expose interactive programs as
// a request/response API.
type IO interface {
	// Ready reports whether a firing performing the given number of
	// (accept) and (acceptline) reads can run now without blocking.
	Ready(accepts, lines int) bool
	// Accept returns the next input value, or the symbol end-of-file at
	// end of input.
	Accept() wm.Value
	// AcceptLine returns one whole line of input values, for splicing
	// into a vector attribute.
	AcceptLine() []wm.Value
}

// QueueIO is a buffered FIFO IO: callers Supply values ahead of the run
// and the RHS consumes them front to back. It owns its buffer — Supply
// copies — so engine restore and rollback paths can never observe a
// half-consumed caller slice. With EOFWhenEmpty an empty queue yields
// the end-of-file symbol (classic OPS5 batch behavior, and the facade's
// AcceptValues semantics); without it an empty queue reports not-ready,
// which is the server's suspend-and-await behavior.
type QueueIO struct {
	tab          *symbols.Table
	eofWhenEmpty bool
	pending      []wm.Value
	// onTake observes every consumption (the count of values popped);
	// the engine hooks it to journal takes for deterministic replay.
	onTake func(n int)
}

// NewQueueIO builds an empty queue over the program's symbol table.
func NewQueueIO(tab *symbols.Table, eofWhenEmpty bool) *QueueIO {
	return &QueueIO{tab: tab, eofWhenEmpty: eofWhenEmpty}
}

// Supply appends values to the queue.
func (q *QueueIO) Supply(vals ...wm.Value) { q.pending = append(q.pending, vals...) }

// Pending returns a copy of the unconsumed values, for snapshots.
func (q *QueueIO) Pending() []wm.Value {
	out := make([]wm.Value, len(q.pending))
	copy(out, q.pending)
	return out
}

// Len is the number of buffered values.
func (q *QueueIO) Len() int { return len(q.pending) }

// Take discards up to n values from the front, for journal replay of a
// recorded consumption.
func (q *QueueIO) Take(n int) {
	if n > len(q.pending) {
		n = len(q.pending)
	}
	q.pending = q.pending[n:]
}

// Ready requires one buffered value per accept plus at least one per
// acceptline (a line is the whole remaining queue, so it needs content).
// An EOF-when-empty queue is always ready: exhausted input reads as
// end-of-file rather than suspending.
func (q *QueueIO) Ready(accepts, lines int) bool {
	if q.eofWhenEmpty {
		return true
	}
	return len(q.pending) >= accepts+lines
}

// Accept pops the front value.
func (q *QueueIO) Accept() wm.Value {
	if len(q.pending) == 0 {
		return wm.Sym(q.tab.Intern("end-of-file"))
	}
	v := q.pending[0]
	q.pending = q.pending[1:]
	if q.onTake != nil {
		q.onTake(1)
	}
	return v
}

// AcceptLine pops the entire remaining queue as one line.
func (q *QueueIO) AcceptLine() []wm.Value {
	if len(q.pending) == 0 {
		return []wm.Value{wm.Sym(q.tab.Intern("end-of-file"))}
	}
	out := make([]wm.Value, len(q.pending))
	copy(out, q.pending)
	n := len(q.pending)
	q.pending = q.pending[:0]
	if q.onTake != nil {
		q.onTake(n)
	}
	return out
}

// ScannerIO reads input lines on demand from a bufio.Scanner — the
// REPL's stdin-backed IO. It is always ready: a blocking read at the
// terminal is exactly the interactive OPS5 behavior.
type ScannerIO struct {
	tab *symbols.Table
	sc  *bufio.Scanner
	buf []wm.Value // unconsumed values from the current line
	eof bool
}

// NewScannerIO wraps an existing scanner (the REPL shares its own).
func NewScannerIO(tab *symbols.Table, sc *bufio.Scanner) *ScannerIO {
	return &ScannerIO{tab: tab, sc: sc}
}

// Ready is always true: Accept blocks on the terminal instead.
func (s *ScannerIO) Ready(accepts, lines int) bool { return true }

// fill reads lines until one holds at least one value, or input ends.
func (s *ScannerIO) fill() {
	for !s.eof && len(s.buf) == 0 {
		if !s.sc.Scan() {
			s.eof = true
			return
		}
		s.buf = ParseInputValues(s.tab, s.sc.Text())
	}
}

// Accept returns the next whitespace-separated value, reading more lines
// as needed; end of input yields the end-of-file symbol.
func (s *ScannerIO) Accept() wm.Value {
	s.fill()
	if len(s.buf) == 0 {
		return wm.Sym(s.tab.Intern("end-of-file"))
	}
	v := s.buf[0]
	s.buf = s.buf[1:]
	return v
}

// AcceptLine returns the rest of the current line, or the next non-empty
// line when the current one is spent.
func (s *ScannerIO) AcceptLine() []wm.Value {
	s.fill()
	if len(s.buf) == 0 {
		return []wm.Value{wm.Sym(s.tab.Intern("end-of-file"))}
	}
	out := s.buf
	s.buf = nil
	return out
}

// ParseInputValues lexes one line of interactive input into values the
// way OPS5's accept does: whitespace-separated tokens, numbers when they
// parse as numbers, symbols otherwise.
func ParseInputValues(tab *symbols.Table, line string) []wm.Value {
	var out []wm.Value
	for _, f := range strings.Fields(line) {
		if n, err := strconv.ParseInt(f, 10, 64); err == nil {
			out = append(out, wm.Int(n))
			continue
		}
		if x, err := strconv.ParseFloat(f, 64); err == nil {
			out = append(out, wm.Float(x))
			continue
		}
		out = append(out, wm.Sym(tab.Intern(f)))
	}
	return out
}
