//go:build unix

package parmatch_test

import (
	"runtime"
	"syscall"
	"testing"
	"time"
)

// TestParkedAccruesNoCPU: with its match goroutines parked and the
// control process away, a matcher adds (next to) nothing to the
// process's CPU time. RUSAGE_SELF also bills whatever else the process
// does — the collector, the race detector, parallel tests — so the
// parked window is held against a control window measured just before
// the matcher exists, with room for one of the two to catch a
// background burst; a single goroutine still polling would burn the
// whole window, four times the allowance.
func TestParkedAccruesNoCPU(t *testing.T) {
	const window, allowance = 200 * time.Millisecond, 50 * time.Millisecond
	spent := func() time.Duration {
		runtime.GC() // so the collector's own work is not billed to the window
		var a, b syscall.Rusage
		syscall.Getrusage(syscall.RUSAGE_SELF, &a)
		time.Sleep(window)
		syscall.Getrusage(syscall.RUSAGE_SELF, &b)
		return time.Duration(b.Utime.Nano() + b.Stime.Nano() - a.Utime.Nano() - a.Stime.Nano())
	}
	control := spent()
	parkedMatcher(t, 4)
	if parked := spent(); parked > control+allowance {
		t.Errorf("parked matcher: %v of CPU in %v, %v without it", parked, window, control)
	}
}
