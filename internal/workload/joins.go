// Adversarial join kernels for the join-order planner and the match
// budget (TestPlannerSkewGain, TestMatchBudgetContainsCrossProduct).
// Each generator returns a complete OPS5 program that halts
// deterministically, so the same source runs under every backend and
// either join order with a byte-identical firing trace.
package workload

import (
	"fmt"
	"strings"
)

// SkewJoin builds the skewed-value join kernel: items and parts share a
// single ^grp value, so the item x part join collapses onto one hash
// line and every activation scans the whole opposite memory. In source
// order that join runs first and materializes items x parts beta
// tokens; each of the ticks then modifies the conf element, whose
// removal and re-assert both walk that full token memory. The planner
// puts conf first instead (its ^flag on constant test is the only
// static selectivity signal), after which the skewed join sees at most
// one left token and the per-tick work drops from O(items*parts) to
// O(1). conf's ^sel never matches any item, so the probe rule never
// fires and the workload's firing trace is just the tick countdown.
func SkewJoin(items, ticks int) string {
	if items < 2 {
		items = 2
	}
	if ticks < 1 {
		ticks = 1
	}
	parts := items / 2
	if parts < 1 {
		parts = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `; SkewJoin: %d items, %d parts (one shared ^grp), %d conf ticks.
(literalize ctl n)
(literalize item grp sel)
(literalize part grp)
(literalize conf sel flag)

; The adversarial rule. Source order joins item x part on the skewed
; ^grp first; the planner moves conf (constant-tested) to the front.
(p skew-probe
  (item ^grp <g> ^sel <s>)
  (part ^grp <g>)
  (conf ^sel <s> ^flag on)
-->
  (halt))

; Each tick modifies conf: one remove + one assert through whatever
; join position conf was compiled into.
(p tick
  (ctl ^n {<k> > 0})
  (conf ^sel <s>)
-->
  (modify 2 ^sel (compute <s> - 1))
  (modify 1 ^n (compute <k> - 1)))

(p done
  (ctl ^n 0)
-->
  (halt))

(make ctl ^n %d)
(make conf ^sel -1 ^flag on)
`, items, parts, ticks, ticks)
	for i := 1; i <= items; i++ {
		fmt.Fprintf(&b, "(make item ^grp 7 ^sel %d)\n", i)
	}
	for i := 0; i < parts; i++ {
		b.WriteString("(make part ^grp 7)\n")
	}
	return b.String()
}

// CrossProduct builds the no-equality-test kernel: the crossp rule's
// condition elements share no variables, so no join order avoids the
// quadratic obj x obj scan — this is the shape the per-rule match
// budget exists to contain. Each tick makes a probe element; crossp
// (more specific) removes it when live, the cleanup rule removes it
// once crossp has been quarantined, so the countdown finishes and the
// program halts either way.
func CrossProduct(objs, ticks int) string {
	if objs < 2 {
		objs = 2
	}
	if ticks < 1 {
		ticks = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, `; CrossProduct: %d objs, %d probe ticks, no shared variables.
(literalize ctl n)
(literalize obj id)
(literalize probe n)

(p crossp
  (probe ^n <k>)
  (obj ^id <a>)
  (obj ^id {<b> > <a>})
-->
  (remove 1))

(p cleanup
  (probe ^n <k>)
-->
  (remove 1))

(p tick
  (ctl ^n {<k> > 0})
  - (probe)
-->
  (make probe ^n <k>)
  (modify 1 ^n (compute <k> - 1)))

(p done
  (ctl ^n 0)
  - (probe)
-->
  (halt))

(make ctl ^n %d)
`, objs, ticks, ticks)
	for i := 1; i <= objs; i++ {
		fmt.Fprintf(&b, "(make obj ^id %d)\n", i)
	}
	return b.String()
}
