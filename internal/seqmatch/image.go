package seqmatch

import (
	"slices"

	"repro/internal/hashmem"
	"repro/internal/rete"
)

// Image is a settled matcher frozen for copying: its network (shared,
// immutable), its token table in frozen form and its
// per-node live-token gauges. Every Thaw is an independent matcher that
// carries on from that state.
type Image struct {
	net     *rete.Network
	variant Variant
	table   *hashmem.Frozen
	count   [2][]int64
}

// Reslot re-slots a settled vs2 table into the geometry a session starts
// from (hashmem.Table.Reslot): every image does it once, before it
// freezes. vs1's per-node table is kept as it is.
func (m *Matcher) Reslot() {
	m.Table.FoldLive(&m.Pools)
	m.Table = m.Table.Reslot(&m.Pools)
}

// Freeze takes the matcher's image. The matcher must be quiescent; it is
// left as it was.
func (m *Matcher) Freeze() *Image {
	m.Table.FoldLive(&m.Pools)
	return &Image{
		net:     m.Net,
		variant: m.Variant,
		table:   m.Table.Freeze(),
		count:   [2][]int64{slices.Clone(m.Rec.NodeCount[0]), slices.Clone(m.Rec.NodeCount[1])},
	}
}

// Thaw builds a matcher from the image, reporting into sink. Match
// counters start at zero — a thawed matcher is a new session and its
// deltas are its own — while the per-node live-token gauges are the
// image's, because they describe state the copy genuinely holds. The
// matcher resolves slots through a table of its own until the caller
// points it at the working memory the image's tokens name (UseSlots),
// which a wm.Memory.Clone of the image's memory copies verbatim. spare,
// when not nil, is the token table of a dead matcher the thaw may take
// over instead of allocating (hashmem.Frozen.Thaw); the caller gives it
// up. The image is only read, so any number of goroutines may thaw it
// at once.
func (im *Image) Thaw(sink rete.TerminalSink, spare *hashmem.Table) *Matcher {
	m := NewWithTable(im.net, im.variant, im.table.Thaw(spare), sink)
	for s := range m.Rec.NodeCount {
		copy(m.Rec.NodeCount[s], im.count[s])
	}
	return m
}
