package hashmem

// Frozen is a settled table held for copying: its non-empty lines and
// its store's words up to the last one issued, with no pointer in
// either. A session
// image keeps one and every session that starts from the image thaws
// it, so the image costs what the table holds, not its line array.
type Frozen struct {
	nLines      int
	hashed, seg bool
	at          []uint32 // indices of the non-empty lines, ascending
	lines       []Line   // their contents
	words       []uint32 // store words 0..top-1
	entries     int64
	parked      int64
	maxDepth    int64
	resizes     int64
	rehashed    int64
}

// DefaultLines is the line count a vs2 table is built with when its
// caller names none, and the ceiling Reslot keeps an image under unless
// its table already grew past it.
const DefaultLines = 16384

// minImageLines floors a re-slotted table's line count: enough lines to
// keep early growth off a session's first requests without paying for
// the image's peak-sized array.
const minImageLines = 1024

// Reslot returns a segregated table sized for freezing into an image.
// Its line count is the smallest power of two at least the live
// entries, so nearly every line keeps its one run inline and
// activations stay off the overflow sub-index; never below
// minImageLines; and never above the table's own size or DefaultLines,
// whichever is larger, because every thaw pays for every line and a
// session grows adaptively as its working memory climbs. At the table's
// own size t is returned as it is. Otherwise the live entries are copied
// into a store of the new table's own, so the image leaves behind the
// words t's store no longer reaches (outgrown sub-indexes, recycled
// entries), which Freeze would copy into every thaw; per-run entry order
// and the resize counters are kept. Every image is re-slotted once, when
// it is frozen. Fixed layouts (per-node vs1, legacy list) are returned
// as they are. The caller must hold the table quiescent with its live
// gauge folded; t is dead afterwards unless it is returned.
func (t *Table) Reslot(p *Pools) *Table {
	if !t.seg {
		return t
	}
	live := t.entries.Load()
	ceil := max(len(t.Lines), DefaultLines)
	n := minImageLines
	for int64(n) < live && n < ceil {
		n <<= 1
	}
	if n == len(t.Lines) {
		return t
	}
	nt := newHashed(n, newStore())
	nt.seg = true
	t.rehashInto(nt, p)
	nt.resizes, nt.rehashed = t.resizes, t.rehashed
	return nt
}

// Freeze copies the table into its frozen form: the lines that are not
// zero, by index, and the store's issued words. The copy shares nothing
// with t. The caller must hold the table quiescent with its live gauge
// folded.
func (t *Table) Freeze() *Frozen {
	f := &Frozen{
		nLines:   len(t.Lines),
		hashed:   t.Hashed,
		seg:      t.seg,
		words:    t.st.freeze(),
		entries:  t.entries.Load(),
		parked:   t.parked.Load(),
		maxDepth: t.maxDepth.Load(),
		resizes:  t.resizes,
		rehashed: t.rehashed,
	}
	for i := range t.Lines {
		if t.Lines[i] != (Line{}) {
			f.at = append(f.at, uint32(i))
			f.lines = append(f.lines, t.Lines[i])
		}
	}
	return f
}

// Thaw builds an independent table from f: a line array of f's
// geometry with the stored lines scattered into it, over a store holding
// f's words at their indices in one contiguous segment array. Every
// link, line head, token and negation count of the frozen table is
// valid in it, and its gauges are the frozen ones. f is only read, so
// any number of goroutines may thaw it at once.
//
// spare, when not nil, is a dead table whose memory the thaw takes
// over instead of allocating: its line array when it has f's length,
// cleared first, and its store's segments when the ones f's words fill
// form one array (thawStore). Whichever of the two does not fit is
// allocated fresh. Every table thawed from f fits both until it grows
// its line array. The caller must own spare outright: nothing may read
// or write it again except through the returned table.
func (f *Frozen) Thaw(spare *Table) *Table {
	t := &Table{Hashed: f.hashed, seg: f.seg}
	var old *store
	if spare != nil {
		old = spare.st
		if len(spare.Lines) == f.nLines {
			t.Lines = spare.Lines
			clear(t.Lines)
		}
	}
	if t.Lines == nil {
		t.Lines = make([]Line, f.nLines)
	}
	t.st = thawStore(f.words, old)
	if f.hashed {
		t.mask = uint64(f.nLines - 1)
	}
	for k, i := range f.at {
		t.Lines[i] = f.lines[k]
	}
	t.entries.Store(f.entries)
	t.parked.Store(f.parked)
	t.maxDepth.Store(f.maxDepth)
	t.resizes, t.rehashed = f.resizes, f.rehashed
	return t
}
