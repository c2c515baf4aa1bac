package hashmem

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/rete"
	"repro/internal/wm"
)

// The token store's words live in fixed-size segments of a table-owned
// store and are addressed by a 32-bit word index; word 0 is never issued,
// so index 0 is the null link. A segment is a plain uint32 array: the
// collector allocates it noscan and never marks inside it, and linking or
// unlinking an entry is a store of an index, not a pointer, so the match
// path pays no write barrier.
const (
	segBits  = 15
	segWords = 1 << segBits // 128 KB
	segMask  = segWords - 1
	// blockWords is what a process takes from the store at a time; it
	// then carves its entries out of the block privately.
	blockWords = 512
)

type segment [segWords]uint32

// store is the word storage of one table, shared by every process that
// matches on it. The segment directory is republished whole when a
// segment is added, so readers — match processes walking a line they
// hold — take no lock: whatever index they reach was linked in after its
// segment was published. Allocation takes the mutex once per block.
//
// Words are issued once and never returned to the store (entries recycle
// through the processes' free lists), so a word is zero when issued.
type store struct {
	dir atomic.Pointer[[]*segment]
	mu  sync.Mutex
	top uint32 // next unissued word; guarded by mu
}

func newStore() *store {
	s := &store{top: 1}
	s.dir.Store(new([]*segment))
	return s
}

// take issues n contiguous words. Up to a segment's worth fit inside one
// segment; a larger run (an overflow sub-index of thousands of runs)
// gets fresh segments cut from one array, so its words are contiguous
// in memory across the segment boundaries.
func (s *store) take(n uint32) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := *s.dir.Load()
	start := s.top
	switch {
	case n > segWords:
		start = uint32(len(dir)) << segBits
	case start&segMask+n > segWords:
		start = (start | segMask) + 1
	}
	end := start + n
	if end < start {
		panic("hashmem: token store exhausted its 32-bit word space")
	}
	if need := int((end-1)>>segBits) + 1; need > len(dir) {
		dir = appendSegments(dir, need-len(dir))
		s.dir.Store(&dir)
	}
	s.top = end
	return start
}

// appendSegments returns dir with k zeroed segments appended, cut from
// one array.
func appendSegments(dir []*segment, k int) []*segment {
	words := make([]uint32, k*segWords)
	grown := append(dir[:len(dir):len(dir)], make([]*segment, k)...)
	for j := 0; j < k; j++ {
		grown[len(dir)+j] = (*segment)(words[j*segWords:])
	}
	return grown
}

// freeze copies the words below top: word 0, never issued, and every
// issued one.
func (s *store) freeze() []uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	words := make([]uint32, 0, s.top)
	for _, seg := range *s.dir.Load() {
		words = append(words, seg[:min(int(s.top)-len(words), segWords)]...)
	}
	return words
}

// thawStore builds a store holding words from index 0 in segments cut
// from one array, issuing the next word after them. With old, a dead
// store, it reuses old's segments when the ones words fill form one
// array there, as they do in every store thawed from the same words:
// words is copied in, the words old issued above them are cleared,
// because a word is zero when the store issues it, and old's further
// segments stay, so the new store grows into them without allocating.
func thawStore(words []uint32, old *store) *store {
	s := &store{top: max(uint32(len(words)), 1)}
	k := (len(words) + segMask) / segWords
	var dir []*segment
	if old != nil && oneArray(*old.dir.Load(), k) {
		dir = *old.dir.Load()
		clearWords(dir, len(words), min(int(old.top), len(dir)<<segBits))
	} else if k > 0 {
		dir = appendSegments(nil, k)
	}
	for i := range k {
		copy(dir[i][:], words[i*segWords:])
	}
	s.dir.Store(&dir)
	return s
}

// oneArray reports whether dir's first k segments are consecutive in
// memory, as appendSegments cuts them: a run of more than a segment's
// words may span them.
func oneArray(dir []*segment, k int) bool {
	if len(dir) < k {
		return false
	}
	for i := 1; i < k; i++ {
		if uintptr(unsafe.Pointer(dir[i]))-uintptr(unsafe.Pointer(dir[0])) != uintptr(i)*unsafe.Sizeof(segment{}) {
			return false
		}
	}
	return true
}

// clearWords zeroes words from..to-1 of dir.
func clearWords(dir []*segment, from, to int) {
	for from < to {
		base := from &^ segMask
		end := min(to, base+segWords)
		clear(dir[from>>segBits][from-base : end-base])
		from = end
	}
}

// view is a snapshot of a store's segment directory, good for every
// word issued before it was taken.
type view []*segment

func (s *store) view() view { return view(*s.dir.Load()) }

// entry is the fixed head of a stored token; its slots follow it in the
// store. An entry is 20 bytes plus 4 per WME, with no pointer in it.
type entry struct {
	next uint32 // next entry on the same list, 0 at the end
	meta uint32 // node ID << 9 | token length << 1 | side
	hlo  uint32 // token hash, low and high halves
	hhi  uint32
	neg  atomic.Int32 // NegCount: matching right WMEs of a negated node's left token
}

const entryWords = uint32(unsafe.Sizeof(entry{}) / 4)

// packMeta packs a join ID, a token length and a side into one word;
// the compiler keeps IDs below rete.MaxJoinIDs and lengths at most
// rete.MaxTokenLen, which is what makes them fit.
func packMeta(node int, n int, side rete.Side) uint32 {
	return uint32(node)<<9 | uint32(n)<<1 | uint32(side)
}

func (e *entry) node() int        { return int(e.meta >> 9) }
func (e *entry) tokLen() int      { return int(e.meta>>1) & rete.MaxTokenLen }
func (e *entry) side() rete.Side  { return rete.Side(e.meta & 1) }
func (e *entry) hash() uint64     { return uint64(e.hhi)<<32 | uint64(e.hlo) }
func (e *entry) setHash(h uint64) { e.hlo, e.hhi = uint32(h), uint32(h>>32) }

// ent returns the entry at word index i.
func (v view) ent(i uint32) *entry {
	return (*entry)(unsafe.Pointer(&v[i>>segBits][i&segMask]))
}

// tok returns the token of the entry at i, n slots long, as a view into
// the store: it changes if the entry is freed and reused.
func (v view) tok(i uint32, n int) []uint32 {
	o := i&segMask + entryWords
	return v[i>>segBits][o : o+uint32(n) : o+uint32(n)]
}

// runAt returns the run record at word index i of an overflow sub-index.
func (v view) runAt(i uint32) *run {
	return (*run)(unsafe.Pointer(&v[i>>segBits][i&segMask]))
}

// Pools is one matcher process's private allocation state: the block of
// store words it carves entries from, its free lists of recycled entries
// (one per token length, chained through entry.next, with no cap, so a
// session's entry memory is its peak live token count), its share of the
// table's live-entry gauge, and the arena its in-flight tokens come from.
// Each process owns one; nothing in it is synchronized.
//
// Slots is the view join tests and hashes resolve slots through. The
// owner refreshes it (Slots.View) whenever the tokens it is about to
// read may name slots assigned since the last refresh.
type Pools struct {
	Slots wm.SlotView

	st       *store // the store blk and free belong to
	blk, end uint32 // unissued words of the current block
	free     []uint32
	live     int64 // inserts minus deletes since the last FoldLive
	arena    arena
}

// bind points p's allocation state at st, dropping a block and free
// lists that belong to another store (a table p's owner no longer uses).
func (p *Pools) bind(st *store) {
	if p.st != st {
		p.st, p.blk, p.end = st, 0, 0
		clear(p.free)
	}
}

// words issues n contiguous words of p's store: from the current block
// when they fit, from a fresh block otherwise, and straight from the
// store when n exceeds a block.
func (p *Pools) words(n uint32) uint32 {
	if n > blockWords {
		return p.st.take(n)
	}
	if p.end-p.blk < n {
		p.blk = p.st.take(blockWords)
		p.end = p.blk + blockWords
	}
	i := p.blk
	p.blk += n
	return i
}

// newEntry stores a token: a recycled entry of its length when there is
// one, fresh words otherwise. v is a view of p's store; newEntry returns
// the entry and a view holding it. NegCount is left as it was: only a
// negated node's left entries use it, and their activation stores the
// count before anything can read it.
func (p *Pools) newEntry(v view, j *rete.JoinNode, side rete.Side, hash uint64, tok []uint32) (uint32, view) {
	n := len(tok)
	var i uint32
	if n < len(p.free) && p.free[n] != 0 {
		i = p.free[n]
		p.free[n] = v.ent(i).next
	} else {
		i = p.words(entryWords + uint32(n))
		v = p.st.view() // the words may be in a new segment
	}
	e := v.ent(i)
	e.next, e.meta = 0, packMeta(j.ID, n, side)
	e.setHash(hash)
	copy(v.tok(i, n), tok)
	return i, v
}

// copyEntry copies the entry at i, read through src, into fresh words of
// p's store and returns the copy, unlinked: its token and NegCount come
// across as they are.
func (p *Pools) copyEntry(src view, i uint32) uint32 {
	n := entryWords + uint32(src.ent(i).tokLen())
	j := p.words(n)
	v := p.st.view()
	copy(v[j>>segBits][j&segMask:][:n], src[i>>segBits][i&segMask:][:n])
	v.ent(j).next = 0
	return j
}

// copyList copies the list at head, read through src, into p's store in
// the same order, and returns the copy's head and length.
func (p *Pools) copyList(src view, head uint32) (first uint32, n int) {
	var last uint32
	for i := head; i != 0; i = src.ent(i).next {
		j := p.copyEntry(src, i)
		if last == 0 {
			first = j
		} else {
			p.st.view().ent(last).next = j
		}
		last = j
		n++
	}
	return first, n
}

// FreeEntry recycles an unlinked entry. Callers own the entry
// exclusively at that point: UpdateOwn unlinked it under the line lock
// and no other process can reach it. The caller must be done reading
// its token and NegCount.
func (p *Pools) FreeEntry(i uint32) {
	if i == 0 {
		return
	}
	e := p.st.view().ent(i)
	n := e.tokLen()
	if n >= len(p.free) {
		p.free = append(p.free, make([]uint32, n+1-len(p.free))...)
	}
	e.next, p.free[n] = p.free[n], i
}

// Token returns an in-flight token of n slots from p's arena: a root, a
// join output, a minus token or a replay seed. It stays valid until the
// owner's next ResetTokens; anything kept longer is copied (a memory
// entry copies its token in, a terminal resolves it to WMEs).
func (p *Pools) Token(n int) []uint32 { return p.arena.take(n) }

// ResetTokens recycles every in-flight token p has handed out. Call it
// at a drained point, when no activation, task or buffered terminal can
// still hold one.
func (p *Pools) ResetTokens() { p.arena.reset() }

// arena is a bump allocator of uint32 tokens over chunks that are kept
// and reused across resets.
type arena struct {
	chunks [][]uint32
	cur    int // chunk being carved
	off    int // next free word in it
}

const arenaChunk = 1 << 13

func (a *arena) take(n int) []uint32 {
	for {
		if a.cur < len(a.chunks) {
			if c := a.chunks[a.cur]; a.off+n <= len(c) {
				s := c[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			if a.cur+1 < len(a.chunks) && n <= len(a.chunks[a.cur+1]) {
				a.cur, a.off = a.cur+1, 0
				continue
			}
		}
		a.chunks = append(a.chunks, make([]uint32, max(arenaChunk, n)))
		a.cur, a.off = len(a.chunks)-1, 0
	}
}

// reset rewinds the arena, keeping its chunks.
func (a *arena) reset() { a.cur, a.off = 0, 0 }
