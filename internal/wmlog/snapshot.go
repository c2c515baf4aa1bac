package wmlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
)

// Snapshot is a session's whole portable state at a drained point: the
// runtime program changes that separate its network from the compiled
// program, the live working memory with exact time tags, the refraction
// state (which still-live instantiations have fired), the time-tag
// counter, the halt flag and the pending input, pinned to a program by
// hash. Token memories and the conflict set are a function of these and
// are rebuilt by matching. Segment and LogOffset say where the session's
// own delta log picks up: recovery restores the snapshot, then replays
// segment Segment from byte LogOffset and every later segment.
//
// This one encoding is the compaction snapshot, the pinned state of a
// template (its hash pins the template's immutability), the initial
// state of a durable fork or import, and the migration payload.
type Snapshot struct {
	// Format is the payload's own version stamp, written by Encode and
	// checked by DecodeSnapshot. The container (magic + snapVersion)
	// versions the framing; Format versions the gob payload layout, so
	// a drift in this struct's field semantics surfaces as a clear
	// "snapshot format version X, this binary reads Y" error on restore
	// or migration import instead of a silently-misdecoded state or an
	// opaque gob failure. Bump snapFormat whenever a field's meaning,
	// type or encoding changes.
	Format    int
	ProgHash  [32]byte
	NextTag   int
	Halted    bool
	LogOffset int64
	// Segment is the first delta-log segment recovery replays, starting
	// at LogOffset. Zero — every template pin and export payload, and
	// every snapshot written before the log was segmented — means
	// delta.log; it does not say which segments the snapshot covers (a
	// fork's first snapshot is its template's, which covers none).
	Segment int
	Wmes    []TaggedWME
	Fired   []FireKey
	// Pending is the unconsumed (accept) input queue at the snapshot
	// point, so a session suspended awaiting input survives compaction
	// and recovery with its buffered values intact. Gob tolerates the
	// field's absence, so pre-existing snapshots decode as an empty queue.
	Pending []FieldVal
	// Program is every runtime program change applied since the program
	// was compiled, oldest first, in the canonical forms the engine
	// journals as RecProgram records: "(p name ...)" and "(excise name)"
	// — runtime builds and excises, match-budget quarantines, re-plans.
	// Restore re-applies them to the empty engine before the WMEs, so the
	// rebuilt network has the same rules, rule IDs and epoch. Format 2
	// payloads lack the field and decode as no changes.
	Program []string
}

// TaggedWME is one working-memory element with its original time tag.
type TaggedWME struct {
	Tag    int
	Fields []FieldVal
}

// FireKey names a fired instantiation: rule plus token time tags in
// token order — exactly the identity the conflict set hashes.
type FireKey struct {
	Rule string
	Tags []int
}

const (
	snapMagic   = "OPS5WSN1"
	snapVersion = 1
	// snapFormat stamps the gob payload layout (see Snapshot.Format).
	// Format 3 added Program, format 4 Segment (a format-3 reader would
	// skip the segments it names); snapFormatMin is the oldest layout
	// this binary still reads.
	snapFormat    = 4
	snapFormatMin = 2
)

// ErrSnapshotVersion reports a snapshot written by a different payload
// format — a binary-skew situation (old snapshot under a new daemon, or
// a migration between daemons of different builds) that must fail
// loudly instead of half-decoding.
var ErrSnapshotVersion = errors.New("wmlog: snapshot format mismatch")

// ErrSnapshotCorrupt reports an undecodable snapshot file.
var ErrSnapshotCorrupt = errors.New("wmlog: corrupt snapshot")

// Encode serializes the snapshot: magic, version, u32 payload length,
// gob payload, CRC-32 over the payload. The encoding is deterministic
// for a given state (slices are ordered by the caller: WMEs by tag,
// fired keys by rule then tags), so Hash doubles as a state identity.
func (s *Snapshot) Encode() ([]byte, error) {
	s.Format = snapFormat
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return nil, err
	}
	var b []byte
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, snapVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(payload.Len()))
	b = append(b, payload.Bytes()...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload.Bytes()))
	return b, nil
}

// DecodeSnapshot parses an encoded snapshot.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	head := len(snapMagic) + 8
	if len(b) < head+4 {
		return nil, fmt.Errorf("%w: %d bytes", ErrSnapshotCorrupt, len(b))
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[len(snapMagic):]); v != snapVersion {
		return nil, fmt.Errorf("%w: version %d (want %d)", ErrSnapshotCorrupt, v, snapVersion)
	}
	n := int(binary.LittleEndian.Uint32(b[len(snapMagic)+4:]))
	if len(b) != head+n+4 {
		return nil, fmt.Errorf("%w: payload length %d in %d-byte file", ErrSnapshotCorrupt, n, len(b))
	}
	payload := b[head : head+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[head+n:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	if s.Format < snapFormatMin || s.Format > snapFormat {
		return nil, fmt.Errorf("%w: snapshot format version %d, this binary reads %d to %d — "+
			"the snapshot was written by a different build (re-snapshot with the writing build, or upgrade in place)",
			ErrSnapshotVersion, s.Format, snapFormatMin, snapFormat)
	}
	return &s, nil
}

// Records is the snapshot as the delta-log records that rebuild it on an
// empty engine, in restore order: the program changes (so the WMEs match
// the same rules, rule IDs and epoch), the makes in tag order, the
// fires, one accept record for the pending input, then the halt.
func (s *Snapshot) Records() []*Record {
	recs := make([]*Record, 0, len(s.Program)+len(s.Wmes)+len(s.Fired)+2)
	for _, src := range s.Program {
		recs = append(recs, &Record{Type: RecProgram, Src: src})
	}
	for i := range s.Wmes {
		recs = append(recs, &Record{Type: RecMake, Tag: s.Wmes[i].Tag, Fields: s.Wmes[i].Fields})
	}
	for i := range s.Fired {
		recs = append(recs, &Record{Type: RecFire, Rule: s.Fired[i].Rule, Tags: s.Fired[i].Tags})
	}
	if len(s.Pending) > 0 {
		recs = append(recs, &Record{Type: RecAccept, Fields: s.Pending})
	}
	if s.Halted {
		recs = append(recs, &Record{Type: RecHalt})
	}
	return recs
}

// Hash is the snapshot's content identity: SHA-256 of its canonical
// encoding with the log position zeroed (two snapshots of identical
// session state hash identically wherever their logs stand).
func (s *Snapshot) Hash() ([32]byte, error) {
	c := *s
	c.LogOffset, c.Segment = 0, 0
	b, err := c.Encode()
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// InstallSnapshot atomically replaces an entry's snapshot with the
// encoded bytes b: write snapshot.tmp, fsync it, rename it over
// snapshot.snap. On error the temp file is removed. The rename survives
// power loss only once the directory is fsynced, which CommitCompaction
// does; a new entry's first snapshot is no more durable than the rest of
// the entry, whose files and directory are not fsynced.
func InstallSnapshot(fs FS, dir string, b []byte) error {
	tmp := snapshotTmpPath(dir)
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, SnapshotPath(dir))
	}
	if err != nil {
		fs.Remove(tmp)
	}
	return err
}

// ReadSnapshot loads the snapshot at path; (nil, nil) when none exists.
func ReadSnapshot(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(b)
}
