package wmlog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Log file framing. Every record is
//
//	u32 frameLen | u8 type | payload | u32 crc
//
// with frameLen = 1 + len(payload) and crc = CRC-32 (IEEE) over the
// type byte and payload. The file opens with a fixed-size header:
//
//	magic "OPS5WLG1" | u32 version | 32-byte program hash | u32 crc
//
// The CRC plus the length prefix make a torn tail — a crash mid-write —
// detectable: the reader stops at the first frame that is short or
// fails its checksum and reports the clean prefix length, which the
// recovery path truncates to before appending again.

const (
	logMagic   = "OPS5WLG1"
	logVersion = 1
	// HeaderSize is the byte length of the log header: magic, version,
	// program hash, header CRC.
	HeaderSize = len(logMagic) + 4 + 32 + 4

	// maxFrame bounds a single record frame, protecting the reader from
	// a corrupt length prefix: a make record is a few hundred bytes, a
	// program record is one production's source.
	maxFrame = 16 << 20
)

// ErrLogCorrupt reports an unusable log header (wrong magic, version or
// header checksum) — as opposed to a torn tail, which is recoverable.
var ErrLogCorrupt = errors.New("wmlog: corrupt log header")

// SyncPolicy names when appended records are forced to stable storage.
// There is one: SyncCommit, an fsync at every Commit (once per request
// batch). Create still takes it so existing callers keep compiling.
type SyncPolicy int

// SyncCommit fsyncs at every Commit.
const SyncCommit SyncPolicy = 1

// WriterStats counts a log writer's I/O, for /metrics.
type WriterStats struct {
	Records int64 // records appended
	Bytes   int64 // bytes appended (frames, header excluded)
	Commits int64 // Commit calls
	Fsyncs  int64 // fsync calls issued
	FsyncUs int64 // wall-clock inside fsync, µs
}

// Sub subtracts o field-wise — the server folds per-session deltas.
func (s *WriterStats) Sub(o *WriterStats) {
	s.Records -= o.Records
	s.Bytes -= o.Bytes
	s.Commits -= o.Commits
	s.Fsyncs -= o.Fsyncs
	s.FsyncUs -= o.FsyncUs
}

// Writer appends framed records to a session's delta log, one segment
// file at a time (see Switch).
type Writer struct {
	f        File
	bw       *bufio.Writer
	progHash [32]byte // stamped into every segment header
	off      int64    // file offset after the last buffered record
	scratch  []byte
	stats    WriterStats
	closed   bool
}

// writeHeader emits the fixed header onto w.
func writeHeader(w io.Writer, progHash [32]byte) error {
	var b []byte
	b = append(b, logMagic...)
	b = binary.LittleEndian.AppendUint32(b, logVersion)
	b = append(b, progHash[:]...)
	crc := crc32.ChecksumIEEE(b[len(logMagic):])
	b = binary.LittleEndian.AppendUint32(b, crc)
	_, err := w.Write(b)
	return err
}

// readHeader validates the fixed header and returns the program hash.
func readHeader(r io.Reader) (progHash [32]byte, err error) {
	b := make([]byte, HeaderSize)
	if _, err := io.ReadFull(r, b); err != nil {
		return progHash, fmt.Errorf("%w: %v", ErrLogCorrupt, err)
	}
	if string(b[:len(logMagic)]) != logMagic {
		return progHash, fmt.Errorf("%w: bad magic", ErrLogCorrupt)
	}
	if v := binary.LittleEndian.Uint32(b[len(logMagic):]); v != logVersion {
		return progHash, fmt.Errorf("%w: version %d (want %d)", ErrLogCorrupt, v, logVersion)
	}
	body := b[len(logMagic) : HeaderSize-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[HeaderSize-4:]) {
		return progHash, fmt.Errorf("%w: header checksum mismatch", ErrLogCorrupt)
	}
	copy(progHash[:], b[len(logMagic)+4:])
	return progHash, nil
}

// Create opens (or creates) the delta log at path for appending. A new
// or empty file gets a fresh header; an existing file has its header
// validated against progHash and is truncated to cleanLen — the clean
// prefix a prior ReadAll reported — before appending resumes. The
// policy is always SyncCommit.
func Create(path string, progHash [32]byte, _ SyncPolicy, cleanLen int64) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &Writer{f: f, progHash: progHash}
	if st.Size() < int64(HeaderSize) {
		// New (or hopelessly short) log: start from a fresh header.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		if err := writeHeader(f, progHash); err != nil {
			f.Close()
			return nil, err
		}
		w.off = int64(HeaderSize)
	} else {
		got, err := readHeader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		if got != progHash {
			f.Close()
			return nil, fmt.Errorf("wmlog: log %s belongs to a different program", path)
		}
		end := st.Size()
		if cleanLen >= int64(HeaderSize) && cleanLen <= end {
			end = cleanLen
		}
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, err
		}
		if _, err := f.Seek(end, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.off = end
	}
	w.bw = bufio.NewWriterSize(f, 64<<10)
	return w, nil
}

// Append frames and buffers one record; it is neither visible nor
// durable until the next Commit, called at batch boundaries.
func (w *Writer) Append(rec *Record) error {
	if w.closed {
		return errors.New("wmlog: append on closed writer")
	}
	b := w.scratch[:0]
	b = append(b, 0, 0, 0, 0) // frame length placeholder
	b = append(b, byte(rec.Type))
	b = rec.appendPayload(b)
	body := b[4:]
	binary.LittleEndian.PutUint32(b[:4], uint32(len(body)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(body))
	w.scratch = b[:0]
	if _, err := w.bw.Write(b); err != nil {
		return err
	}
	w.off += int64(len(b))
	w.stats.Records++
	w.stats.Bytes += int64(len(b))
	return nil
}

// Commit makes every appended record visible in the file and fsyncs it.
func (w *Writer) Commit() error {
	if w.closed {
		return errors.New("wmlog: commit on closed writer")
	}
	w.stats.Commits++
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.timed(w.f.Sync)
}

// timed runs one fsync and counts it.
func (w *Writer) timed(fsync func() error) error {
	t0 := time.Now()
	err := fsync()
	w.stats.Fsyncs++
	w.stats.FsyncUs += time.Since(t0).Microseconds()
	return err
}

// Switch moves appending to a new segment file at path: create it,
// write the header and fsync the file and its directory — the next
// acknowledged batch will live there. Call it right after a Commit; the
// old segment's file is closed. On error the writer stays on the old
// segment.
func (w *Writer) Switch(fs FS, path string) error {
	f, err := fs.Create(path)
	if err != nil {
		return err
	}
	err = writeHeader(f, w.progHash)
	if err == nil {
		if err = w.timed(f.Sync); err == nil {
			err = w.timed(func() error { return fs.SyncDir(filepath.Dir(path)) })
		}
	}
	if err != nil {
		f.Close()
		return err
	}
	old := w.f
	w.f, w.off = f, int64(HeaderSize)
	w.bw.Reset(f)
	return old.Close()
}

// Size reports the file offset after the last appended record — the
// covering offset a snapshot taken now should carry.
func (w *Writer) Size() int64 { return w.off }

// Stats returns the accumulated I/O counters.
func (w *Writer) Stats() WriterStats { return w.stats }

// Close flushes, fsyncs, and releases the file handle. Safe to call
// twice.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	flushErr := w.bw.Flush()
	var syncErr error
	if flushErr == nil {
		syncErr = w.f.Sync()
	}
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// Closed reports whether the writer has released its file handle.
func (w *Writer) Closed() bool { return w.closed }

// ReadResult is a decoded log.
type ReadResult struct {
	ProgHash [32]byte
	Records  []*Record
	// CleanLen is the byte length of the longest valid prefix. Torn is
	// true when the file continued past it with a short or corrupt
	// frame — the expected shape after a crash mid-append — in which
	// case the tail [CleanLen, EOF) was dropped.
	CleanLen int64
	Torn     bool
	// Segment is the segment CleanLen belongs to (ReadSegments): the
	// newest, the one appending resumes in.
	Segment int
}

// ReadAll decodes the log at path from the byte offset `from` (0 or
// anything below HeaderSize means "all records"; a snapshot passes its
// covering LogOffset). A missing file is an error; a torn tail is not —
// it is reported via Torn/CleanLen and the records before it decode
// normally.
func ReadAll(path string, from int64) (*ReadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < HeaderSize {
		return nil, fmt.Errorf("%w: %d bytes, want at least %d", ErrLogCorrupt, len(data), HeaderSize)
	}
	res := &ReadResult{}
	if res.ProgHash, err = readHeader(newByteReader(data[:HeaderSize])); err != nil {
		return nil, err
	}
	off := int64(HeaderSize)
	if from > off {
		if from > int64(len(data)) {
			// The snapshot covers past EOF: nothing to replay.
			res.CleanLen = int64(len(data))
			return res, nil
		}
		off = from
	}
	res.CleanLen = off
	for off < int64(len(data)) {
		rest := data[off:]
		if len(rest) < 4 {
			res.Torn = true
			break
		}
		frameLen := binary.LittleEndian.Uint32(rest[:4])
		if frameLen < 1 || frameLen > maxFrame || int64(len(rest)) < int64(4+frameLen+4) {
			res.Torn = true
			break
		}
		body := rest[4 : 4+frameLen]
		crc := binary.LittleEndian.Uint32(rest[4+frameLen : 4+frameLen+4])
		if crc32.ChecksumIEEE(body) != crc {
			res.Torn = true
			break
		}
		rec, err := decodeRecord(RecType(body[0]), body[1:])
		if err != nil {
			// A frame that passes its CRC but fails structural decode is
			// not a torn write; refuse to guess.
			return nil, fmt.Errorf("wmlog: record at offset %d: %w", off, err)
		}
		res.Records = append(res.Records, rec)
		off += int64(4 + frameLen + 4)
		res.CleanLen = off
	}
	return res, nil
}

// ReadSegments decodes an entry's delta log from segment first at byte
// offset from — a snapshot's Segment and LogOffset — through the newest
// segment, oldest first. Only the newest segment can be cut short by a
// crash: the torn-tail rule applies to it, and a newest segment shorter
// than its header (a crash inside Switch) reads as empty. A torn, short
// or missing older segment is corruption. No segment at all reads as
// an empty log that resumes in segment first.
func ReadSegments(dir string, progHash [32]byte, first int, from int64) (*ReadResult, error) {
	segs, err := Segments(dir)
	if err != nil {
		return nil, err
	}
	segs = segs[sort.SearchInts(segs, first):]
	res := &ReadResult{ProgHash: progHash, Segment: first}
	for i, n := range segs {
		if n != first+i {
			return nil, fmt.Errorf("%w: segment %d missing before %d", ErrLogCorrupt, first+i, n)
		}
		path := SegmentPath(dir, n)
		newest := i == len(segs)-1
		res.Segment, res.CleanLen, res.Torn = n, 0, false
		if newest {
			if fi, err := os.Stat(path); err == nil && fi.Size() < int64(HeaderSize) {
				break
			}
		}
		r, err := ReadAll(path, from)
		if err != nil {
			return nil, fmt.Errorf("segment %d: %w", n, err)
		}
		if r.ProgHash != progHash {
			return nil, fmt.Errorf("wmlog: log segment %d belongs to a different program", n)
		}
		if r.Torn && !newest {
			return nil, fmt.Errorf("%w: segment %d is torn but not the newest", ErrLogCorrupt, n)
		}
		res.Records = append(res.Records, r.Records...)
		res.CleanLen, res.Torn = r.CleanLen, r.Torn
		from = 0
	}
	return res, nil
}

// newByteReader avoids importing bytes just for a reader.
type byteReader struct {
	b   []byte
	off int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.off >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}
