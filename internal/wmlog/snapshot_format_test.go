package wmlog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"testing"
)

// frame wraps a gob payload in the snapshot container (magic, version,
// length, CRC) without going through Encode, so tests can build
// payloads Encode would refuse to write.
func frame(t *testing.T, payload []byte) []byte {
	t.Helper()
	var b []byte
	b = append(b, snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, snapVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	return b
}

// TestSnapshotFormatStamp: Encode stamps the current payload format and
// DecodeSnapshot round-trips it.
func TestSnapshotFormatStamp(t *testing.T) {
	s := &Snapshot{NextTag: 7, Wmes: []TaggedWME{{Tag: 1}}}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Format != snapFormat || got.NextTag != 7 {
		t.Fatalf("decoded Format=%d NextTag=%d, want %d/7", got.Format, got.NextTag, snapFormat)
	}
}

// TestSnapshotFormatMismatch: a payload stamped with a different format
// — a snapshot written by a different build — must fail with
// ErrSnapshotVersion, not half-decode.
func TestSnapshotFormatMismatch(t *testing.T) {
	for _, format := range []int{0, 1, snapFormat + 1, 999} {
		alien := Snapshot{Format: format, NextTag: 3}
		var payload bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(&alien); err != nil {
			t.Fatal(err)
		}
		_, err := DecodeSnapshot(frame(t, payload.Bytes()))
		if !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("format %d: err = %v, want ErrSnapshotVersion", format, err)
		}
		if errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("format %d misreported as corruption: %v", format, err)
		}
	}
}

// TestSnapshotFormat2DecodesEmptyDelta: a payload in the previous
// layout — format 2, no Program field — still decodes, as a session
// with no runtime program changes and everything else intact.
func TestSnapshotFormat2DecodesEmptyDelta(t *testing.T) {
	type snapshotV2 struct {
		Format    int
		ProgHash  [32]byte
		NextTag   int
		Halted    bool
		LogOffset int64
		Wmes      []TaggedWME
		Fired     []FireKey
		Pending   []FieldVal
	}
	old := snapshotV2{Format: 2, ProgHash: [32]byte{1, 2, 3}, NextTag: 9, Halted: true, LogOffset: 77,
		Wmes:  []TaggedWME{{Tag: 4, Fields: []FieldVal{{Kind: 1, Str: "item"}}}},
		Fired: []FireKey{{Rule: "r", Tags: []int{4}}}}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&old); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(frame(t, payload.Bytes()))
	if err != nil {
		t.Fatalf("format-2 payload: %v", err)
	}
	if len(got.Program) != 0 {
		t.Fatalf("format-2 payload decoded with program delta %v", got.Program)
	}
	if got.ProgHash != old.ProgHash || got.NextTag != 9 || !got.Halted || got.LogOffset != 77 ||
		len(got.Wmes) != 1 || got.Wmes[0].Tag != 4 || len(got.Fired) != 1 || got.Fired[0].Rule != "r" {
		t.Fatalf("format-2 payload decoded as %+v", got)
	}
}

// TestSnapshotHashCoversProgramDelta: two states that differ only in
// their runtime program changes are different states.
func TestSnapshotHashCoversProgramDelta(t *testing.T) {
	a := &Snapshot{NextTag: 7, Wmes: []TaggedWME{{Tag: 1}}}
	b := &Snapshot{NextTag: 7, Wmes: []TaggedWME{{Tag: 1}}, Program: []string{"(excise r)"}}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha == hb {
		t.Fatal("hash ignores the program delta")
	}
	enc, err := b.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeSnapshot(enc); err != nil || len(got.Program) != 1 || got.Program[0] != "(excise r)" {
		t.Fatalf("program delta round trip: %+v, %v", got, err)
	}
}
