package wmlog

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/symbols"
	"repro/internal/wm"
)

func testRecords() []*Record {
	return []*Record{
		{Type: RecMake, Tag: 1, Fields: []FieldVal{
			{Kind: wm.KindSym, Str: "acct"},
			{Kind: wm.KindInt, Num: -42},
			{Kind: wm.KindFloat, F: 3.25},
			{Kind: wm.KindNil},
		}},
		{Type: RecRemove, Tag: 1},
		{Type: RecFire, Rule: "apply-txn", Tags: []int{7, 3}},
		{Type: RecHalt},
		{Type: RecProgram, Src: "(p extra (acct) --> (halt))"},
		{Type: RecMake, Tag: 2, Fields: []FieldVal{{Kind: wm.KindSym, Str: "acct"}}},
	}
}

func writeTestLog(t *testing.T, path string, hash [32]byte, recs []*Record) {
	t.Helper()
	w, err := Create(path, hash, SyncCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLogRoundTrip appends every record type and reads them back
// byte-exact.
func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.log")
	hash := sha256.Sum256([]byte("prog"))
	recs := testRecords()
	writeTestLog(t, path, hash, recs)

	res, err := ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Torn {
		t.Fatal("clean log reported torn")
	}
	if res.ProgHash != hash {
		t.Fatal("program hash mismatch")
	}
	if len(res.Records) != len(recs) {
		t.Fatalf("read %d records, want %d", len(res.Records), len(recs))
	}
	for i, got := range res.Records {
		if !reflect.DeepEqual(got, recs[i]) {
			t.Errorf("record %d: got %+v want %+v", i, got, recs[i])
		}
	}

	// Reopen for append and extend; the reader sees old + new.
	w, err := Create(path, hash, SyncCommit, res.CleanLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecRemove, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Records != 1 || st.Fsyncs == 0 {
		t.Errorf("writer stats after commit: %+v", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = ReadAll(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs)+1 {
		t.Fatalf("after reopen: %d records, want %d", len(res.Records), len(recs)+1)
	}
}

// TestLogTornTail corrupts the final frame in several ways and checks
// the reader drops exactly the tail, keeping every complete record.
func TestLogTornTail(t *testing.T) {
	hash := sha256.Sum256([]byte("prog"))
	recs := testRecords()
	for _, mode := range []string{"short-frame", "bad-crc", "partial-length"} {
		t.Run(mode, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "delta.log")
			writeTestLog(t, path, hash, recs)
			full, err := ReadAll(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "short-frame":
				data = data[:len(data)-3] // cut into the last record's CRC
			case "bad-crc":
				data[len(data)-1] ^= 0xff
			case "partial-length":
				data = append(data, 0x09, 0x00) // 2 bytes of a next frame
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			res, err := ReadAll(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Torn {
				t.Fatal("corrupted tail not reported torn")
			}
			wantRecs := len(recs)
			if mode != "partial-length" {
				wantRecs-- // the final record itself was damaged
			}
			if len(res.Records) != wantRecs {
				t.Fatalf("kept %d records, want %d", len(res.Records), wantRecs)
			}
			// Recovery reopens at CleanLen and appends; the log is whole
			// again.
			w, err := Create(path, hash, SyncCommit, res.CleanLen)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(&Record{Type: RecHalt}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			res2, err := ReadAll(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res2.Torn || len(res2.Records) != wantRecs+1 {
				t.Fatalf("after repair: torn=%v records=%d want %d", res2.Torn, len(res2.Records), wantRecs+1)
			}
			_ = full
		})
	}
}

// TestLogProgramMismatch rejects appending to a log owned by another
// program.
func TestLogProgramMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.log")
	writeTestLog(t, path, sha256.Sum256([]byte("a")), nil)
	if _, err := Create(path, sha256.Sum256([]byte("b")), SyncCommit, 0); err == nil {
		t.Fatal("expected program-hash mismatch error")
	}
}

// TestSnapshotRoundTrip exercises encode/decode, the content hash and
// the covering-offset semantics of ReadAll.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := SnapshotPath(dir)
	s := &Snapshot{
		ProgHash:  sha256.Sum256([]byte("prog")),
		NextTag:   7,
		Halted:    true,
		LogOffset: 123,
		Wmes: []TaggedWME{
			{Tag: 2, Fields: []FieldVal{{Kind: wm.KindSym, Str: "acct"}, {Kind: wm.KindInt, Num: 9}}},
			{Tag: 5, Fields: []FieldVal{{Kind: wm.KindSym, Str: "txn"}}},
		},
		Fired: []FireKey{{Rule: "apply", Tags: []int{5, 2}}},
	}
	b, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := InstallSnapshot(OS, dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("snapshot round trip: got %+v want %+v", got, s)
	}
	h1, err := s.Hash()
	if err != nil {
		t.Fatal(err)
	}
	moved := *s
	moved.LogOffset, moved.Segment = 9999, 3
	h2, err := moved.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("hash must ignore the log position")
	}
	diverged := *s
	diverged.NextTag++
	h3, err := diverged.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h3 {
		t.Fatal("hash must change with state")
	}
	// Absent snapshot reads as nil, nil.
	if sn, err := ReadSnapshot(filepath.Join(dir, "none.snap")); sn != nil || err != nil {
		t.Fatalf("missing snapshot: %v, %v", sn, err)
	}
	// Corrupt snapshot is rejected.
	b, _ = os.ReadFile(path)
	b[len(b)-1] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, err := ReadSnapshot(path); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestReadAllFromOffset replays only the records past a covering
// offset, including the covers-past-EOF case.
func TestReadAllFromOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "delta.log")
	hash := sha256.Sum256([]byte("prog"))
	w, err := Create(path, hash, SyncCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(&Record{Type: RecRemove, Tag: 1}); err != nil {
		t.Fatal(err)
	}
	mid := w.Size()
	if err := w.Append(&Record{Type: RecRemove, Tag: 2}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := ReadAll(path, mid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || res.Records[0].Tag != 2 {
		t.Fatalf("offset read: %+v", res.Records)
	}
	// Snapshot covering past EOF (log truncated after snapshot).
	res, err = ReadAll(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 || res.Torn {
		t.Fatalf("past-EOF read: %d records torn=%v", len(res.Records), res.Torn)
	}
}

// TestStoreOpenErrors wants clear errors, not panics, for unusable data
// directories.
func TestStoreOpenErrors(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty path accepted")
	}
	// A file where the directory should be.
	f := filepath.Join(t.TempDir(), "blocked")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("file-as-data-dir accepted")
	}
	// An unwritable directory (skipped for root, who writes anywhere).
	if os.Getuid() != 0 && runtime.GOOS != "windows" {
		ro := filepath.Join(t.TempDir(), "ro")
		if err := os.Mkdir(ro, 0o555); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(filepath.Join(ro, "data")); err == nil {
			t.Fatal("unwritable data dir accepted")
		}
	}
}

// TestStoreLayout exercises entry creation, meta round trip, listing
// and removal.
func TestStoreLayout(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "data"))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := st.EntryDir(KindSession, "s-000001")
	if err != nil {
		t.Fatal(err)
	}
	// The store keeps whatever JSON document its owner hands it.
	m := map[string]any{"matcher": "parallel", "procs": 4.0, "locks": "mrsw", "template": "t-000001"}
	if err := WriteMeta(dir, m); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := ReadMeta(dir, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("meta round trip: %+v want %+v", got, m)
	}
	if _, err := st.EntryDir(KindSession, "s-000002"); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List(KindSession)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []string{"s-000001", "s-000002"}) {
		t.Fatalf("list: %v", ids)
	}
	if err := st.Remove(KindSession, "s-000001"); err != nil {
		t.Fatal(err)
	}
	ids, _ = st.List(KindSession)
	if !reflect.DeepEqual(ids, []string{"s-000002"}) {
		t.Fatalf("list after remove: %v", ids)
	}
}

// TestValueCodec re-interns symbols across independent tables.
func TestValueCodec(t *testing.T) {
	tab1 := symbols.NewTable()
	vals := []wm.Value{
		wm.Sym(tab1.Intern("hello")),
		wm.Int(-7),
		wm.Float(2.5),
		wm.Nil,
	}
	enc := EncodeFields(vals, tab1)
	tab2 := symbols.NewTable()
	tab2.Intern("unrelated") // skew the ID space
	dec := DecodeFields(enc, tab2)
	if tab2.Name(dec[0].Sym) != "hello" {
		t.Fatalf("symbol did not survive re-interning: %v", dec[0])
	}
	for i := 1; i < len(vals); i++ {
		if !dec[i].Equal(vals[i]) {
			t.Errorf("value %d: %v != %v", i, dec[i], vals[i])
		}
	}
}
