package wmlog

import (
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// failFS fails exactly its failAt-th operation (1-based) and runs every
// other one for real.
type failFS struct {
	failAt, n int
}

var errInjected = errors.New("injected failure")

func (f *failFS) op() error {
	f.n++
	if f.n == f.failAt {
		return errInjected
	}
	return nil
}

func (f *failFS) Create(path string) (File, error) {
	if err := f.op(); err != nil {
		return nil, err
	}
	file, err := OS.Create(path)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f}, nil
}

func (f *failFS) Rename(o, n string) error {
	if err := f.op(); err != nil {
		return err
	}
	return OS.Rename(o, n)
}

func (f *failFS) Remove(path string) error {
	if err := f.op(); err != nil {
		return err
	}
	return OS.Remove(path)
}

func (f *failFS) SyncDir(dir string) error {
	if err := f.op(); err != nil {
		return err
	}
	return OS.SyncDir(dir)
}

type failFile struct {
	File
	fs *failFS
}

func (f *failFile) Write(b []byte) (int, error) {
	if err := f.fs.op(); err != nil {
		return 0, err
	}
	return f.File.Write(b)
}

func (f *failFile) Sync() error {
	if err := f.fs.op(); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestInstallSnapshotLeavesNoTemp fails each operation of a compaction's
// snapshot install in turn: snapshot.tmp never survives, and
// snapshot.snap holds either the old bytes (failure before the rename)
// or the new ones.
func TestInstallSnapshotLeavesNoTemp(t *testing.T) {
	oldB, newB := []byte("old snapshot"), []byte("new snapshot")
	// create, write, fsync, rename, dir fsync
	for failAt := 0; failAt <= 5; failAt++ {
		dir := t.TempDir()
		if err := InstallSnapshot(OS, dir, oldB); err != nil {
			t.Fatal(err)
		}
		fs := &failFS{failAt: failAt}
		err := CommitCompaction(fs, dir, newB, 0)
		if (err != nil) != (failAt > 0) {
			t.Fatalf("fail at %d: err = %v", failAt, err)
		}
		if _, err := os.Stat(snapshotTmpPath(dir)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("fail at %d: snapshot.tmp survived (%v)", failAt, err)
		}
		got, err := os.ReadFile(SnapshotPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		want := oldB
		if failAt == 0 || failAt >= 5 {
			want = newB // renamed before the failing directory fsync
		}
		if string(got) != string(want) {
			t.Fatalf("fail at %d: snapshot holds %q, want %q", failAt, got, want)
		}
	}
}

// TestSegmentedLog switches a writer through three segments and reads
// the log back from each starting point, then checks the recovery rules:
// a short newest segment is empty, a torn newest segment keeps its
// clean prefix, and a torn or missing older segment is corruption.
func TestSegmentedLog(t *testing.T) {
	dir := t.TempDir()
	hash := sha256.Sum256([]byte("prog"))
	w, err := Create(LogPath(dir), hash, SyncCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	tag := 0
	appendN := func(n int) {
		for range n {
			tag++
			if err := w.Append(&Record{Type: RecRemove, Tag: tag}); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	appendN(3) // segment 0: 1..3
	mid := w.Size()
	appendN(2) // segment 0: 4..5
	for seg := 1; seg <= 2; seg++ {
		if err := w.Switch(OS, SegmentPath(dir, seg)); err != nil {
			t.Fatal(err)
		}
		appendN(2) // segment 1: 6..7, segment 2: 8..9
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := Segments(dir); !reflect.DeepEqual(segs, []int{0, 1, 2}) {
		t.Fatalf("segments %v", segs)
	}
	tags := func(first int, from int64) []int {
		t.Helper()
		res, err := ReadSegments(dir, hash, first, from)
		if err != nil {
			t.Fatal(err)
		}
		if res.Segment != 2 || res.Torn {
			t.Fatalf("from %d/%d: newest %d torn %v", first, from, res.Segment, res.Torn)
		}
		var out []int
		for _, r := range res.Records {
			out = append(out, r.Tag)
		}
		return out
	}
	if got := tags(0, mid); !reflect.DeepEqual(got, []int{4, 5, 6, 7, 8, 9}) {
		t.Fatalf("from segment 0 at %d: %v", mid, got)
	}
	if got := tags(1, 0); !reflect.DeepEqual(got, []int{6, 7, 8, 9}) {
		t.Fatalf("from segment 1: %v", got)
	}
	if err := CommitCompaction(OS, dir, []byte("snapshot"), 1); err != nil {
		t.Fatal(err)
	}
	if segs, _ := Segments(dir); !reflect.DeepEqual(segs, []int{1, 2}) {
		t.Fatalf("segments after removing below 1: %v", segs)
	}
	if _, err := ReadSegments(dir, sha256.Sum256([]byte("other")), 1, 0); err == nil {
		t.Fatal("segments of another program accepted")
	}

	// A crash inside Switch: the newest segment exists without a full
	// header and reads as empty, resuming in it.
	short := SegmentPath(dir, 3)
	if err := os.WriteFile(short, []byte("OPS5"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := ReadSegments(dir, hash, 1, 0)
	if err != nil || res.Segment != 3 || res.CleanLen != 0 || len(res.Records) != 4 {
		t.Fatalf("short newest segment: %+v, %v", res, err)
	}

	// Now segment 3 is torn mid-frame: the clean prefix survives.
	w, err = Create(short, hash, SyncCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	appendN(1) // tag 10
	clean := w.Size()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(short, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xff, 0, 0, 0, 1})
	f.Close()
	res, err = ReadSegments(dir, hash, 1, 0)
	if err != nil || !res.Torn || res.CleanLen != clean || len(res.Records) != 5 {
		t.Fatalf("torn newest segment: %+v, %v", res, err)
	}

	// The same tear in an older segment is corruption.
	if err := os.WriteFile(SegmentPath(dir, 4), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegments(dir, hash, 1, 0); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("torn older segment: %v, want ErrLogCorrupt", err)
	}
	// So is a gap.
	os.Remove(SegmentPath(dir, 2))
	if _, err := ReadSegments(dir, hash, 1, 0); !errors.Is(err, ErrLogCorrupt) {
		t.Fatalf("missing segment: %v, want ErrLogCorrupt", err)
	}
	// No segment at all is an empty log resuming where the snapshot says.
	empty := t.TempDir()
	res, err = ReadSegments(empty, hash, 5, 0)
	if err != nil || res.Segment != 5 || len(res.Records) != 0 {
		t.Fatalf("no segments: %+v, %v", res, err)
	}
	if _, err := os.Stat(filepath.Join(empty, "delta.5.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("reading created a segment")
	}
}
