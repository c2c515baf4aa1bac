package wmlog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Store is the daemon's durability root: one directory per persisted
// session or template.
//
//	<dir>/sessions/<id>/program.ops5   OPS5 source the session runs
//	<dir>/sessions/<id>/meta.json      the owner's session configuration
//	<dir>/sessions/<id>/delta.log      framed WM delta log, segment 0
//	<dir>/sessions/<id>/delta.<n>.log  segment n, begun by compaction n
//	<dir>/sessions/<id>/snapshot.snap  latest snapshot, if any
//	<dir>/sessions/<id>/snapshot.tmp   a snapshot being installed
//	<dir>/templates/<id>/...           same layout, log-less
//
// A compaction switches the log to a new segment under the session
// lock, then installs a snapshot naming that segment as the first one
// recovery replays and unlinks the older ones. The snapshot rename is
// the commit point: before it recovery replays the old snapshot plus
// every segment since, after it the new snapshot plus the new segment.
type Store struct {
	dir string
}

// Kind selects the sessions or templates branch of a store.
type Kind string

// Store branches.
const (
	KindSession  Kind = "sessions"
	KindTemplate Kind = "templates"
)

// Open validates dir as a usable data directory, creating it (and its
// branch directories) as needed. Errors are deliberately explicit: the
// daemon reports them and exits instead of panicking partway in.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("wmlog: empty data directory path")
	}
	for _, d := range []string{dir, filepath.Join(dir, string(KindSession)), filepath.Join(dir, string(KindTemplate))} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("wmlog: cannot create data directory %s: %w", d, err)
		}
	}
	// Probe writability now, not at the first session create.
	probe := filepath.Join(dir, ".probe")
	if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
		return nil, fmt.Errorf("wmlog: data directory %s is not writable: %w", dir, err)
	}
	os.Remove(probe)
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (st *Store) Dir() string { return st.dir }

// EntryDir returns (and creates) the directory for one persisted
// session or template.
func (st *Store) EntryDir(kind Kind, id string) (string, error) {
	d := filepath.Join(st.dir, string(kind), id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("wmlog: cannot create %s directory for %s: %w", kind, id, err)
	}
	return d, nil
}

// Paths within an entry directory.
func ProgramPath(dir string) string     { return filepath.Join(dir, "program.ops5") }
func MetaPath(dir string) string        { return filepath.Join(dir, "meta.json") }
func LogPath(dir string) string         { return filepath.Join(dir, "delta.log") }
func SnapshotPath(dir string) string    { return filepath.Join(dir, "snapshot.snap") }
func snapshotTmpPath(dir string) string { return filepath.Join(dir, "snapshot.tmp") }

// SegmentPath names segment n of an entry's delta log.
func SegmentPath(dir string, n int) string {
	if n == 0 {
		return LogPath(dir)
	}
	return filepath.Join(dir, fmt.Sprintf("delta.%d.log", n))
}

// Segments lists the log segments present in an entry directory,
// oldest first.
func Segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		n := 0
		if e.Name() != "delta.log" {
			if _, err := fmt.Sscanf(e.Name(), "delta.%d.log", &n); err != nil || n <= 0 ||
				filepath.Base(SegmentPath(dir, n)) != e.Name() {
				continue
			}
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// CommitCompaction installs a compaction's encoded snapshot b, which
// names segment keep as the first one recovery replays, and unlinks the
// segments below keep. The rename is the commit point: the directory is
// fsynced after it, before anything the snapshot covers goes.
func CommitCompaction(fs FS, dir string, b []byte, keep int) error {
	if err := InstallSnapshot(fs, dir, b); err != nil {
		return err
	}
	if err := fs.SyncDir(dir); err != nil {
		return err
	}
	segs, err := Segments(dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if n >= keep {
			break
		}
		if err := fs.Remove(SegmentPath(dir, n)); err != nil {
			return err
		}
	}
	return nil
}

// WriteMeta persists the entry's configuration: whatever JSON document
// the owner keeps to rebuild the entry (the store does not interpret it).
func WriteMeta(dir string, meta any) error {
	b, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(MetaPath(dir), b, 0o644)
}

// ReadMeta decodes the entry's configuration into meta.
func ReadMeta(dir string, meta any) error {
	b, err := os.ReadFile(MetaPath(dir))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, meta); err != nil {
		return fmt.Errorf("wmlog: %s: %w", MetaPath(dir), err)
	}
	return nil
}

// List returns the persisted entry IDs of one branch, sorted, so
// recovery is deterministic.
func (st *Store) List(kind Kind) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, string(kind)))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Remove deletes one entry's durable state.
func (st *Store) Remove(kind Kind, id string) error {
	return os.RemoveAll(filepath.Join(st.dir, string(kind), id))
}
