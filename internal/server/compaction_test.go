package server_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wmlog"
)

var errKilled = errors.New("process killed")

// testFS is the compaction protocol's file system with two test hooks:
// after `left` operations (left < 0: never) every operation fails
// without touching the disk, as if the process had died there; and a
// non-nil gate holds every rename until it is closed, announcing the
// first one on entered, so a compaction can be caught in flight.
type testFS struct {
	mu      sync.Mutex
	left    int
	ops     []string
	gate    chan struct{}
	entered chan struct{}
}

func (f *testFS) op(name, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.left == 0 {
		return errKilled
	}
	f.left--
	if path != "" {
		name += " " + filepath.Base(path)
	}
	f.ops = append(f.ops, name)
	return nil
}

func (f *testFS) performed() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.ops...)
}

func (f *testFS) Create(path string) (wmlog.File, error) {
	if err := f.op("create", path); err != nil {
		return nil, err
	}
	file, err := wmlog.OS.Create(path)
	if err != nil {
		return nil, err
	}
	return &testFile{File: file, fs: f, path: path}, nil
}

func (f *testFS) Rename(oldpath, newpath string) error {
	if f.gate != nil {
		select {
		case f.entered <- struct{}{}:
		default:
		}
		<-f.gate
	}
	if err := f.op("rename", oldpath); err != nil {
		return err
	}
	return wmlog.OS.Rename(oldpath, newpath)
}

func (f *testFS) Remove(path string) error {
	if err := f.op("unlink", path); err != nil {
		return err
	}
	return wmlog.OS.Remove(path)
}

func (f *testFS) SyncDir(dir string) error {
	if err := f.op("dirsync", ""); err != nil {
		return err
	}
	return wmlog.OS.SyncDir(dir)
}

type testFile struct {
	wmlog.File
	fs   *testFS
	path string
}

func (f *testFile) Write(b []byte) (int, error) {
	if err := f.fs.op("write", f.path); err != nil {
		return 0, err
	}
	return f.File.Write(b)
}

func (f *testFile) Sync() error {
	if err := f.fs.op("fsync", f.path); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestCompactionCrashPoints kills the process after every operation of
// a compaction — the segment switch under the session lock, then the
// snapshot install and segment unlinks off it — recovers the
// data directory, and demands the lifecycle differential's oracle: the
// control's rule count and working memory with time tags at the kill,
// and the control's firing trace for the rest of the script. The killed
// compaction runs on a directory an earlier crash left with a stale
// segment, so it unlinks two.
func TestCompactionCrashPoints(t *testing.T) {
	steps, _, _ := lifecycleScript()
	// Thresholds: step 3 on the first server, step 7 (after the build,
	// the excise and the budget trip) on the recovered one.
	const every, t1, t2 = 4, 3, 7
	// The first compaction dies at its unlink: switch, then install.
	const t1Ops = 9
	want := []string{
		"create delta.2.log", "write delta.2.log", "fsync delta.2.log", "dirsync",
		"create snapshot.tmp", "write snapshot.tmp", "fsync snapshot.tmp", "rename snapshot.tmp", "dirsync",
		"unlink delta.log", "unlink delta.1.log",
	}

	// scenario runs the script with the second compaction killed after
	// kill operations (<0: not at all) and returns what it performed.
	scenario := func(t *testing.T, kill int) []string {
		cfg := server.SessionConfig{Program: lifecycleSrc, MatchBudget: 50}
		ctl := &lifecycleEnv{srv: memServer(t)}
		ctlInfo, err := ctl.srv.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctl.id = ctlInfo.ID

		dir := t.TempDir()
		vic := &lifecycleEnv{dir: dir}
		vic.srv, _ = newDurServer(t, dir, every)
		first := &testFS{left: t1Ops}
		vic.srv.SetCompactionFS(first)
		vicInfo, err := vic.srv.CreateSession(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vic.id = vicInfo.ID
		run := func(from, to int) {
			for i := from; i <= to; i++ {
				if got, want := vic.apply(t, steps[i]), ctl.apply(t, steps[i]); got != want {
					t.Fatalf("step %d diverged:\n%s\nwant\n%s", i, got, want)
				}
			}
		}
		run(0, t1)
		vic.srv.WaitCompactions()
		entry := filepath.Join(dir, "sessions", vic.id)
		if segs, _ := wmlog.Segments(entry); !reflect.DeepEqual(segs, []int{0, 1}) {
			t.Fatalf("after the first crash: segments %v, want [0 1]", segs)
		}

		vic.srv, _ = newDurServer(t, dir, every)
		second := &testFS{left: kill}
		vic.srv.SetCompactionFS(second)
		run(t1+1, t2-1)
		// The threshold batch commits before the switch: a kill inside the
		// switch fails the request, but the batch itself is durable.
		_, _ = vic.srv.Batch(vic.id, steps[t2].batch)
		ctl.apply(t, steps[t2])
		vic.srv.WaitCompactions()

		vic.srv, _ = newDurServer(t, dir, every)
		if got, want := vic.rules(t), ctl.rules(t); got != want {
			t.Fatalf("recovered rules = %d, want %d", got, want)
		}
		if got, want := wmTexts(t, vic.srv, vic.id), wmTexts(t, ctl.srv, ctl.id); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered WM diverged:\n%v\nwant\n%v", got, want)
		}
		run(t2+1, len(steps)-1)
		if got, want := wmTexts(t, vic.srv, vic.id), wmTexts(t, ctl.srv, ctl.id); !reflect.DeepEqual(got, want) {
			t.Fatalf("final WM diverged:\n%v\nwant\n%v", got, want)
		}
		return second.performed()
	}

	t.Run("vs2", func(t *testing.T) {
		if got := scenario(t, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("uninterrupted compaction performed\n%q\nwant\n%q", got, want)
		}
		for kill := 0; kill < len(want); kill++ {
			last := "nothing"
			if kill > 0 {
				last = want[kill-1]
			}
			t.Run(fmt.Sprintf("after-%d-%s", kill, last), func(t *testing.T) {
				scenario(t, kill)
			})
		}
	})
}

// blockedServer starts a durable server whose compactions stop before
// their rename until fs.gate closes, and a session on it whose next
// batch crosses the snapshot threshold.
func blockedServer(t *testing.T, dir string) (srv *server.Server, id string, fs *testFS) {
	t.Helper()
	srv, _ = newDurServer(t, dir, 2)
	fs = &testFS{left: -1, gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	srv.SetCompactionFS(fs)
	info, err := srv.CreateSession(server.SessionConfig{Program: stormSrc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Batch(info.ID, stormBatches()[0]); err != nil {
		t.Fatal(err)
	}
	return srv, info.ID, fs
}

// inFlight runs the session's threshold batch and waits until its
// compaction is blocked at the rename.
func inFlight(t *testing.T, srv *server.Server, id string, fs *testFS) {
	t.Helper()
	if _, err := srv.Batch(id, stormBatches()[1]); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fs.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("compaction never reached its rename")
	}
}

// blocks runs fn on its own goroutine, checks that it is still blocked
// a moment later, then releases the gate and waits for fn.
func blocks(t *testing.T, what string, fs *testFS, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	early := false
	select {
	case <-done:
		early = true
	case <-time.After(50 * time.Millisecond):
	}
	close(fs.gate)
	if early {
		t.Fatalf("%s returned while a compaction was in flight", what)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never returned after the compaction finished", what)
	}
}

// TestCompactionLifecycleRaces races a session's lifecycle against a
// compaction caught in flight: a delete, a restore and a server close
// each wait for it (a delete must leave no directory behind for
// recovery to resurrect), a queued compaction is cancelled by a delete,
// and a threshold crossed while one is pending is skipped while the
// batches themselves go on.
func TestCompactionLifecycleRaces(t *testing.T) {
	t.Run("delete-in-flight", func(t *testing.T) {
		dir := t.TempDir()
		srv, id, fs := blockedServer(t, dir)
		inFlight(t, srv, id, fs)
		blocks(t, "DeleteSession", fs, func() {
			if err := srv.DeleteSession(id); err != nil {
				t.Error(err)
			}
		})
		if _, err := os.Stat(filepath.Join(dir, "sessions", id)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("session directory survived its delete: %v", err)
		}
		if _, n := newDurServer(t, dir, 2); n != 0 {
			t.Fatalf("recovery resurrected %d entries", n)
		}
	})

	t.Run("delete-queued", func(t *testing.T) {
		dir := t.TempDir()
		srv, busy, fs := blockedServer(t, dir)
		info, err := srv.CreateSession(server.SessionConfig{Program: stormSrc})
		if err != nil {
			t.Fatal(err)
		}
		queued := info.ID
		if _, err := srv.Batch(queued, stormBatches()[0]); err != nil {
			t.Fatal(err)
		}
		inFlight(t, srv, busy, fs)
		if _, err := srv.Batch(queued, stormBatches()[1]); err != nil {
			t.Fatal(err)
		}
		// busy's compaction holds the one-at-a-time lane, so queued's waits
		// in line — and its delete withdraws it without waiting.
		if err := srv.DeleteSession(queued); err != nil {
			t.Fatal(err)
		}
		if n := srv.Snapshot().Durability.CompactionsCancelled; n != 1 {
			t.Fatalf("compactions cancelled = %d, want 1", n)
		}
		if _, err := os.Stat(filepath.Join(dir, "sessions", queued)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("session directory survived its delete: %v", err)
		}
		close(fs.gate)
		srv.WaitCompactions()
		if n := srv.Snapshot().Durability.Snapshots; n != 1 {
			t.Fatalf("snapshots = %d, want 1", n)
		}
	})

	t.Run("restore-in-flight", func(t *testing.T) {
		dir := t.TempDir()
		srv, id, fs := blockedServer(t, dir)
		inFlight(t, srv, id, fs)
		want := wmTexts(t, srv, id)
		blocks(t, "RestoreSession", fs, func() {
			if _, err := srv.RestoreSession(id); err != nil {
				t.Error(err)
			}
		})
		if got := wmTexts(t, srv, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored WM:\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("close-in-flight", func(t *testing.T) {
		dir := t.TempDir()
		srv, id, fs := blockedServer(t, dir)
		inFlight(t, srv, id, fs)
		want := wmTexts(t, srv, id)
		blocks(t, "Close", fs, srv.Close)
		if n := srv.Snapshot().Durability.Snapshots; n != 1 {
			t.Fatalf("snapshots = %d, want 1", n)
		}
		next, _ := newDurServer(t, dir, 2)
		if got := wmTexts(t, next, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered WM:\n%v\nwant\n%v", got, want)
		}
	})

	t.Run("threshold-while-pending", func(t *testing.T) {
		dir := t.TempDir()
		srv, id, fs := blockedServer(t, dir)
		inFlight(t, srv, id, fs)
		// Two more batches cross the threshold again; they run while the
		// compaction is held, and the threshold is skipped, not queued.
		for _, req := range stormBatches()[2:4] {
			if _, err := srv.Batch(id, req); err != nil {
				t.Fatal(err)
			}
		}
		if n := srv.Snapshot().Durability.CompactionsSkipped; n != 1 {
			t.Fatalf("compactions skipped = %d, want 1", n)
		}
		want := wmTexts(t, srv, id)
		close(fs.gate)
		srv.WaitCompactions()
		if d := srv.Snapshot().Durability; d.Snapshots != 1 || d.CompactionsFailed != 0 {
			t.Fatalf("snapshots = %d, failed = %d; want 1 and 0", d.Snapshots, d.CompactionsFailed)
		}
		next, _ := newDurServer(t, dir, 2)
		if got := wmTexts(t, next, id); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered WM:\n%v\nwant\n%v", got, want)
		}
	})
}
