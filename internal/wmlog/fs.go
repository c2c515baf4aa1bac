package wmlog

import (
	"io"
	"os"
)

// FS is the file-system surface of the compaction protocol — a segment
// switch and a snapshot install — so that a test can stop the protocol
// after any one operation and recover whatever it left on disk.
type FS interface {
	// Create creates or truncates the file at path for writing.
	Create(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	// SyncDir fsyncs a directory, making the creates, renames and
	// removes inside it durable.
	SyncDir(dir string) error
}

// File is a file FS.Create opened.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// OS is the real file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Create(path string) (File, error) {
	return os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(path string) error { return os.Remove(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
