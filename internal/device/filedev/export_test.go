package filedev

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// errPowerCut is returned by every pwrite and fdatasync after a power cut.
var errPowerCut = errors.New("filedev: power cut")

// PowerCuts models a power failure that takes the page cache with it — the
// fault a kill cannot produce, since the page cache outlives the process.
// While it is installed, every pwrite a Dev issues records the bytes it
// overwrote, an fdatasync drops the records of the file it synced, and Cut
// restores the unsynced ranges newest first.
//
// The model serializes the I/O calls, not the Dev's operations: each pwrite
// and fdatasync runs under its lock, so a cut falls between two of them —
// between the syncs of one barrier, or between a write-back's pwrite and the
// dirty mark that follows it — and barriers race write-backs exactly as they
// do without the model.
type PowerCuts struct {
	mu   sync.Mutex
	dead bool
	undo []undoWrite // oldest first
}

// undoWrite is what a pwrite overwrote: old at off in f.
type undoWrite struct {
	f   *os.File
	off int64
	old []byte
}

// ModelPowerCuts routes every Dev's pwrites and fdatasyncs through a fresh
// power-cut model until Restore.
func ModelPowerCuts() *PowerCuts {
	c := &PowerCuts{}
	tap.Store(&ioTap{pwrite: c.pwrite, fdatasync: c.fdatasync})
	return c
}

// Restore removes the model: I/O goes straight to the OS again.
func (c *PowerCuts) Restore() { tap.Store(nil) }

func (c *PowerCuts) pwrite(f *os.File, p []byte, off int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errPowerCut
	}
	old := make([]byte, len(p))
	if _, err := f.ReadAt(old, off); err != nil && err != io.EOF {
		return err
	}
	c.undo = append(c.undo, undoWrite{f: f, off: off, old: old})
	_, err := f.WriteAt(p, off)
	return err
}

func (c *PowerCuts) fdatasync(f *os.File) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return errPowerCut
	}
	if err := fdatasyncFile(f); err != nil {
		return err
	}
	kept := c.undo[:0]
	for _, u := range c.undo {
		if u.f != f {
			kept = append(kept, u)
		}
	}
	clear(c.undo[len(kept):])
	c.undo = kept
	return nil
}

// Cut fails the power: every range written since an fdatasync last covered
// its file goes back to what it held before, newest write first, and every
// later pwrite and fdatasync fails until Restore. Close still releases a
// Dev's descriptors.
func (c *PowerCuts) Cut() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead = true
	for i := len(c.undo) - 1; i >= 0; i-- {
		u := c.undo[i]
		if _, err := u.f.WriteAt(u.old, u.off); err != nil {
			return err
		}
	}
	c.undo = nil
	return nil
}

// tapSyncs routes every fdatasync through sync, and every pwrite straight to
// the OS, until restore runs.
func tapSyncs(sync func(f *os.File) error) (restore func()) {
	tap.Store(&ioTap{
		pwrite: func(f *os.File, p []byte, off int64) error {
			_, err := f.WriteAt(p, off)
			return err
		},
		fdatasync: sync,
	})
	return func() { tap.Store(nil) }
}

// CountSegmentFdatasyncs counts fdatasync calls on segment files until
// restore runs.
func CountSegmentFdatasyncs() (count func() int64, restore func()) {
	var n atomic.Int64
	restore = tapSyncs(func(f *os.File) error {
		if strings.HasPrefix(filepath.Base(f.Name()), "seg-") {
			n.Add(1)
		}
		return fdatasyncFile(f)
	})
	return n.Load, restore
}

// SyncCount returns how many fdatasyncs filedev_sync_us has recorded.
func (d *Dev) SyncCount() int64 { return d.syncUs.Count() }
