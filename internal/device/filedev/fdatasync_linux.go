//go:build linux

package filedev

import (
	"os"
	"syscall"
)

// fdatasyncFile flushes file data (and any metadata needed to read it back)
// without forcing an mtime/atime journal commit — the cheapest durability
// point Linux offers, and the one every barrier pays per dirty file.
func fdatasyncFile(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}
