//go:build !linux

package filedev

import "os"

// fdatasyncFile falls back to a full fsync where the platform has no
// separate data-only sync.
func fdatasyncFile(f *os.File) error {
	return f.Sync()
}
