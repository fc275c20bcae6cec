//go:build !linux

package wal

import "os"

// fdatasync falls back to a full fsync where the platform has no
// data-only flush.
func fdatasync(f *os.File) error {
	return f.Sync()
}
