package wal

import (
	"os"
	"syscall"
)

// fdatasync flushes f's data and the metadata needed to read it back, such
// as its size, but not its timestamps. A commit that overwrites the
// zero-filled tail changes no such metadata, so its flush writes the data
// blocks without a filesystem journal commit.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}
