//go:build linux

package seglog

import (
	"os"
	"syscall"
)

// punchHole frees the disk blocks under [off, off+n) of f and keeps its
// size (fallocate PUNCH_HOLE|KEEP_SIZE); the range then reads as zeros.
func punchHole(f *os.File, off, n int64) error {
	if n <= 0 {
		return nil
	}
	return syscall.Fallocate(int(f.Fd()), 0x2|0x1, off, n)
}
