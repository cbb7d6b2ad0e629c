//go:build linux

package provenance

import (
	"os"
	"syscall"
)

// fallocate(2) mode bits.
const (
	fallocKeepSize  = 0x1
	fallocPunchHole = 0x2
)

// punchHole frees the disk blocks under [off, off+n) of f and keeps its
// size; the range then reads as zeros.
func punchHole(f *os.File, off, n int64) error {
	if n <= 0 {
		return nil
	}
	return syscall.Fallocate(int(f.Fd()), fallocPunchHole|fallocKeepSize, off, n)
}

// lockShared marks f as held in this process's pool until it is closed.
// Where the file system has no locks, unused never sees a segment as
// free, so the error can be dropped.
func lockShared(f *os.File) {
	_ = syscall.Flock(int(f.Fd()), syscall.LOCK_SH|syscall.LOCK_NB)
}

// unused reports whether no process holds the file at path in its pool, so
// it may be deleted.
func unused(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) == nil
}
