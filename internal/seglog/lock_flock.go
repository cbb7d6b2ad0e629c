//go:build unix && !aix && !solaris

package seglog

import (
	"errors"
	"os"
	"syscall"
)

// haveLocks: segments and roots are locked here.
const haveLocks = true

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

// lockExclusive locks f for this open file; only another's lock refuses
// it (errHeld), so a file system without locks takes any number.
func lockExclusive(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return errHeld
	}
	return nil
}
