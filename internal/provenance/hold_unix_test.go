//go:build unix && !aix && !solaris

package provenance

import (
	"os"
	"strings"
	"syscall"
	"testing"
)

// lockedBy reports whether another open file holds dir locked, by trying
// to lock it from a fresh one as another process would.
func lockedBy(t *testing.T, dir string) bool {
	t.Helper()
	f, err := os.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB) != nil
}

// TestStoreHeldByAnotherProcess: a store's root belongs to one process,
// since referrer counts live in the process that counted them. Opening a
// root that another open file holds locked, as another process's store
// does, fails; every Store of this process over the root shares its hold,
// which the last one's Close gives up.
func TestStoreHeldByAnotherProcess(t *testing.T) {
	root := t.TempDir()
	other, err := os.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Flock(int(other.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		other.Close()
		t.Skipf("no flock here: %v", err)
	}
	if _, err := NewStore(root); err == nil || !strings.Contains(err.Error(), "held by another process") {
		t.Fatalf("open of a held root: %v", err)
	}
	other.Close()
	a, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStore(root)
	if err != nil {
		t.Fatalf("a second store in the same process: %v", err)
	}
	if !lockedBy(t, root) {
		t.Fatal("an open store does not hold its root")
	}
	a.Close()
	if !lockedBy(t, root) {
		t.Fatal("the root was given up while a store over it is open")
	}
	b.Close()
	if lockedBy(t, root) {
		t.Fatal("the last store's close kept its root held")
	}
}
