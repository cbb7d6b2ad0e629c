//go:build unix

package stage

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this platform can map block records for
// the cast promotion path.
const mmapSupported = true

// mmapFile maps size bytes of f from off, a multiple of the page size,
// read-only and shared. Promoted column vectors alias the mapping in the
// frames and SQL segments of the asks that read them, so it is unmapped
// only by its last holder (see mapping).
func mmapFile(f *os.File, off, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), off, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmap unmaps a block-record mapping or a free-list buffer nothing can read
// any more, handing back its pages.
func unmap(region []byte) error {
	if len(region) == 0 {
		return nil
	}
	return syscall.Munmap(region)
}

// mapAnon maps size bytes of private anonymous memory, zero-filled and
// page-aligned, outside the Go heap: the free list's column buffers.
func mapAnon(size int) ([]byte, error) {
	return syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
}
