//go:build unix

package stage

import (
	"os"
	"syscall"
)

// mmapSupported reports whether this platform can map block files for the
// cast promotion path.
const mmapSupported = true

// mmapFile maps the first size bytes of f read-only and shared. A mapping
// some vector was cast from is never unmapped (see diskTier): promoted
// column vectors alias it in the frames and SQL segments of the asks that
// read them. Touched pages count in the process's resident set until the
// tier releases them (releaseMapping).
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size == 0 {
		return []byte{}, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile unmaps a mapping nothing has been cast from — the loser of
// two concurrent promotions of one block.
func munmapFile(region []byte) error {
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
