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
// column vectors alias it with unbounded lifetime. Touched pages count in
// the process's resident set until the tier releases them
// (releaseMapping).
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
