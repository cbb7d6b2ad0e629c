//go:build linux

package stage

import "syscall"

// releaseMapping hands the resident pages of a block-file mapping back to
// the kernel (madvise MADV_DONTNEED) and returns the mapping's length, or 0
// if nothing was released. The mapping itself stays: a vector that still
// aliases it re-faults its pages from the file, and block files are
// immutable (see diskTier), so the re-faulted bytes are bit-identical.
func releaseMapping(region []byte) int64 {
	if len(region) == 0 || syscall.Madvise(region, syscall.MADV_DONTNEED) != nil {
		return 0
	}
	return int64(len(region))
}
