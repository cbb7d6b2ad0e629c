//go:build !linux

package stage

// releaseMapping is a no-op off Linux, where package syscall offers no
// Madvise: promoted pages stay resident until the process exits.
func releaseMapping(region []byte) int64 { return 0 }
