//go:build !linux

package seglog

import "os"

// copyFileRange is Linux-only: elsewhere every copy goes through a buffer.
func copyFileRange(dst, src *os.File, off, n, at int64) int64 { return 0 }
