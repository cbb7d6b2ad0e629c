//go:build !unix

package stage

import (
	"fmt"
	"os"
)

// mmapSupported reports whether this platform can map block records for
// the cast promotion path; without it every promotion takes the copy-decode
// fallback, which is still far cheaper than re-staging from the source
// gio file.
const mmapSupported = false

func mmapFile(f *os.File, off, size int64) ([]byte, error) {
	return nil, fmt.Errorf("stage: mmap unsupported on this platform")
}

// unmap does nothing: nothing is ever mapped off unix.
func unmap(region []byte) error { return nil }

// mapAnon fails off unix: column buffers are then plain heap vectors and
// nothing is recycled.
func mapAnon(size int) ([]byte, error) {
	return nil, fmt.Errorf("stage: anonymous mappings unsupported on this platform")
}
