//go:build unix

package provenance

import (
	"os"
	"syscall"
)

// allocated returns the bytes the file system allocates to the files at
// paths (st_blocks), or -1 where it does not say.
func allocated(paths ...string) int64 {
	var n int64
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			continue
		}
		st, ok := info.Sys().(*syscall.Stat_t)
		if !ok {
			return -1
		}
		n += int64(st.Blocks) * 512
	}
	return n
}
