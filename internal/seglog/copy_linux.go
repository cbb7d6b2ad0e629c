//go:build linux

package seglog

import (
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// copyFileRangeTrap is copy_file_range's system call number on this
// architecture; 0 where it is not listed, which copies through a buffer.
var copyFileRangeTrap = map[string]uintptr{"amd64": 326, "386": 377, "arm": 391, "arm64": 285,
	"riscv64": 285, "loong64": 285, "ppc64": 379, "ppc64le": 379, "s390x": 375}[runtime.GOARCH]

// copyFileRange copies up to n bytes of src at off to dst at at in the
// kernel and returns how many it copied before the end or an error: the
// buffered copy does the rest, and reports an error that persists.
func copyFileRange(dst, src *os.File, off, n, at int64) int64 {
	var done int64
	for done < n && copyFileRangeTrap != 0 {
		m, _, errno := syscall.Syscall6(copyFileRangeTrap, src.Fd(), uintptr(unsafe.Pointer(&off)),
			dst.Fd(), uintptr(unsafe.Pointer(&at)), uintptr(min(n-done, 1<<30)), 0)
		if errno == syscall.EINTR {
			continue
		}
		if errno != 0 || m == 0 {
			break
		}
		done += int64(m)
	}
	runtime.KeepAlive(src)
	runtime.KeepAlive(dst)
	return done
}
