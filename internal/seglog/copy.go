package seglog

import (
	"errors"
	"os"
	"sync"
)

// copyBufs recycles the buffers of the copies the kernel does not make.
var copyBufs = sync.Pool{New: func() any {
	b := make([]byte, 64<<10)
	return &b
}}

// CopyIn writes the n bytes at off of the file at path to g's log at at,
// its end, with copy_file_range(2) on Linux and through a pooled buffer
// elsewhere or where the kernel declines, through a descriptor that does
// not append (copy_file_range refuses one that does). The caller is
// inside a record.
func (g *Segment) CopyIn(path string, off, n, at int64) error {
	src, err := os.Open(path)
	if err != nil {
		return err
	}
	defer src.Close()
	dst, err := os.OpenFile(g.path+".log", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	return errors.Join(copyRange(dst, src, off, n, at), dst.Close())
}

// copyRange copies n bytes of src at off to dst at at.
func copyRange(dst, src *os.File, off, n, at int64) error {
	done := copyFileRange(dst, src, off, n, at)
	if done == n {
		return nil
	}
	bp := copyBufs.Get().(*[]byte)
	defer copyBufs.Put(bp)
	buf := *bp
	for off, at, n = off+done, at+done, n-done; n > 0; {
		m := min(n, int64(len(buf)))
		if _, err := src.ReadAt(buf[:m], off); err != nil {
			return err
		}
		if _, err := dst.WriteAt(buf[:m], at); err != nil {
			return err
		}
		off, at, n = off+m, at+m, n-m
	}
	return nil
}
