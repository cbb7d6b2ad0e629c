package seglog

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCopyIn: a range larger than the copy buffer lands whole where the
// log ends, through the kernel's copy and through the buffered one, after
// writes through the appending descriptor; a source that ends early is an
// error.
func TestCopyIn(t *testing.T) {
	root := t.TempDir()
	src := make([]byte, 200<<10)
	for i := range src {
		src[i] = byte(i * 7)
	}
	srcPath := filepath.Join(root, "src")
	if err := os.WriteFile(srcPath, src, 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(root, keepAll)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.Lock()
	g, err := l.Take(t)
	l.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, kernel := range []bool{true, false} {
		if !kernel {
			defer setKernelCopy(false)()
		}
		if _, err := g.File().Write([]byte("head")); err != nil {
			t.Fatal(err)
		}
		want = append(want, "head"...)
		if err := g.CopyIn(srcPath, 1000, int64(len(src)-1000), int64(len(want))); err != nil {
			t.Fatal(err)
		}
		want = append(want, src[1000:]...)
	}
	if got, err := os.ReadFile(g.Path() + ".log"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("log holds %d bytes (%v), want %d", len(got), err, len(want))
	}
	if err := g.CopyIn(srcPath, int64(len(src)-10), 20, int64(len(want))); err == nil {
		t.Fatal("a copy past the source's end succeeded")
	}
	l.Lock()
	l.Release(g)
	l.Unlock()
}
