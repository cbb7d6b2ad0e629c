//go:build linux

package stage

import (
	"runtime"
	"testing"
	"time"
)

// collections waits until trim has counted n more collections than at
// start, forcing them.
func collections(t *testing.T, start, n uint64) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		buffers.mu.Lock()
		seen := buffers.gcs
		buffers.mu.Unlock()
		if seen >= start+n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("trim counted %d collections in 20s, want %d", seen-start, n)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// onFreeList reports whether s is on the free list.
func onFreeList(s *slab) bool {
	buffers.mu.Lock()
	defer buffers.mu.Unlock()
	for _, f := range buffers.free[s.class] {
		if f == s {
			return true
		}
	}
	return false
}

// TestIdleBuffersHandedBack: free buffers no read takes for idleGCs
// collections leave the free list and are unmapped, so BufferBytes falls
// by their size; buffers idle for fewer collections stay on the list.
func TestIdleBuffersHandedBack(t *testing.T) {
	const n = 3000 // a class no other test uses
	c := New(1<<20, 1)
	var bufs []*slab
	var size int64
	for i := 0; i < 3; i++ {
		_, b := takeFloats(n)
		if b == nil {
			t.Fatal("no free-list buffer for a pooled length")
		}
		bufs = append(bufs, b)
		size += b.bytes()
	}
	for _, b := range bufs {
		buffers.give(b)
	}
	buffers.mu.Lock()
	start := buffers.gcs
	buffers.mu.Unlock()
	collections(t, start, idleGCs/2)
	for _, b := range bufs {
		if !onFreeList(b) {
			t.Fatalf("buffer left the free list after %d collections, before %d", idleGCs/2, idleGCs)
		}
	}
	mapped := c.Stats().BufferBytes
	collections(t, start, idleGCs+1)
	for _, b := range bufs {
		if onFreeList(b) {
			t.Fatalf("idle buffer still on the free list after %d collections", idleGCs+1)
		}
	}
	if fell := mapped - c.Stats().BufferBytes; fell < size {
		t.Fatalf("buffer_bytes fell by %d, want at least the %d idle bytes", fell, size)
	}
}
