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

// TestIdleBuffersHandedBack: free buffers no read takes for idleGCs
// collections have their pages handed back (they read zero again instead
// of the poison they were given back with), and taking them again reuses
// the mappings instead of mapping new ones.
func TestIdleBuffersHandedBack(t *testing.T) {
	const n = 3000 // a class no other test uses
	var bufs []*slab
	for i := 0; i < 3; i++ {
		_, b := takeFloats(n)
		if b == nil {
			t.Fatal("no free-list buffer for a pooled length")
		}
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		buffers.give(b)
	}
	buffers.mu.Lock()
	start := buffers.gcs
	buffers.mu.Unlock()
	collections(t, start, idleGCs/2)
	for _, b := range bufs {
		if b.ints(1)[0] == 0 {
			t.Fatalf("buffer handed back after %d collections, before %d", idleGCs/2, idleGCs)
		}
	}
	collections(t, start, idleGCs+1)
	for _, b := range bufs {
		for _, w := range b.ints(len(b.mem) / 8) {
			if w != 0 {
				t.Fatalf("idle buffer still holds its pages after %d collections", idleGCs+1)
			}
		}
	}
	mapped := buffers.mapped.Load()
	for range bufs {
		if _, b := takeFloats(n); b == nil {
			t.Fatal("no free-list buffer for a pooled length")
		} else {
			defer buffers.give(b)
		}
	}
	if got := buffers.mapped.Load(); got != mapped {
		t.Fatalf("taking handed-back buffers mapped %d new bytes", got-mapped)
	}
}
