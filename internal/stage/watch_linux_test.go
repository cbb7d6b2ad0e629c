//go:build linux

package stage

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// inotifyBytes encodes one raw inotify event record with a name of
// nameLen NUL bytes, as the kernel lays it out.
func inotifyBytes(wd int32, mask uint32, nameLen int) []byte {
	b := make([]byte, syscall.SizeofInotifyEvent+nameLen)
	binary.LittleEndian.PutUint32(b[0:], uint32(wd))
	binary.LittleEndian.PutUint32(b[4:], mask)
	binary.LittleEndian.PutUint32(b[12:], uint32(nameLen))
	return b
}

// TestParseInotify feeds the record parser synthetic streams: an
// overflow record, an IN_IGNORED record, a normal event carrying a name,
// and a trailing record cut short — which must be dropped, not read past.
func TestParseInotify(t *testing.T) {
	var stream []byte
	stream = append(stream, inotifyBytes(-1, syscall.IN_Q_OVERFLOW, 0)...)
	stream = append(stream, inotifyBytes(3, syscall.IN_IGNORED, 0)...)
	stream = append(stream, inotifyBytes(4, syscall.IN_MODIFY, 16)...)
	whole := inotifyBytes(5, syscall.IN_ATTRIB, 16)
	want := []inotifyRecord{
		{wd: -1, mask: syscall.IN_Q_OVERFLOW},
		{wd: 3, mask: syscall.IN_IGNORED},
		{wd: 4, mask: syscall.IN_MODIFY},
	}
	for name, tail := range map[string][]byte{
		"no tail":          nil,
		"half a header":    whole[:syscall.SizeofInotifyEvent/2],
		"name cut short":   whole[:len(whole)-1],
		"header, no name":  whole[:syscall.SizeofInotifyEvent],
		"complete trailer": whole,
	} {
		got := parseInotify(append(append([]byte(nil), stream...), tail...))
		exp := want
		if name == "complete trailer" {
			exp = append(append([]inotifyRecord(nil), want...), inotifyRecord{wd: 5, mask: syscall.IN_ATTRIB})
		}
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s: parsed %+v, want %+v", name, got, exp)
		}
	}
	if got := parseInotify(nil); len(got) != 0 {
		t.Errorf("empty read parsed %+v", got)
	}
}

// TestWatchOverflowUnpinsEveryPath proves an overflow conservatively
// invalidates watch-mode freshness: every pin is dropped and every epoch
// bumped (so a stat racing the overflow cannot pin), the overflow is
// counted, and the next lookup of each file stats it again.
func TestWatchOverflowUnpinsEveryPath(t *testing.T) {
	dir := t.TempDir()
	a := writeSnapshot(t, dir, "a.gio", 16, 1)
	b := writeSnapshot(t, dir, "b.gio", 16, 2)
	c := New(1<<30, 2)
	defer c.Close()
	if err := c.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}
	for _, p := range []string{a, b} {
		if _, _, err := c.Columns(p, "fof_halo_tag"); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.WatchedFiles != 2 {
		t.Fatalf("watched_files = %d, want 2", st.WatchedFiles)
	}
	c.mu.Lock()
	epochs := map[string]uint64{a: c.pinEpoch[a], b: c.pinEpoch[b]}
	c.mu.Unlock()

	c.onWatchOverflow()

	st := c.Stats()
	if st.WatchOverflows != 1 || st.WatchedFiles != 0 {
		t.Fatalf("after overflow: watch_overflows = %d, watched_files = %d; want 1, 0", st.WatchOverflows, st.WatchedFiles)
	}
	c.mu.Lock()
	for p, e := range epochs {
		if c.pinEpoch[p] != e+1 {
			t.Errorf("%s: epoch %d, want %d", filepath.Base(p), c.pinEpoch[p], e+1)
		}
	}
	c.mu.Unlock()

	calls := st.StatCalls
	for _, p := range []string{a, b} {
		if _, _, err := c.Columns(p, "fof_halo_tag"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().StatCalls - calls; got != 2 {
		t.Fatalf("lookups after an overflow made %d stat calls, want 2", got)
	}
}
