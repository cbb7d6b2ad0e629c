//go:build linux

package stage

import (
	"encoding/binary"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

// inotifyBytes encodes one raw inotify event record with name padded
// with NULs to nameLen bytes, as the kernel lays it out.
func inotifyBytes(wd int32, mask uint32, name string, nameLen int) []byte {
	b := make([]byte, syscall.SizeofInotifyEvent+nameLen)
	binary.LittleEndian.PutUint32(b[0:], uint32(wd))
	binary.LittleEndian.PutUint32(b[4:], mask)
	binary.LittleEndian.PutUint32(b[12:], uint32(nameLen))
	copy(b[syscall.SizeofInotifyEvent:], name)
	return b
}

// TestParseInotify feeds the record parser synthetic streams: an
// overflow record, an IN_IGNORED record, events naming a directory entry
// (NUL-padded, and filling its length exactly), and a trailing record cut
// short — which must be dropped, not read past.
func TestParseInotify(t *testing.T) {
	var stream []byte
	stream = append(stream, inotifyBytes(-1, syscall.IN_Q_OVERFLOW, "", 0)...)
	stream = append(stream, inotifyBytes(3, syscall.IN_IGNORED, "", 0)...)
	stream = append(stream, inotifyBytes(4, syscall.IN_MODIFY, "s.gio", 16)...)
	stream = append(stream, inotifyBytes(4, syscall.IN_CREATE|syscall.IN_ISDIR, "step-0498", 16)...)
	stream = append(stream, inotifyBytes(4, syscall.IN_MOVED_TO, "exactly-16-bytes", 16)...)
	whole := inotifyBytes(5, syscall.IN_ATTRIB, "t.gio", 16)
	want := []inotifyRecord{
		{wd: -1, mask: syscall.IN_Q_OVERFLOW},
		{wd: 3, mask: syscall.IN_IGNORED},
		{wd: 4, mask: syscall.IN_MODIFY, name: "s.gio"},
		{wd: 4, mask: syscall.IN_CREATE | syscall.IN_ISDIR, name: "step-0498"},
		{wd: 4, mask: syscall.IN_MOVED_TO, name: "exactly-16-bytes"},
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
			exp = append(append([]inotifyRecord(nil), want...), inotifyRecord{wd: 5, mask: syscall.IN_ATTRIB, name: "t.gio"})
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
		if _, _, err := readCols(t, c, p, "fof_halo_tag"); err != nil {
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
		if _, _, err := readCols(t, c, p, "fof_halo_tag"); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().StatCalls - calls; got != 2 {
		t.Fatalf("lookups after an overflow made %d stat calls, want 2", got)
	}
}
