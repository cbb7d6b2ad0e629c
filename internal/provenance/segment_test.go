package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/seglog"
)

// segmentOf returns the path, without extension, of the segment holding
// sess's trail.
func segmentOf(t *testing.T, sess *Session) string {
	t.Helper()
	path, _, err := sess.Locate(Entry{File: logName})
	if err != nil || path == "" {
		t.Fatalf("session %s holds no segment (%v)", sess.ID, err)
	}
	return strings.TrimSuffix(path, ".log")
}

// recordAll records each payload into a new session id and closes it.
func recordAll(t *testing.T, store *Store, id string, payloads ...string) *Session {
	t.Helper()
	sess, err := store.NewSession(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if _, err := sess.Record("a", "data", fmt.Sprintf("%s-%d", id, i), []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	return sess
}

// verified opens id in store and checks that its trail verifies and has
// want entries.
func verified(t *testing.T, store *Store, id string, want int) *Session {
	t.Helper()
	sess, err := store.OpenSession(id)
	if err != nil {
		t.Fatalf("open %s: %v", id, err)
	}
	if bad, err := sess.Verify(); err != nil || len(bad) != 0 {
		t.Fatalf("%s does not verify: %v %v", id, bad, err)
	}
	if n := len(sess.Manifest()); n != want {
		t.Fatalf("%s has %d entries, want %d", id, n, want)
	}
	return sess
}

// TestLayoutMatchesPerSessionTrail records the trail that
// testdata/pertrail holds, as the per-session layout wrote it, into a
// segment after another session: the block's entry lines and the range's
// bytes are byte for byte the per-session manifest.jsonl and trail.log.
func TestLayoutMatchesPerSessionTrail(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	recordAll(t, store, "before", "bytes that shift the next session's base")
	sess, err := store.NewSession("fixed")
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() (Entry, error){
		func() (Entry, error) {
			return sess.Record("sql", "code", "query.sql", []byte("SELECT fof_halo_tag, fof_halo_mass FROM halos"))
		},
		func() (Entry, error) {
			return sess.RecordFrame("sql", "work", dataframe.MustFromColumns(dataframe.NewInt("fof_halo_tag", []int64{7, 11, 13}),
				dataframe.NewFloat("fof_halo_mass", []float64{2.5e13, 1.0000000000000002, -0.125})))
		},
		func() (Entry, error) {
			return sess.Checkpoint("after-sql", map[string]any{"step": 2, "tables": []string{"halos"}})
		},
		func() (Entry, error) { return sess.Record("viz", "plot", "p.svg", []byte("<svg/>")) },
		func() (Entry, error) { return sess.Record("empty", "code", "none", nil) },
	}
	for _, step := range steps {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
	sess.Close()

	wantLines, err := os.ReadFile(filepath.Join("testdata", "pertrail", manifestName))
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := os.ReadFile(filepath.Join("testdata", "pertrail", logName))
	if err != nil {
		t.Fatal(err)
	}
	seg := segmentOf(t, sess)
	man, err := os.ReadFile(seg + ".jsonl")
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(man, []byte(`{"session":"fixed",`))
	if at < 0 {
		t.Fatalf("no header for the session in %s", man)
	}
	block := man[at+bytes.IndexByte(man[at:], '\n')+1:]
	if !bytes.Equal(block, wantLines) {
		t.Errorf("entry lines differ from the per-session manifest:\n%s\nwant\n%s", block, wantLines)
	}
	path, base, _ := sess.Locate(Entry{File: logName})
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if base == 0 || !bytes.Equal(log[base:], wantBytes) {
		t.Errorf("range at %d holds %q, want the per-session log %q", base, log[base:], wantBytes)
	}
}

// TestSegmentCrashPoints cuts a two-session segment's log and manifest at
// every pair of lengths across the last record, as a crash can leave
// them, and reopens it: the first session verifies whole, the second
// keeps its complete entries and its torn one is absent, and the next
// session goes to a new segment, leaving the cut one as it was.
func TestSegmentCrashPoints(t *testing.T) {
	src := t.TempDir()
	store, err := NewStore(src)
	if err != nil {
		t.Fatal(err)
	}
	recordAll(t, store, "a", "alpha", "bravo", "charlie")
	b := recordAll(t, store, "b", "delta", "echo")
	seg := segmentOf(t, b)
	size := func(ext string) int64 {
		st, err := os.Stat(seg + ext)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	l0, j0 := size(".log"), size(".jsonl")
	if sess, err := store.OpenSession("b"); err != nil {
		t.Fatal(err)
	} else if _, err := sess.Record("a", "data", "last", []byte("foxtrot!")); err != nil {
		t.Fatal(err)
	} else {
		sess.Close()
	}
	store.Close()
	if seg2 := segmentOf(t, b); seg2 != seg {
		// Resuming b carried on in place only if nothing followed it.
		t.Fatalf("resumed session moved from %s to %s", seg, seg2)
	}
	logBytes, _ := os.ReadFile(seg + ".log")
	manBytes, _ := os.ReadFile(seg + ".jsonl")
	l1, j1 := int64(len(logBytes)), int64(len(manBytes))

	base := t.TempDir()
	for lc := l0; lc <= l1; lc++ {
		for jc := j0; jc <= j1; jc++ {
			crashPoint(t, filepath.Join(base, fmt.Sprintf("%d-%d", lc, jc)), filepath.Base(seg),
				logBytes[:lc], manBytes[:jc], lc == l1 && jc == j1)
		}
	}
}

// crashPoint reopens one cut of the segment in a fresh root.
func crashPoint(t *testing.T, root, seg string, log, man []byte, whole bool) {
	t.Helper()
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(root)
	path := filepath.Join(root, seg)
	if err := os.WriteFile(path+".log", log, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".jsonl", man, 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	verified(t, store, "a", 3)
	want := 2
	if whole {
		want = 3
	}
	verified(t, store, "b", want)
	c := recordAll(t, store, "c", "golf")
	if got := segmentOf(t, c); got == path {
		t.Fatalf("cut at log %d, manifest %d: the next session appended to the cut segment", len(log), len(man))
	}
	for ext, n := range map[string]int{".log": len(log), ".jsonl": len(man)} {
		if st, err := os.Stat(path + ext); err != nil || st.Size() != int64(n) {
			t.Fatalf("cut segment's %s changed: %v", ext, err)
		}
	}
}

// TestTwoStoresOneRoot: two Stores over one root in one process (two
// services over one shard's work dir) race NewSession on every ID and
// exactly one wins each; after a reopen no ID has a live block in two
// segments. Run under -race.
func TestTwoStoresOneRoot(t *testing.T) {
	root := t.TempDir()
	var stores [2]*Store
	for i := range stores {
		var err error
		if stores[i], err = NewStore(root); err != nil {
			t.Fatal(err)
		}
	}
	const ids = 40
	wins := make([][2]bool, ids)
	var wg sync.WaitGroup
	for i := 0; i < ids; i++ {
		for k, store := range stores {
			wg.Add(1)
			go func(i, k int, store *Store) {
				defer wg.Done()
				sess, err := store.NewSession(fmt.Sprintf("q-%04d", i))
				if err != nil {
					return
				}
				wins[i][k] = true
				for j := 0; j < 3; j++ {
					if _, err := sess.Record("a", "data", fmt.Sprint(j), []byte(fmt.Sprintf("%d/%d/%d", i, k, j))); err != nil {
						t.Error(err)
					}
				}
				sess.Close()
			}(i, k, store)
		}
	}
	wg.Wait()
	for i, w := range wins {
		if w[0] == w[1] {
			t.Fatalf("q-%04d: winners %v, want exactly one", i, w)
		}
	}
	for _, s := range stores {
		s.Close()
	}

	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	live := liveBlocks(t, root)
	for i := 0; i < ids; i++ {
		id := fmt.Sprintf("q-%04d", i)
		if live[id] != 1 {
			t.Errorf("%s has %d live blocks", id, live[id])
		}
		verified(t, store, id, 3)
	}
}

// TestRemoveSessionSparesSegmentNeighbour: removing one of two sessions
// that share a segment tombstones and punches out its range only; the
// other verifies before and after a reopen. Removing both deletes the
// segment once no store holds it.
func TestRemoveSessionSparesSegmentNeighbour(t *testing.T) {
	root := t.TempDir()
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	r1 := recordAll(t, store, "r1", "one", "uno")
	r2 := recordAll(t, store, "r2", "two", "dos")
	seg := segmentOf(t, r1)
	if segmentOf(t, r2) != seg {
		t.Fatal("sessions recorded one after another took two segments")
	}
	if err := store.RemoveSession("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenSession("r1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed session opens: %v", err)
	}
	verified(t, store, "r2", 2)
	if ids, _ := store.Sessions(); len(ids) != 1 || ids[0] != "r2" {
		t.Fatalf("sessions after removal = %v", ids)
	}
	man, _ := os.ReadFile(seg + ".jsonl")
	if !bytes.Contains(man, []byte(`{"tombstone":"r1","base":0}`)) {
		t.Fatalf("no tombstone in %s", man)
	}
	if runtime.GOOS == "linux" {
		log, _ := os.ReadFile(seg + ".log")
		if !bytes.Equal(log[:6], make([]byte, 6)) {
			t.Logf("r1's range was not punched out (%q); the file system may not support it", log[:6])
		}
	}
	store.Close()

	store, err = NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.OpenSession("r1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("removed session opens after a reopen: %v", err)
	}
	verified(t, store, "r2", 2)
	if err := store.RemoveSession("r2"); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if names, _ := filepath.Glob(filepath.Join(root, "*")); len(names) != 0 {
		t.Fatalf("store with no session holds %v", names)
	}
}

// TestUnclosedSessionsShareThePool: sessions that record and never close
// (the benchmark's in-process asks) do not take a segment each, or hold
// a descriptor each: past the pool's size a new session takes the segment
// whose owner went longest without a record, and that owner moves its
// trail if it records again.
func TestUnclosedSessionsShareThePool(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	fds := openFDs()
	const n = 3 * seglog.PoolSegments
	var open []*Session
	for i := 0; i < n; i++ {
		sess, err := store.NewSession(fmt.Sprintf("u-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Record("a", "data", "x", []byte(sess.ID)); err != nil {
			t.Fatal(err)
		}
		open = append(open, sess)
	}
	if segs, _ := filepath.Glob(filepath.Join(store.Root, "seg-*.log")); len(segs) > seglog.PoolSegments {
		t.Fatalf("%d unclosed sessions made %d segments, want at most %d", n, len(segs), seglog.PoolSegments)
	}
	if grew := openFDs() - fds; fds >= 0 && grew > 2*seglog.PoolSegments {
		t.Fatalf("%d unclosed sessions hold %d more descriptors", n, grew)
	}
	first := open[0]
	oldPath, oldBase, _ := first.Locate(Entry{File: logName})
	if _, err := first.Record("a", "data", "y", []byte("again")); err != nil {
		t.Fatal(err)
	}
	if path, base, _ := first.Locate(Entry{File: logName}); path == oldPath && base == oldBase {
		t.Fatal("a session whose segment was taken carried on in it")
	}
	man, _ := os.ReadFile(strings.TrimSuffix(oldPath, ".log") + ".jsonl")
	if !bytes.Contains(man, []byte(fmt.Sprintf(`{"tombstone":%q,"base":%d}`, first.ID, oldBase))) {
		t.Fatal("the moved trail's old block has no tombstone")
	}
	verified(t, store, first.ID, 2)
	for _, sess := range open[1:] {
		verified(t, store, sess.ID, 1)
	}
}

// openFDs counts this process's open descriptors, -1 where it cannot.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	return len(ents)
}

// TestRemoveOpenSessionFreesSegment: a session removed without Close (the
// benchmark's provenance replay) gives its segment back emptied, so the
// next session reuses it; the removed session takes no more records.
func TestRemoveOpenSessionFreesSegment(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var last *Session
	for i := 0; i < 20; i++ {
		sess, err := store.NewSession(fmt.Sprintf("r-%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			if _, err := sess.Record("a", "data", "x", bytes.Repeat([]byte("r"), 100)); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.RemoveSession(sess.ID); err != nil {
			t.Fatal(err)
		}
		last = sess
	}
	names := storeFiles(t, store)
	if len(names) != 2 {
		t.Fatalf("store holds %v, want one segment", names)
	}
	for _, name := range names {
		if st, err := os.Stat(filepath.Join(store.Root, name)); err != nil || st.Size() != 0 {
			t.Fatalf("segment file %s of no session is not empty: %v", name, err)
		}
	}
	if _, err := last.Record("a", "data", "x", []byte("late")); err == nil {
		t.Fatal("a removed session took a record")
	}
}

// TestConcurrentUnclosedSessionsMove: goroutines that open more sessions
// than the pool holds and record into them in turn, never closing one,
// keep taking each other's segments and moving trails; every trail still
// verifies whole. Run under -race.
func TestConcurrentUnclosedSessionsMove(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const workers, each, rounds = 4, seglog.PoolSegments/2 + 1, 3
	// Every worker starts a round only once every worker has ended the one
	// before, so the rounds interleave however the goroutines are
	// scheduled, and the pool is outgrown between two records of a session.
	var wg sync.WaitGroup
	var barrier [rounds]sync.WaitGroup
	for r := range barrier {
		barrier[r].Add(workers)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []*Session
			for i := 0; i < each; i++ {
				sess, err := store.NewSession(fmt.Sprintf("w%d-%02d", w, i))
				if err != nil {
					t.Error(err)
				}
				mine = append(mine, sess)
			}
			for r := 0; r < rounds; r++ {
				if r > 0 {
					barrier[r-1].Wait()
				}
				for _, sess := range mine {
					if sess == nil {
						continue
					}
					if _, err := sess.Record("a", "data", fmt.Sprint(r), []byte(fmt.Sprintf("%s/%d", sess.ID, r))); err != nil {
						t.Error(err)
					}
				}
				barrier[r].Done()
			}
		}(w)
	}
	wg.Wait()
	moved := 0
	mans, _ := filepath.Glob(filepath.Join(store.Root, "seg-*.jsonl"))
	for _, name := range mans {
		b, _ := os.ReadFile(name)
		moved += bytes.Count(b, []byte(`{"tombstone":`))
	}
	if moved == 0 {
		t.Fatal("no trail moved: the test did not outgrow the pool")
	}
	ids, _ := store.Sessions()
	if len(ids) != workers*each {
		t.Fatalf("%d sessions, want %d", len(ids), workers*each)
	}
	for _, id := range ids {
		sess := verified(t, store, id, rounds)
		for r, e := range sess.Manifest() {
			if data, err := sess.Read(e); err != nil || string(data) != fmt.Sprintf("%s/%d", id, r) {
				t.Fatalf("%s seq %d reads %q, %v", id, e.Seq, data, err)
			}
		}
	}
}

// TestSegmentWithoutBlockDeletedAtOpen: a segment that holds no block, as
// a crash cut before its first manifest line leaves one (a 10-byte log
// beside an empty manifest), is gone after one open.
func TestSegmentWithoutBlockDeletedAtOpen(t *testing.T) {
	root := t.TempDir()
	writeFiles(t, root, map[string][]byte{"seg-0-1-1.log": []byte("0123456789"), "seg-0-1-1.jsonl": nil})
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if names := storeFiles(t, store); len(names) != 0 {
		t.Fatalf("a segment without a block survived an open: %v", names)
	}
}
