package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"infera/internal/dataframe"
)

func newSession(t *testing.T) (*Store, *Session) {
	t.Helper()
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.NewSession("run-001")
	if err != nil {
		t.Fatal(err)
	}
	return store, sess
}

// logSize returns the bytes of sess's segment log from where its range
// starts, 0 before its first record.
func logSize(t *testing.T, sess *Session) int64 {
	t.Helper()
	path, base, err := sess.Locate(Entry{File: logName})
	if err != nil {
		t.Fatal(err)
	}
	if path == "" {
		return 0
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size() - base
}

// flipEntryByte inverts byte at of entry e's bytes on disk.
func flipEntryByte(t *testing.T, sess *Session, e Entry, at int64) {
	t.Helper()
	path, off, err := sess.Locate(e)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, path, off+at)
}

// storeFiles lists the names in a store's directory.
func storeFiles(t *testing.T, store *Store) []string {
	t.Helper()
	ents, err := os.ReadDir(store.Root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// flipByte inverts one byte of a file in place.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, at); err != nil {
		t.Fatal(err)
	}
}

func TestRecordSequencesAndManifest(t *testing.T) {
	_, sess := newSession(t)
	e1, err := sess.Record("sql", "code", "query.sql", []byte("SELECT 1"))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := sess.Record("python", "code", "analysis.py", []byte("x = 1"))
	if err != nil {
		t.Fatal(err)
	}
	if e1.Seq != 0 || e2.Seq != 1 {
		t.Errorf("seqs = %d, %d", e1.Seq, e2.Seq)
	}
	if e1.File != logName || e2.File != logName {
		t.Errorf("files = %s, %s; want the session log", e1.File, e2.File)
	}
	if e1.Offset != 0 || e2.Offset != e1.Bytes {
		t.Errorf("offsets = %d, %d", e1.Offset, e2.Offset)
	}
	m := sess.Manifest()
	if len(m) != 2 || m[1].Agent != "python" {
		t.Errorf("manifest = %+v", m)
	}
	data, err := sess.Read(e1)
	if err != nil || string(data) != "SELECT 1" {
		t.Errorf("read = %q, %v", data, err)
	}
}

// TestSessionsShareOneSegment: sessions recorded one after another, however
// many artifacts each keeps, live in one segment: the store's directory
// holds its log and its manifest and nothing else.
func TestSessionsShareOneSegment(t *testing.T) {
	store, sess := newSession(t)
	for n := 0; n < 3; n++ {
		if n > 0 {
			var err error
			if sess, err = store.NewSession(fmt.Sprintf("run-%03d", n+1)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 20; i++ {
			if _, err := sess.Record("a", "data", fmt.Sprintf("x%d.csv", i), []byte("1,2\n")); err != nil {
				t.Fatal(err)
			}
		}
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}
	names := storeFiles(t, store)
	if len(names) != 2 || !strings.HasSuffix(names[0], ".jsonl") || !strings.HasSuffix(names[1], ".log") ||
		strings.TrimSuffix(names[0], ".jsonl") != strings.TrimSuffix(names[1], ".log") {
		t.Errorf("store directory holds %v, want one segment's two files", names)
	}
}

// TestRangesContiguous: each artifact starts where the previous one ended,
// and the log holds nothing but the ranges the manifest names.
func TestRangesContiguous(t *testing.T) {
	_, sess := newSession(t)
	f := dataframe.MustFromColumns(dataframe.NewFloat("m", []float64{1.5, 2.25, 3}))
	for i := 0; i < 6; i++ {
		var err error
		if i%2 == 0 {
			_, err = sess.RecordFrame("loader", fmt.Sprintf("t%d", i), f)
		} else {
			_, err = sess.Record("sql", "code", "q.sql", bytes.Repeat([]byte("S"), i*100))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	var next int64
	for _, e := range sess.Manifest() {
		if e.Offset != next {
			t.Fatalf("seq %d starts at %d, want %d", e.Seq, e.Offset, next)
		}
		next += e.Bytes
	}
	if got := logSize(t, sess); got != next || got != sess.SizeBytes() {
		t.Fatalf("log is %d bytes, ranges sum to %d, SizeBytes %d", got, next, sess.SizeBytes())
	}
}

// TestFailedRecordTruncatesLog: a write error mid-artifact leaves the log
// as it was, no manifest line, and the next record at the same offset.
func TestFailedRecordTruncatesLog(t *testing.T) {
	store, sess := newSession(t)
	if _, err := sess.Record("a", "code", "ok", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	before := logSize(t, sess)
	boom := errors.New("disk full")
	_, err := sess.record("a", "data", "bad.csv", "", func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("x"), 5000)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("record error = %v", err)
	}
	if got := logSize(t, sess); got != before {
		t.Fatalf("failed record left the log at %d bytes, want %d", got, before)
	}
	e, err := sess.Record("a", "code", "next", []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Offset != before {
		t.Fatalf("next record at %d, want %d", e.Offset, before)
	}
	re, err := store.OpenSession("run-001")
	if err != nil {
		t.Fatal(err)
	}
	if m := re.Manifest(); len(m) != 2 || m[1].Name != "next" {
		t.Fatalf("manifest after a failed record = %+v", m)
	}
	if bad, _ := re.Verify(); len(bad) != 0 {
		t.Fatalf("trail does not verify: %v", bad)
	}
}

// TestConcurrentRecordsDisjoint: eight goroutines recording into one
// session get disjoint ranges that read back byte-exact. Run under -race.
func TestConcurrentRecordsDisjoint(t *testing.T) {
	_, sess := newSession(t)
	const writers, each = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				data := bytes.Repeat([]byte{byte('a' + g)}, 100+g*37+i)
				if _, err := sess.Record(fmt.Sprintf("g%d", g), "data", fmt.Sprintf("%d", i), data); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	m := sess.Manifest()
	if len(m) != writers*each {
		t.Fatalf("%d entries, want %d", len(m), writers*each)
	}
	var next int64
	for _, e := range m {
		if e.Offset != next {
			t.Fatalf("seq %d at %d, want %d (ranges overlap or leave gaps)", e.Seq, e.Offset, next)
		}
		next += e.Bytes
		data, err := sess.Read(e)
		if err != nil {
			t.Fatal(err)
		}
		var g, i int
		fmt.Sscanf(e.Agent, "g%d", &g)
		fmt.Sscanf(e.Name, "%d", &i)
		if want := bytes.Repeat([]byte{byte('a' + g)}, 100+g*37+i); !bytes.Equal(data, want) {
			t.Fatalf("seq %d read back %d bytes that differ from what %s recorded", e.Seq, len(data), e.Agent)
		}
	}
}

func TestRecordFrameAndSize(t *testing.T) {
	_, sess := newSession(t)
	f := dataframe.MustFromColumns(dataframe.NewInt("a", []int64{1, 2}))
	e, err := sess.RecordFrame("loader", "halos", f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(e.Name, ".csv") || e.Kind != "data" {
		t.Errorf("entry = %+v", e)
	}
	if sess.SizeBytes() != e.Bytes {
		t.Errorf("size = %d, want %d", sess.SizeBytes(), e.Bytes)
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	_, sess := newSession(t)
	if _, err := sess.Record("viz", "plot", "p.svg", []byte("<svg/>")); err != nil {
		t.Fatal(err)
	}
	e, err := sess.Record("viz", "plot", "q.svg", []byte("<svg></svg>"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sess.Verify()
	if err != nil || len(bad) != 0 {
		t.Fatalf("fresh session should verify: %v %v", bad, err)
	}
	flipEntryByte(t, sess, e, 3)
	bad, err = sess.Verify()
	if err != nil || len(bad) != 1 || bad[0].Seq != e.Seq {
		t.Errorf("tampering not detected: %v %v", bad, err)
	}
}

// TestFlipInOneRangeFlagsOnlyIt flips one byte inside each range in turn
// and checks that exactly that entry fails verification.
func TestFlipInOneRangeFlagsOnlyIt(t *testing.T) {
	_, sess := newSession(t)
	for i := 0; i < 5; i++ {
		if _, err := sess.Record("a", "data", fmt.Sprintf("%d", i), bytes.Repeat([]byte{'0' + byte(i)}, 10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range sess.Manifest() {
		flipEntryByte(t, sess, e, e.Bytes/2)
		bad, err := sess.Verify()
		if err != nil || len(bad) != 1 || bad[0].Seq != e.Seq {
			t.Fatalf("flip inside seq %d flagged %v (%v)", e.Seq, bad, err)
		}
		flipEntryByte(t, sess, e, e.Bytes/2)
	}
	if bad, _ := sess.Verify(); len(bad) != 0 {
		t.Fatalf("restored trail does not verify: %v", bad)
	}
}

// TestReadRejectsBadRanges: negative fields, a range past the end of the
// session's trail (into the next session's bytes, or past the file), and
// a path outside the session fail before anything is allocated.
func TestReadRejectsBadRanges(t *testing.T) {
	store, sess := newSession(t)
	e, err := sess.Record("a", "code", "x", []byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	sess.Close()
	next, err := store.NewSession("run-002")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := next.Record("a", "code", "y", []byte("neighbour")); err != nil {
		t.Fatal(err)
	}
	segLog, _, _ := sess.Locate(e)
	for name, bad := range map[string]Entry{
		"negative bytes":  {File: e.File, Bytes: -1},
		"negative offset": {File: e.File, Offset: -1, Bytes: 2},
		"past the end":    {File: e.File, Offset: 8, Bytes: 3},
		"neighbour":       {File: e.File, Offset: 10, Bytes: 9},
		"huge":            {File: e.File, Offset: 1, Bytes: 1 << 62},
		"overflowing":     {File: e.File, Offset: 1 << 62, Bytes: 1 << 62},
		"outside":         {File: "../run-001/" + logName, Bytes: 1},
		"absolute":        {File: segLog, Bytes: 1},
		"directory":       {File: ".", Bytes: 0},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		data, err := sess.Read(bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: Read = %d bytes, want an error", name, len(data))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Read allocated %d bytes before failing", name, grew)
		}
	}
}

func TestOpenSessionResumesSequence(t *testing.T) {
	store, sess := newSession(t)
	if _, err := sess.Record("a", "k", "x", []byte("1")); err != nil {
		t.Fatal(err)
	}
	re, err := store.OpenSession("run-001")
	if err != nil {
		t.Fatal(err)
	}
	e, err := re.Record("b", "k", "y", []byte("2"))
	if err != nil {
		t.Fatal(err)
	}
	if e.Seq != 1 {
		t.Errorf("resumed seq = %d, want 1", e.Seq)
	}
	if e.Offset != 1 {
		t.Errorf("resumed offset = %d, want 1", e.Offset)
	}
	if len(re.Manifest()) != 2 {
		t.Errorf("manifest = %d entries", len(re.Manifest()))
	}
}

func TestCheckpointAndLast(t *testing.T) {
	_, sess := newSession(t)
	type state struct{ Step int }
	if _, err := sess.Checkpoint("after-load", state{Step: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Record("sql", "code", "q", []byte("SELECT")); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Checkpoint("after-sql", state{Step: 2}); err != nil {
		t.Fatal(err)
	}
	cp, ok := sess.LastCheckpoint()
	if !ok || !strings.Contains(cp.Name, "after-sql") {
		t.Errorf("last checkpoint = %+v, %v", cp, ok)
	}
	data, err := sess.Read(cp)
	if err != nil || !strings.Contains(string(data), "\"Step\": 2") {
		t.Errorf("checkpoint content = %q", data)
	}
}

func TestBranchCopiesPrefix(t *testing.T) {
	store, sess := newSession(t)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := sess.Record("agent", "data", name, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	branch, err := store.Branch(sess, "run-001-alt", 1)
	if err != nil {
		t.Fatal(err)
	}
	m := branch.Manifest()
	if len(m) != 2 || m[1].Name != "b" {
		t.Errorf("branch manifest = %+v", m)
	}
	// The branch continues independently.
	if _, err := branch.Record("agent", "data", "d", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(sess.Manifest()) != 3 {
		t.Error("branching mutated the source session")
	}
	bad, _ := branch.Verify()
	if len(bad) != 0 {
		t.Errorf("branch does not verify: %v", bad)
	}
}

func TestDuplicateSessionRejected(t *testing.T) {
	store, _ := newSession(t)
	if _, err := store.NewSession("run-001"); err == nil {
		t.Error("duplicate session should fail")
	}
	ids, err := store.Sessions()
	if err != nil || len(ids) != 1 || ids[0] != "run-001" {
		t.Errorf("sessions = %v, %v", ids, err)
	}
}

// TestOddNamesStayInManifest: agent, kind and artifact names are manifest
// text, never paths — odd ones are kept verbatim and create no file.
func TestOddNamesStayInManifest(t *testing.T) {
	store, sess := newSession(t)
	e, err := sess.Record("ag ent", "co/de", "../weird name.sql", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if e.File != logName {
		t.Errorf("artifact file = %s, want the session log", e.File)
	}
	re, err := store.OpenSession("run-001")
	if err != nil {
		t.Fatal(err)
	}
	if m := re.Manifest(); len(m) != 1 || m[0].Agent != "ag ent" || m[0].Kind != "co/de" || m[0].Name != "../weird name.sql" {
		t.Errorf("manifest = %+v", m)
	}
	if names := storeFiles(t, store); len(names) != 2 {
		t.Errorf("store root holds %v, want one segment's two files", names)
	}
}

// TestSessionHoldsSegmentUntilClose: a session keeps its segment from its
// first record until Close, so a session recording meanwhile takes
// another; after Close the next session reuses it and creates no file.
// Offsets carry on across a Close, and closing twice is harmless.
func TestSessionHoldsSegmentUntilClose(t *testing.T) {
	store, sess := newSession(t)
	if _, err := sess.Record("a", "k", "one", []byte("111")); err != nil {
		t.Fatal(err)
	}
	other, err := store.NewSession("run-002")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Record("a", "k", "two", []byte("22")); err != nil {
		t.Fatal(err)
	}
	p1, _, _ := sess.Locate(Entry{File: logName})
	p2, _, _ := other.Locate(Entry{File: logName})
	if p1 == p2 {
		t.Fatalf("two open sessions share segment %s", p1)
	}
	for _, s := range []*Session{sess, other} {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	files := len(storeFiles(t, store))

	// Close, then record: the session carries on at its trail's end.
	sess, err = store.NewSession("run-003")
	if err != nil {
		t.Fatal(err)
	}
	for i, data := range []string{"abc", "de"} {
		if i == 1 {
			if err := sess.Close(); err != nil {
				t.Fatal(err)
			}
		}
		e, err := sess.Record("a", "k", data, []byte(data))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(3 * i); e.Offset != want {
			t.Fatalf("record %d at offset %d, want %d", i, e.Offset, want)
		}
	}
	sess.Close()
	if got := len(storeFiles(t, store)); got != files {
		t.Fatalf("a session after two closed ones made files: %d names, was %d", got, files)
	}
	re, err := store.OpenSession("run-003")
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := re.Verify(); len(bad) != 0 || len(re.Manifest()) != 2 {
		t.Fatalf("trail after Close and record: %d entries, bad %v", len(re.Manifest()), bad)
	}
}
