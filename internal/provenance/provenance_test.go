package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// logSize returns the size of sess's log, 0 if it does not exist yet.
func logSize(t *testing.T, sess *Session) int64 {
	t.Helper()
	st, err := os.Stat(filepath.Join(sess.Dir(), logName))
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
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

// TestSessionIsThreeFiles: a session is one directory holding the manifest
// and the log, however many artifacts it records.
func TestSessionIsThreeFiles(t *testing.T) {
	_, sess := newSession(t)
	for i := 0; i < 20; i++ {
		if _, err := sess.Record("a", "data", fmt.Sprintf("x%d.csv", i), []byte("1,2\n")); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(sess.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	if strings.Join(names, ",") != manifestName+","+logName {
		t.Errorf("session directory holds %v", names)
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
	_, err := sess.record("a", "data", "bad.csv", func(w io.Writer) error {
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
	flipByte(t, filepath.Join(sess.Dir(), e.File), e.Offset+3)
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
	log := filepath.Join(sess.Dir(), logName)
	for _, e := range sess.Manifest() {
		at := e.Offset + e.Bytes/2
		flipByte(t, log, at)
		bad, err := sess.Verify()
		if err != nil || len(bad) != 1 || bad[0].Seq != e.Seq {
			t.Fatalf("flip inside seq %d flagged %v (%v)", e.Seq, bad, err)
		}
		flipByte(t, log, at)
	}
	if bad, _ := sess.Verify(); len(bad) != 0 {
		t.Fatalf("restored trail does not verify: %v", bad)
	}
}

// TestReadRejectsBadRanges: negative fields, a range past the end of the
// file and a path outside the session fail before anything is allocated.
func TestReadRejectsBadRanges(t *testing.T) {
	_, sess := newSession(t)
	e, err := sess.Record("a", "code", "x", []byte("0123456789"))
	if err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]Entry{
		"negative bytes":  {File: e.File, Bytes: -1},
		"negative offset": {File: e.File, Offset: -1, Bytes: 2},
		"past the end":    {File: e.File, Offset: 8, Bytes: 3},
		"huge":            {File: e.File, Offset: 1, Bytes: 1 << 62},
		"overflowing":     {File: e.File, Offset: 1 << 62, Bytes: 1 << 62},
		"outside":         {File: "../run-001/" + logName, Bytes: 1},
		"absolute":        {File: filepath.Join(sess.Dir(), logName), Bytes: 1},
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

// legacySession hand-builds a trail in the one-file-per-artifact layout
// this package wrote before the log: artifacts/NNN_... files and entries
// with no offset.
func legacySession(t *testing.T, store *Store, id string, arts [][]byte) {
	t.Helper()
	dir := filepath.Join(store.Root, id)
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	var manifest bytes.Buffer
	for i, data := range arts {
		file := filepath.Join("artifacts", fmt.Sprintf("%03d_agent_data_a%d.csv", i, i))
		if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		line, err := json.Marshal(map[string]any{
			"seq": i, "agent": "agent", "kind": "data", "name": fmt.Sprintf("a%d.csv", i),
			"file": file, "sha256": hex.EncodeToString(sum[:]), "bytes": len(data),
		})
		if err != nil {
			t.Fatal(err)
		}
		manifest.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), manifest.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyPerFileTrail: a trail in the old per-file layout opens,
// verifies, reads and branches through the same range reads, and a
// tampered legacy file is flagged.
func TestLegacyPerFileTrail(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	arts := [][]byte{[]byte("a,b\n1,2\n"), []byte("SELECT 1"), []byte("x")}
	legacySession(t, store, "old", arts)
	sess, err := store.OpenSession("old")
	if err != nil {
		t.Fatal(err)
	}
	if bad, err := sess.Verify(); err != nil || len(bad) != 0 {
		t.Fatalf("legacy trail does not verify: %v %v", bad, err)
	}
	m := sess.Manifest()
	for i, e := range m {
		data, err := sess.Read(e)
		if err != nil || !bytes.Equal(data, arts[i]) {
			t.Fatalf("legacy read %d = %q, %v", i, data, err)
		}
	}
	branch, err := store.Branch(sess, "old-branch", 1)
	if err != nil {
		t.Fatal(err)
	}
	bm := branch.Manifest()
	if len(bm) != 2 || bm[1].SHA256 != m[1].SHA256 || bm[1].File != logName {
		t.Fatalf("branch manifest = %+v", bm)
	}
	if bad, _ := branch.Verify(); len(bad) != 0 {
		t.Fatalf("branch of a legacy trail does not verify: %v", bad)
	}
	// The resumed legacy session appends into a log beside its files.
	if e, err := sess.Record("b", "code", "new", []byte("y")); err != nil || e.Seq != 3 || e.File != logName {
		t.Fatalf("record into legacy session = %+v, %v", e, err)
	}
	flipByte(t, filepath.Join(sess.Dir(), m[0].File), 2)
	if bad, _ := sess.Verify(); len(bad) != 1 || bad[0].Seq != 0 {
		t.Fatalf("tampered legacy file flagged %v", bad)
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
	if ents, _ := os.ReadDir(store.Root); len(ents) != 1 {
		t.Errorf("store root holds %d entries, want the one session", len(ents))
	}
}

// TestSessionKeepsFilesOpenUntilClose: records after the first reuse the
// open log and manifest — with both unlinked, they reappear only once
// Close lets the next record open them again — and offsets carry on
// across a Close.
func TestSessionKeepsFilesOpenUntilClose(t *testing.T) {
	store, sess := newSession(t)
	if _, err := sess.Record("a", "k", "one", []byte("111")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{logName, manifestName} {
		if err := os.Remove(filepath.Join(sess.Dir(), name)); err != nil {
			t.Skipf("cannot unlink an open file here: %v", err)
		}
	}
	if _, err := sess.Record("a", "k", "two", []byte("22")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sess.Dir(), logName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a record opened the log again: %v", err)
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Close, then record: the files open again and the log's end is found.
	sess, err := store.NewSession("run-002")
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
	re, err := store.OpenSession("run-002")
	if err != nil {
		t.Fatal(err)
	}
	if bad, _ := re.Verify(); len(bad) != 0 || len(re.Manifest()) != 2 {
		t.Fatalf("trail after Close and record: %d entries, bad %v", len(re.Manifest()), bad)
	}
}
