package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infera/internal/dataframe"
)

// refTable is a keyed table of about 64 KB, so the range it and the
// bytes before it hold span whole file-system blocks.
func refTable() (*dataframe.Frame, []byte) {
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 1500, 9), numbered("mass", dataframe.Float, 1500, 10)}
	f := projection(seg)
	var b bytes.Buffer
	f.WriteCSV(&b)
	return f, b.Bytes()
}

// segmentLogs returns the root's segment files.
func segmentLogs(t *testing.T, root string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(root, "seg-*"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestReferenceCrashPoints records, after a session that keeps the
// segment, a source session (64 KB of code, then a keyed table) and a
// referrer after it in the same segment (a plain
// record, then a reference to the table), and removes the source, then
// the referrer: their tombstone lines end the manifest. Each cut of the log
// across the referrer's record, with each cut of the manifest at and just
// before every line end from the referrer's header on, is reopened as a
// crash would leave it, with no range punched yet: every surviving
// session verifies, the referrer keeps the entries whose lines and bytes
// are whole (a reference after a cut entry goes with it, and holds
// nothing), and the table's bytes are held exactly while a tombstoned
// source has a referrer.
// Removing the referrer then frees them, and a tombstoned source left
// with no referrer is freed at the open: its allocated bytes drop.
func TestReferenceCrashPoints(t *testing.T) {
	src := t.TempDir()
	store, err := NewStore(src)
	if err != nil {
		t.Fatal(err)
	}
	f, text := refTable()
	recordAll(t, store, "keep", "a session before them keeps the segment")
	s := recordAll(t, store, "src", strings.Repeat("c", 64<<10))
	s, _ = store.OpenSession("src")
	if _, err := s.RecordFrame("sql", "t", f); err != nil {
		t.Fatal(err)
	}
	s.Close()
	seg := segmentOf(t, s)
	man0, _ := os.ReadFile(seg + ".jsonl")
	ref := recordAll(t, store, "ref", "ref!")
	ref, _ = store.OpenSession("ref")
	if e, err := ref.RecordFrame("sql", "t", f); err != nil || e.File == logName {
		t.Fatalf("no reference: %+v, %v", e, err)
	}
	ref.Close()
	logBytes, _ := os.ReadFile(seg + ".log") // before the punch
	if err := store.RemoveSession("src"); err != nil {
		t.Fatal(err)
	}
	// The referrer's tombstone, as removing it writes the line; removing
	// it here would empty the segment.
	_, refBase, _ := ref.Locate(Entry{File: logName})
	manBytes, _ := os.ReadFile(seg + ".jsonl")
	manBytes = fmt.Appendf(manBytes, "{\"tombstone\":\"ref\",\"base\":%d}\n", refBase)
	store.Close()
	l1 := int64(len(logBytes))

	var cuts []int
	for j := len(man0); j <= len(manBytes); j++ {
		if j == len(manBytes) || manBytes[j-1] == '\n' || manBytes[j] == '\n' {
			cuts = append(cuts, j)
		}
	}
	base := t.TempDir()
	for _, lc := range []int64{l1 - 4, l1 - 2, l1} {
		for _, jc := range cuts {
			root := filepath.Join(base, fmt.Sprintf("%d-%d", lc, jc))
			refCrashPoint(t, root, filepath.Base(seg), logBytes[:lc], manBytes[:jc], lc == l1, int64(len(text)))
		}
	}
}

// refCrashPoint reopens one cut of TestReferenceCrashPoints' segment in a
// fresh root.
func refCrashPoint(t *testing.T, root, seg string, log, man []byte, wholeLog bool, table int64) {
	t.Helper()
	writeFiles(t, root, map[string][]byte{seg + ".log": log, seg + ".jsonl": man})
	defer os.RemoveAll(root)
	path := filepath.Join(root, seg)
	before := allocated(path + ".log")
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	lines := bytes.SplitAfter(man, []byte("\n"))
	for i, l := range lines {
		if bytes.HasPrefix(l, []byte(`{"session":"ref"`)) {
			lines = lines[i:]
			break
		}
	}
	whole := func(prefix string) bool { // a line of ref's block or after with prefix ends in a newline
		for _, l := range lines {
			if bytes.HasPrefix(l, []byte(prefix)) && bytes.HasSuffix(l, []byte("\n")) {
				return true
			}
		}
		return false
	}
	dead, refDead := whole(`{"tombstone":"src"`), whole(`{"tombstone":"ref"`)
	verified(t, store, "keep", 1)
	at := fmt.Sprintf("cut at log %d, manifest %d", len(log), len(man))
	if !dead {
		verified(t, store, "src", 2)
	} else if _, err := store.OpenSession("src"); err == nil {
		t.Fatalf("%s: a tombstoned source opens", at)
	}
	refLine := whole(`{"seq":1,"agent":"sql"`)
	want := 0
	if whole(`{"seq":0,"agent":"a","kind":"data","name":"ref-0"`) && wholeLog {
		want = 1
		if refLine {
			want = 2
		}
	}
	if refDead && before > 0 && allocated(path+".log") >= before {
		t.Fatalf("%s: a tombstoned source with no referrer kept its %d bytes", at, before)
	}
	if _, err := store.OpenSession("ref"); err != nil {
		if whole(`{"session":"ref"`) && !refDead {
			t.Fatalf("%s: %v", at, err)
		}
		if held := store.HeldBytes(); held != 0 {
			t.Fatalf("%s: %d bytes held with no referrer", at, held)
		}
		return
	}
	verified(t, store, "ref", want)
	// The reference holds the table's bytes until the referrer goes, but
	// not where a cut of the entry before it (a log cut inside the
	// referrer's own record) drops it from the trail.
	if held := store.HeldBytes(); (held == table) != (dead && want == 2) || (held != 0 && held != table) {
		t.Fatalf("%s: %d bytes held", at, held)
	}
	if err := store.RemoveSession("ref"); err != nil {
		t.Fatal(err)
	}
	if held := store.HeldBytes(); held != 0 {
		t.Fatalf("%s: %d bytes held with no referrer", at, held)
	}
}

// twoSegments records the source of refTable's table in one segment and a
// referrer to it in another, both closed, and returns the source's
// segment.
func twoSegments(t *testing.T, store *Store) string {
	t.Helper()
	f, _ := refTable()
	src, err := store.NewSession("src")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Record("a", "code", "c", bytes.Repeat([]byte("c"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.RecordFrame("sql", "t", f); err != nil {
		t.Fatal(err)
	}
	ref, err := store.NewSession("ref") // src still holds its segment
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Record("a", "code", "c", []byte("ref")); err != nil {
		t.Fatal(err)
	}
	if e, err := ref.RecordFrame("sql", "t", f); err != nil || e.File == logName {
		t.Fatalf("no reference: %+v, %v", e, err)
	}
	src.Close()
	ref.Close()
	if segmentOf(t, src) == segmentOf(t, ref) {
		t.Fatal("the source and its referrer share a segment")
	}
	return segmentOf(t, src)
}

// TestSegmentOfHeldSpansSurvivesOpen: a segment whose only session was
// removed while another segment's session references its table holds
// only that span. A reopen keeps the segment, counts the reference again
// and holds the table's bytes, and the rest of the range stays freed;
// removing the referrer then deletes the segment.
func TestSegmentOfHeldSpansSurvivesOpen(t *testing.T) {
	root := t.TempDir()
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	_, text := refTable()
	seg := twoSegments(t, store)
	whole := allocated(seg + ".log")
	if err := store.RemoveSession("src"); err != nil {
		t.Fatal(err)
	}
	store.Close()
	if whole > 0 && allocated(seg+".log") >= whole {
		t.Fatalf("removing the source freed nothing of its %d bytes", whole)
	}
	store, err = NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := os.Stat(seg + ".log"); err != nil {
		t.Fatalf("a segment of held spans did not survive an open: %v", err)
	}
	if held := store.HeldBytes(); held != int64(len(text)) {
		t.Fatalf("held %d bytes after an open, want the table's %d", held, len(text))
	}
	checkTrail(t, verified(t, store, "ref", 2), map[int][]byte{1: text})
	if err := store.RemoveSession("ref"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg + ".log"); err == nil {
		t.Fatal("a segment left holding nothing was kept")
	}
}

// TestReferenceToMissingSource: a reference whose source segment was
// deleted by hand, or cut short as a crash leaves it, or whose range was
// zeroed, fails Read cleanly (or reads bytes that fail their digest) and
// is the one entry Verify lists.
func TestReferenceToMissingSource(t *testing.T) {
	for _, damage := range []string{"deleted", "cut", "zeroed"} {
		t.Run(damage, func(t *testing.T) {
			root := t.TempDir()
			store, err := NewStore(root)
			if err != nil {
				t.Fatal(err)
			}
			seg := twoSegments(t, store)
			store.Close()
			switch damage {
			case "deleted":
				err = errors.Join(os.Remove(seg+".log"), os.Remove(seg+".jsonl"))
			case "cut":
				err = os.Truncate(seg+".log", 70<<10)
			default:
				data, _ := os.ReadFile(seg + ".log")
				clear(data[64<<10:])
				err = os.WriteFile(seg+".log", data, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			store, err = NewStore(root)
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ref, err := store.OpenSession("ref")
			if err != nil {
				t.Fatal(err)
			}
			m := ref.Manifest()
			if _, err := ref.Read(m[1]); err == nil && damage != "zeroed" {
				t.Fatal("a reference to a missing range reads")
			}
			if bad, err := ref.Verify(); err != nil || len(bad) != 1 || bad[0].Seq != 1 {
				t.Fatalf("Verify = %v, %v; want the reference alone", bad, err)
			}
		})
	}
}
