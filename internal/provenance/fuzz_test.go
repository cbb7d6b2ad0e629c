package provenance

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"infera/internal/seglog"
)

// FuzzSessionTrail throws arbitrary manifest and log bytes at a session,
// laid out both as an older trail directory, which opening the store
// converts into a block, and as a session's block of a segment that
// already holds another session: OpenSession, Verify, a Read of every
// entry, and a Branch of the whole trail. None may panic. The converted
// directory must read exactly what its log holds for each entry (see
// fuzzDirTrail). In the segment, no Read may return (so allocate) more
// than its file holds — a hostile "bytes" or "offset" must fail the range
// check, not size an allocation — a hostile header, base or offset of the
// session's own trail must not reach the neighbour's bytes, and a
// reference reads only a segment of the store, named bare. "SEG" in the
// manifest stands for the segment's log name.
func FuzzSessionTrail(f *testing.F) {
	f.Add([]byte(`{"seq":0,"agent":"sql","kind":"code","name":"q.sql","file":"trail.log","sha256":"","bytes":8}`+"\n"), []byte("SELECT 1"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":3}`+"\n"+`{"seq":1,"file":"trail.log","bytes":5,"offset":3}`+"\n"), []byte("abcdefgh"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":-1}`+"\n"), []byte("x"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":4611686018427387904,"offset":1}`+"\n"), []byte("xy"))
	f.Add([]byte(`{"seq":9223372036854775807,"file":"../trail.log","bytes":1}`+"\n"), []byte("z"))
	f.Add([]byte(`{"seq":0,"file":"manifest.jsonl","bytes":10}`), []byte(""))
	f.Add([]byte("not json\n"), []byte("q"))
	// Hostile segment lines: a second header over the neighbour's range, a
	// huge or negative base, a tombstone and a duplicate of the neighbour.
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":2}`+"\n"+`{"session":"h","base":0}`+"\n"+`{"seq":0,"file":"trail.log","bytes":16}`+"\n"), []byte("ab"))
	f.Add([]byte(`{"session":"h","base":3}`+"\n"+`{"seq":0,"file":"trail.log","bytes":8}`+"\n"), []byte("abcdefgh"))
	f.Add([]byte(`{"session":"h","base":9223372036854775807}`+"\n"+`{"seq":0,"file":"trail.log","bytes":1}`+"\n"), []byte("z"))
	f.Add([]byte(`{"session":"h","base":-16}`+"\n"+`{"seq":0,"file":"trail.log","bytes":16}`+"\n"), []byte("z"))
	f.Add([]byte(`{"tombstone":"n","base":0}`+"\n"+`{"session":"n","base":16}`+"\n"+`{"seq":0,"file":"trail.log","bytes":1}`+"\n"+`{"seq":1,"file":"trail.log","bytes":1}`+"\n"), []byte("zz"))
	f.Add([]byte(`{"session":"h","base":9223372036854775806}`+"\n"+`{"seq":0,"file":"trail.log","bytes":5}`+"\n"+`{"session":"g","base":0}`+"\n"+`{"seq":0,"file":"trail.log","bytes":16}`+"\n"), []byte("z"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":1}`+"\n"+`{"session":"g","base":"x"}`+"\n"+`{"seq":1,"file":"trail.log","bytes":16,"offset":1}`+"\n"), []byte("zz"))
	// References: the neighbour's range, a range of the session's own,
	// the neighbour's after its tombstone, a segment the store does not
	// hold, paths that leave the root, a range past the end.
	f.Add([]byte(`{"seq":0,"file":"SEG","bytes":16}`+"\n"+`{"seq":1,"file":"trail.log","bytes":2}`+"\n"), []byte("ab"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":4}`+"\n"+`{"seq":1,"file":"SEG","offset":16,"bytes":4}`+"\n"), []byte("abcd"))
	f.Add([]byte(`{"tombstone":"n","base":0}`+"\n"+`{"seq":0,"file":"SEG","offset":4,"bytes":8}`+"\n"), []byte("x"))
	f.Add([]byte(`{"seq":0,"file":"seg-0-0-0.log","bytes":1}`+"\n"), []byte("x"))
	f.Add([]byte(`{"seq":0,"file":"../x.log","bytes":1}`+"\n"+`{"seq":1,"file":"/abs.log","bytes":1}`+"\n"+`{"seq":2,"file":"seg-../SEG","bytes":1}`+"\n"), []byte("x"))
	f.Add([]byte(`{"seq":0,"file":"SEG","offset":16,"bytes":64}`+"\n"+`{"seq":1,"file":"SEG","offset":9223372036854775807,"bytes":1}`+"\n"), []byte("x"))

	f.Fuzz(func(t *testing.T, manifest, log []byte) {
		if len(manifest)+len(log) > 1<<20 {
			return
		}
		fuzzDirTrail(t, manifest, log)
		fuzzSegmentTrail(t, manifest, log)
	})
}

// fuzzDirTrail lays the bytes out as a trail directory, <root>/s/, and
// opens a store over it, which converts it, then opens it again, which
// reads the block. Both must match an oracle over the raw bytes: a
// manifest line that does not parse leaves the trail unconverted;
// otherwise every entry keeps its fields but File and Offset, a trail.log
// entry whose range lies in the log reads those bytes, and every other
// entry fails Read.
func fuzzDirTrail(t *testing.T, manifest, log []byte) {
	root := t.TempDir()
	writeFiles(t, filepath.Join(root, "s"), map[string][]byte{manifestName: manifest, logName: log})
	want, parsed := oracleEntries(manifest)
	for open := 0; open < 2; open++ {
		store, err := NewStore(root)
		if err != nil {
			t.Fatal(err)
		}
		checkConverted(t, store, want, parsed, log)
		store.Close()
	}
}

// checkConverted checks store's session "s" against the oracle's entries.
func checkConverted(t *testing.T, store *Store, want []Entry, parsed bool, log []byte) {
	sess, err := store.OpenSession("s")
	if !parsed {
		if err == nil {
			t.Fatal("a trail whose manifest does not parse was converted")
		}
		return
	}
	if err != nil {
		t.Fatalf("open the converted trail: %v", err)
	}
	got := sess.Manifest()
	if len(got) != len(want) {
		t.Fatalf("%d converted entries, want %d", len(got), len(want))
	}
	n := int64(len(log))
	for i, e := range got {
		w := want[i]
		if e.Seq != w.Seq || e.Agent != w.Agent || e.Kind != w.Kind || e.Name != w.Name || e.SHA256 != w.SHA256 || e.Bytes != w.Bytes {
			t.Fatalf("entry %d converted to %+v, want the fields of %+v", i, e, w)
		}
		data, err := sess.Read(e)
		if w.File == logName && w.Offset >= 0 && w.Bytes >= 0 && w.Bytes <= n && w.Offset <= n-w.Bytes {
			if err != nil || !bytes.Equal(data, log[w.Offset:w.Offset+w.Bytes]) {
				t.Fatalf("entry %d reads %q (%v), want the log's [%d, +%d)", i, data, err, w.Offset, w.Bytes)
			}
		} else if err == nil {
			t.Fatalf("entry %d (%+v) reads %d bytes the directory did not hold", i, w, len(data))
		}
	}
	sess.Verify()
	checkBranch(t, store, sess)
}

// oracleEntries parses each non-blank manifest line into an Entry; false
// if one does not parse.
func oracleEntries(manifest []byte) ([]Entry, bool) {
	var out []Entry
	for _, l := range bytes.Split(manifest, []byte("\n")) {
		if len(bytes.TrimSpace(l)) == 0 {
			continue
		}
		var e Entry
		if json.Unmarshal(l, &e) != nil {
			return nil, false
		}
		out = append(out, e)
	}
	return out, true
}

// neighbour is the session recorded before the fuzzed one in its segment.
var neighbour = bytes.Repeat([]byte("N"), 16)

// fuzzSegmentTrail appends the bytes to a segment holding neighbour's
// session "n": a header for session "s" at the end of n's range, the
// manifest bytes after it, and the log bytes after n's.
func fuzzSegmentTrail(t *testing.T, manifest, log []byte) {
	root := t.TempDir()
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	n, err := store.NewSession("n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Record("a", "data", "n.csv", neighbour); err != nil {
		t.Fatal(err)
	}
	path, _, _ := n.Locate(Entry{File: logName})
	seg := path[:len(path)-len(".log")]
	n.Close()
	store.Close()
	manifest = bytes.ReplaceAll(manifest, []byte("SEG"), []byte(filepath.Base(path)))
	appendFile(t, seg+".jsonl", append([]byte(fmt.Sprintf(`{"session":"s","base":%d}`+"\n", len(neighbour))), manifest...))
	appendFile(t, seg+".log", log)
	segLog, err := os.ReadFile(seg + ".log")
	if err != nil {
		t.Fatal(err)
	}

	store, err = NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ids, _ := store.Sessions()
	for _, id := range ids {
		sess, err := store.OpenSession(id)
		if err != nil {
			continue
		}
		own := id == "n" && sess.base == 0 // the neighbour's own block
		if bad, _ := sess.Verify(); own && len(bad) != 0 {
			t.Fatalf("neighbour session %q fails verification: %v", id, bad)
		}
		for _, e := range sess.Manifest() {
			data, err := sess.Read(e)
			if err != nil {
				continue
			}
			path, off, _ := sess.Locate(e)
			if e.File != logName && (path != seg+".log" || !seglog.RefName(e.File)) {
				t.Fatalf("%s seq %d: a reference to %q read %s", id, e.Seq, e.File, path)
			}
			if int64(len(data)) != e.Bytes || off+e.Bytes > int64(len(segLog)) || !bytes.Equal(data, segLog[off:off+e.Bytes]) {
				t.Fatalf("%s seq %d: Read returned %d bytes for [%d, +%d) of a %d-byte log", id, e.Seq, len(data), off, e.Bytes, len(segLog))
			}
			if !own && e.File == logName && off < int64(len(neighbour)) {
				t.Fatalf("%s seq %d: read [%d, +%d), the neighbour's bytes", id, e.Seq, off, e.Bytes)
			}
		}
		checkBranch(t, store, sess)
	}
}

func appendFile(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// checkBranch branches sess's whole trail, then the branch: a branch
// references the bytes its source's entries name, with their digests, so
// it fails verification in exactly the entries its source fails, and a
// branch of a branch names the same bytes as the branch.
func checkBranch(t *testing.T, store *Store, sess *Session) {
	branch, err := store.Branch(sess, "b-"+sess.ID, math.MaxInt)
	if err != nil {
		return
	}
	bad, _ := branch.Verify()
	srcBad, _ := sess.Verify()
	if len(bad) != len(srcBad) {
		t.Fatalf("a branch fails verification in %d entries, its source in %d", len(bad), len(srcBad))
	}
	again, err := store.Branch(branch, "bb-"+sess.ID, math.MaxInt)
	if err != nil {
		t.Fatalf("a branch of a branch: %v", err)
	}
	for i, e := range again.Manifest() {
		b := branch.Manifest()[i]
		if e.File != b.File || e.Offset != b.Offset || e.Bytes != b.Bytes || e.SHA256 != b.SHA256 {
			t.Fatalf("a branch of a branch names %+v, the branch %+v", e, b)
		}
	}
}
