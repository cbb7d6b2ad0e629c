package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infera/internal/seglog"
)

var updateOlder = flag.Bool("update-older", false, "rewrite testdata/oldtrees.golden from what the store serves")

// digest is the hex SHA-256 of data.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// writeTrail writes an older trail directory: one manifest.jsonl line per
// entry, and each file (session-relative path to bytes).
func writeTrail(t *testing.T, dir string, entries []Entry, files map[string][]byte) {
	t.Helper()
	var manifest bytes.Buffer
	for _, e := range entries {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		manifest.Write(append(line, '\n'))
	}
	files[manifestName] = manifest.Bytes()
	writeFiles(t, dir, files)
}

// writeFiles writes each file (dir-relative path to bytes) under dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for name, data := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// perFile returns the entries and files of a trail in the
// one-file-per-artifact layout this package wrote before the log:
// artifacts/NNN_... files and entries with no offset.
func perFile(arts [][]byte) ([]Entry, map[string][]byte) {
	var entries []Entry
	files := map[string][]byte{}
	for i, data := range arts {
		file := filepath.Join("artifacts", fmt.Sprintf("%03d_agent_data_a%d.csv", i, i))
		files[file] = data
		entries = append(entries, Entry{Seq: i, Agent: "agent", Kind: "data", Name: fmt.Sprintf("a%d.csv", i),
			File: file, SHA256: digest(data), Bytes: int64(len(data))})
	}
	return entries, files
}

// olderTrees lays out under work the trails older daemons left, and
// returns the store root, work/sessions. There:
//   - fixed: testdata/pertrail, the per-session layout;
//   - old: a per-file trail;
//   - mixed: a per-file trail recorded into, which put the record in a
//     trail.log beside artifacts/;
//   - tampered: changed, missing and out-of-range bytes of both kinds.
//
// And in work/worker-03/sessions/q-0001, a per-session trail of a daemon
// that kept one store per worker.
func olderTrees(t *testing.T, work string) string {
	t.Helper()
	root := filepath.Join(work, "sessions")
	files := map[string][]byte{}
	for _, name := range []string{manifestName, logName} {
		data, err := os.ReadFile(filepath.Join("testdata", "pertrail", name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	writeFiles(t, filepath.Join(root, "fixed"), files)

	entries, files := perFile([][]byte{[]byte("a,b\n1,2\n"), []byte("SELECT 1"), []byte("x")})
	writeTrail(t, filepath.Join(root, "old"), entries, files)

	mixedTrail(t, filepath.Join(root, "mixed"))

	art := filepath.Join("artifacts", "002_a_data_t.csv")
	writeTrail(t, filepath.Join(root, "tampered"), []Entry{
		{Seq: 0, Agent: "a", Kind: "code", Name: "changed", File: logName, SHA256: digest([]byte("hello")), Bytes: 5},
		{Seq: 1, Agent: "a", Kind: "code", Name: "intact", File: logName, SHA256: digest([]byte("abc")), Bytes: 3, Offset: 5},
		{Seq: 2, Agent: "a", Kind: "data", Name: "t.csv", File: art, SHA256: digest([]byte("t,u\n")), Bytes: 4},
		// Missing, and naming a range past any block's bytes.
		{Seq: 3, Agent: "a", Kind: "data", Name: "gone.csv", File: filepath.Join("artifacts", "003_a_data_gone.csv"), Bytes: 1 << 40},
		{Seq: 4, Agent: "a", Kind: "code", Name: "outside", File: "../fixed/" + logName, Bytes: 1},
		{Seq: 5, Agent: "a", Kind: "code", Name: "negative", File: logName, Offset: -1, Bytes: 1},
		{Seq: 6, Agent: "a", Kind: "data", Name: "t-past.csv", File: art, Offset: 2, Bytes: 9},
		// Past the log's end, and inside the block if the artifacts
		// were copied after the log's bytes.
		{Seq: 7, Agent: "a", Kind: "code", Name: "past", File: logName, SHA256: digest([]byte("bct,")), Offset: 6, Bytes: 4},
	}, map[string][]byte{logName: []byte("hellOabc"), art: []byte("t,U\n")})

	payload := []byte("fof_halo_tag,fof_halo_mass\n17,2.5e13\n")
	writeTrail(t, filepath.Join(work, "worker-03", "sessions", "q-0001"), []Entry{
		{Agent: "analysis", Kind: "data", Name: "answer.csv", File: logName, SHA256: digest(payload), Bytes: int64(len(payload))},
	}, map[string][]byte{logName: payload})
	return root
}

// mixedTrail writes a per-file trail that was recorded into: the record
// went to a trail.log beside artifacts/.
func mixedTrail(t *testing.T, dir string) {
	t.Helper()
	entries, files := perFile([][]byte{[]byte("h\n1\n"), []byte("SELECT 2")})
	entries = append(entries, Entry{Seq: 2, Agent: "b", Kind: "code", Name: "new", File: logName, SHA256: digest([]byte("y")), Bytes: 1})
	files[logName] = []byte("y")
	writeTrail(t, dir, entries, files)
}

// answers lists what store serves: its sessions, then per session each
// entry's fields but its file and offset, with its bytes or "error", and
// the seqs Verify flags.
func answers(t *testing.T, store *Store) string {
	t.Helper()
	ids, err := store.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sessions %q\n", ids)
	for _, id := range ids {
		sess, err := store.OpenSession(id)
		if err != nil {
			fmt.Fprintf(&b, "%s: open error\n", id)
			continue
		}
		for _, e := range sess.Manifest() {
			fmt.Fprintf(&b, "%s seq %d %q %q %q %s %d: ", id, e.Seq, e.Agent, e.Kind, e.Name, e.SHA256, e.Bytes)
			if data, err := sess.Read(e); err != nil {
				b.WriteString("error\n")
			} else {
				fmt.Fprintf(&b, "%q\n", data)
			}
		}
		bad, err := sess.Verify()
		if err != nil {
			t.Fatal(err)
		}
		var seqs []int
		for _, e := range bad {
			seqs = append(seqs, e.Seq)
		}
		fmt.Fprintf(&b, "%s bad %v\n", id, seqs)
	}
	return b.String()
}

// checkAnswers compares what store serves with testdata/oldtrees.golden.
func checkAnswers(t *testing.T, store *Store) {
	t.Helper()
	golden := filepath.Join("testdata", "oldtrees.golden")
	got := answers(t, store)
	if *updateOlder {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("older trees serve\n%s\nwant\n%s", got, want)
	}
}

// noDirs fails if any directory is left in dir.
func noDirs(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("directory %s left in %s", e.Name(), dir)
		}
	}
}

// TestOlderTreesConvertAtOpen: the trails older daemons left as
// directories (olderTrees) become segment blocks when their store opens,
// or when Import brings in the worker's, and serve what the store that
// read the directories served, as testdata/oldtrees.golden records it:
// the same sessions, each entry's bytes or a read error, and the same
// entries failing Verify. No directory is left; the per-session layout's
// block holds its manifest lines and log bytes byte for byte; a session
// recorded after the blocks in their segment survives a reopen, and so
// do the answers. A converted trail branches, and records carry on in it.
func TestOlderTreesConvertAtOpen(t *testing.T) {
	work := t.TempDir()
	root := olderTrees(t, work)
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	workerDir := filepath.Join(work, "worker-03", "sessions")
	if err := store.Import(workerDir); err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, store)
	noDirs(t, root)
	noDirs(t, workerDir)

	fixed, err := store.OpenSession("fixed")
	if err != nil {
		t.Fatal(err)
	}
	wantLines, _ := os.ReadFile(filepath.Join("testdata", "pertrail", manifestName))
	wantBytes, _ := os.ReadFile(filepath.Join("testdata", "pertrail", logName))
	if lines, err := fixed.slot.Lines(); err != nil || !bytes.Equal(lines, wantLines) {
		t.Errorf("converted entry lines differ from the per-session manifest (%v):\n%s", err, lines)
	}
	path, base, _ := fixed.Locate(Entry{File: logName})
	segLog, _ := os.ReadFile(path)
	if fixed.limit != int64(len(wantBytes)) || !bytes.Equal(segLog[base:base+fixed.limit], wantBytes) {
		t.Errorf("converted range holds %q, want the per-session log", segLog[base:base+fixed.limit])
	}

	after := recordAll(t, store, "after", "bytes recorded after the converted blocks")
	if segmentOf(t, after) != segmentOf(t, fixed) {
		t.Fatal("the session after the conversions took another segment")
	}
	store.Close()
	store, err = NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	verified(t, store, "after", 1)
	if err := store.RemoveSession("after"); err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, store)

	old, err := store.OpenSession("old")
	if err != nil {
		t.Fatal(err)
	}
	m := old.Manifest()
	branch, err := store.Branch(old, "old-branch", 1)
	if err != nil {
		t.Fatal(err)
	}
	if bm := branch.Manifest(); len(bm) != 2 || bm[1].SHA256 != m[1].SHA256 || !seglog.RefName(bm[1].File) {
		t.Fatalf("branch manifest = %+v", bm)
	}
	if bad, _ := branch.Verify(); len(bad) != 0 {
		t.Fatalf("branch of a converted trail does not verify: %v", bad)
	}
	if e, err := old.Record("b", "code", "new", []byte("y")); err != nil || e.Seq != 3 || e.Offset != old.SizeBytes()-1 {
		t.Fatalf("record into a converted trail = %+v, %v", e, err)
	}
	old.Close()
	old = verified(t, store, "old", 4)
	flipEntryByte(t, old, m[0], 2)
	if bad, _ := old.Verify(); len(bad) != 1 || bad[0].Seq != 0 {
		t.Fatalf("tampered converted artifact flagged %v", bad)
	}
}

// TestConversionCrashPoints converts a trail directory (mixedTrail), then
// cuts the block's writes as a crash before the directory's removal can
// leave them: the log at every length, with none or all of the manifest
// lines, and the manifest at every length after the whole log. Reopened
// over the directory and the cut segment, the store always ends with the
// directory gone and one live block of the session, serving what the
// uncut conversion served, also after another reopen.
func TestConversionCrashPoints(t *testing.T) {
	conv := t.TempDir()
	mixedTrail(t, filepath.Join(conv, "mixed"))
	store, err := NewStore(conv)
	if err != nil {
		t.Fatal(err)
	}
	want := answers(t, store)
	sess, err := store.OpenSession("mixed")
	if err != nil {
		t.Fatal(err)
	}
	seg := segmentOf(t, sess)
	store.Close()
	segLog, _ := os.ReadFile(seg + ".log")
	segMan, _ := os.ReadFile(seg + ".jsonl")
	l, j := len(segLog), len(segMan)

	base := t.TempDir()
	cut := func(lc, jc int) {
		root := filepath.Join(base, fmt.Sprintf("%d-%d", lc, jc))
		mixedTrail(t, filepath.Join(root, "mixed"))
		writeFiles(t, root, map[string][]byte{filepath.Base(seg) + ".log": segLog[:lc], filepath.Base(seg) + ".jsonl": segMan[:jc]})
		for pass := 0; pass < 2; pass++ {
			store, err := NewStore(root)
			if err != nil {
				t.Fatal(err)
			}
			if got := answers(t, store); got != want {
				t.Fatalf("cut at log %d, manifest %d, open %d serves\n%s\nwant\n%s", lc, jc, pass, got, want)
			}
			store.Close()
		}
		noDirs(t, root)
		if n := liveBlocks(t, root)["mixed"]; n != 1 {
			t.Fatalf("cut at log %d, manifest %d: %d live blocks of the session", lc, jc, n)
		}
		os.RemoveAll(root)
	}
	for lc := 0; lc <= l; lc++ {
		cut(lc, 0)
		cut(lc, j)
	}
	for jc := 0; jc < j; jc++ {
		cut(l, jc)
	}
}

// TestConversionCutBeforeManifestLeavesNoPair: a conversion cut before its
// first manifest line, with its log at any length, leaves a segment that
// holds no block; the next open deletes that pair and converts again.
func TestConversionCutBeforeManifestLeavesNoPair(t *testing.T) {
	conv := t.TempDir()
	mixedTrail(t, filepath.Join(conv, "mixed"))
	store, err := NewStore(conv)
	if err != nil {
		t.Fatal(err)
	}
	want := answers(t, store)
	sess, err := store.OpenSession("mixed")
	if err != nil {
		t.Fatal(err)
	}
	seg := filepath.Base(segmentOf(t, sess))
	store.Close()
	segLog, _ := os.ReadFile(filepath.Join(conv, seg+".log"))
	for lc := 0; lc <= len(segLog); lc++ {
		root := filepath.Join(t.TempDir(), fmt.Sprint(lc))
		mixedTrail(t, filepath.Join(root, "mixed"))
		writeFiles(t, root, map[string][]byte{seg + ".log": segLog[:lc], seg + ".jsonl": nil})
		store, err := NewStore(root)
		if err != nil {
			t.Fatal(err)
		}
		if got := answers(t, store); got != want {
			t.Fatalf("log cut at %d serves\n%s\nwant\n%s", lc, got, want)
		}
		for _, ext := range []string{".log", ".jsonl"} {
			if _, err := os.Stat(filepath.Join(root, seg+ext)); !os.IsNotExist(err) {
				t.Fatalf("log cut at %d: the cut segment's %s is left (%v)", lc, ext, err)
			}
		}
		store.Close()
	}
}

// liveBlocks counts the live blocks of each session in root's segments.
func liveBlocks(t *testing.T, root string) map[string]int {
	t.Helper()
	live := map[string]int{}
	if _, _, err := seglog.Open(root, func(blocks []*seglog.Block) []*seglog.Block {
		for _, b := range blocks {
			live[b.ID]++
		}
		return blocks
	}); err != nil {
		t.Fatal(err)
	}
	return live
}
