package provenance

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSessionTrail throws arbitrary manifest and log bytes at a session:
// OpenSession, Verify, a Read of every entry, and a Branch of the whole
// trail. None may panic, and no Read may return (so allocate) more than
// the file it reads holds — a hostile "bytes" or "offset" must fail the
// range check, not size an allocation.
func FuzzSessionTrail(f *testing.F) {
	f.Add([]byte(`{"seq":0,"agent":"sql","kind":"code","name":"q.sql","file":"trail.log","sha256":"","bytes":8}`+"\n"), []byte("SELECT 1"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":3}`+"\n"+`{"seq":1,"file":"trail.log","bytes":5,"offset":3}`+"\n"), []byte("abcdefgh"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":-1}`+"\n"), []byte("x"))
	f.Add([]byte(`{"seq":0,"file":"trail.log","bytes":4611686018427387904,"offset":1}`+"\n"), []byte("xy"))
	f.Add([]byte(`{"seq":9223372036854775807,"file":"../trail.log","bytes":1}`+"\n"), []byte("z"))
	f.Add([]byte(`{"seq":0,"file":"manifest.jsonl","bytes":10}`), []byte(""))
	f.Add([]byte("not json\n"), []byte("q"))

	f.Fuzz(func(t *testing.T, manifest, log []byte) {
		if len(manifest)+len(log) > 1<<20 {
			return
		}
		store, err := NewStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(store.Root, "s")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
			t.Fatal(err)
		}
		sess, err := store.OpenSession("s")
		if err != nil {
			return
		}
		sess.Verify()
		limit := int64(len(log))
		if ml := int64(len(manifest)); ml > limit {
			limit = ml // an entry may name the manifest itself
		}
		for _, e := range sess.Manifest() {
			data, err := sess.Read(e)
			if err != nil {
				continue
			}
			if int64(len(data)) != e.Bytes || e.Bytes > limit {
				t.Fatalf("seq %d: Read returned %d bytes for a %d-byte entry (files hold at most %d)", e.Seq, len(data), e.Bytes, limit)
			}
		}
		branch, err := store.Branch(sess, "b", math.MaxInt)
		if err != nil {
			return
		}
		// A branch hashes the bytes it copies, so it verifies whether or
		// not its source did.
		if bad, _ := branch.Verify(); len(bad) != 0 {
			t.Fatalf("a fresh branch fails verification: %v", bad)
		}
	})
}
