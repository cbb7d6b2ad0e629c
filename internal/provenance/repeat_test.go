package provenance

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/seglog"
)

// TestMain copies no repeat without checking it against its encoding.
func TestMain(m *testing.M) {
	VerifyRepeats(true)
	os.Exit(m.Run())
}

// numbered returns a resident-like column: rows cells of kind k, derived
// from salt, numbered with a fresh origin.
func numbered(name string, k dataframe.Kind, rows int, salt float64) *dataframe.Column {
	if k == dataframe.Int {
		v := make([]int64, rows)
		for i := range v {
			v[i] = int64(salt*1000) + int64(i)
		}
		return dataframe.NewInt(name, v).SetOrigin()
	}
	v := make([]float64, rows)
	for i := range v {
		v[i] = salt * math.Sqrt(float64(i)+0.5) * 1e13
	}
	return dataframe.NewFloat(name, v).SetOrigin()
}

// projection is the table a projection over segments builds: each column
// its segments' vectors copied back to back, beside a constant column.
func projection(segs ...[]*dataframe.Column) *dataframe.Frame {
	out := dataframe.New()
	for j := range segs[0] {
		parts := make([]*dataframe.Column, len(segs))
		for i, seg := range segs {
			parts[i] = seg[j]
		}
		out.AddColumn(dataframe.ConcatColumn(segs[0][j].Name, parts...))
	}
	steps := make([]*dataframe.Column, len(segs))
	for i, seg := range segs {
		v := make([]int64, seg[0].Len())
		for r := range v {
			v[r] = int64(624 - i)
		}
		steps[i] = dataframe.NewInt("step", v).SetConstOrigin()
	}
	out.AddColumn(dataframe.ConcatColumn("step", steps...))
	return out
}

// csvText is f's CSV.
func csvText(t testing.TB, f *dataframe.Frame) []byte {
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// checkTrail fails the test unless sess verifies and every entry in want
// reads the bytes it names.
func checkTrail(t testing.TB, sess *Session, want map[int][]byte) {
	t.Helper()
	if bad, err := sess.Verify(); err != nil || len(bad) > 0 {
		t.Fatalf("%s: Verify = %v, %v", sess.ID, bad, err)
	}
	for _, e := range sess.Manifest() {
		if w, ok := want[e.Seq]; ok {
			if got, err := sess.Read(e); err != nil || !bytes.Equal(got, w) {
				t.Fatalf("%s seq %d: read %d bytes (%v), want the frame's %d", sess.ID, e.Seq, len(got), err, len(w))
			}
		}
	}
}

// TestRecordFrameRepeatIsCopied: a keyed table recorded a second time, in
// another session, is copied with the first one's bytes and digest: its
// encoded bytes are 0. A table without a key, or under another name, is
// formatted; a removed source formats again, and the new record is the
// next source.
func TestRecordFrameRepeatIsCopied(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 300, 1), numbered("mass", dataframe.Float, 300, 2)}
	f := projection(seg, seg)
	text := csvText(t, f)
	record := func(id string, f *dataframe.Frame) (*Session, Entry) {
		sess, err := store.NewSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Record("a", "code", "q.sql", []byte("SELECT tag, mass, step FROM halos")); err != nil {
			t.Fatal(err)
		}
		e, err := sess.RecordFrame("sql", "work", f)
		if err != nil {
			t.Fatal(err)
		}
		return sess, e
	}
	a, first := record("a", f)
	before := store.Stats()
	b, second := record("b", projection(seg, seg))
	after := store.Stats()
	if second.SHA256 != first.SHA256 || second.Bytes != int64(len(text)) {
		t.Fatalf("repeat: %+v, first %+v", second, first)
	}
	if d := (Stats{after.EncodedBytes - before.EncodedBytes, after.CopiedBytes - before.CopiedBytes,
		after.OriginHits - before.OriginHits, after.OriginMisses - before.OriginMisses}); d != (Stats{EncodedBytes: 33, CopiedBytes: second.Bytes, OriginHits: 1}) {
		t.Fatalf("second ask's counts %+v: want only the SQL text encoded and the table copied", d)
	}
	checkTrail(t, a, map[int][]byte{1: text})
	checkTrail(t, b, map[int][]byte{1: text})

	renamed, _ := f.Rename("mass", "m")
	if _, e := record("c", renamed); store.Stats().OriginMisses != before.OriginMisses+1 || e.SHA256 == first.SHA256 {
		t.Fatal("another header was copied")
	}
	if _, e := record("d", f.Clone()); store.Stats().OriginMisses != before.OriginMisses+1 || e.SHA256 != first.SHA256 {
		t.Fatal("a table without a key was looked up, or wrote other bytes")
	}
	for _, id := range []string{"a", "b"} {
		if err := store.RemoveSession(id); err != nil {
			t.Fatal(err)
		}
	}
	hits := store.Stats().OriginHits
	e1, _ := record("e", f)
	e2, _ := record("f", f)
	if st := store.Stats(); st.OriginHits != hits+1 || st.OriginMisses != before.OriginMisses+2 {
		t.Fatalf("after removing the source: %+v", st)
	}
	checkTrail(t, e1, map[int][]byte{1: text})
	checkTrail(t, e2, map[int][]byte{1: text})
}

// TestRepeatSourceRemovedBeforeCopy: a source removed between a hit's
// lookup and its copy, its range punched out of a segment that still
// holds another session, is not copied: the table is formatted whole.
func TestRepeatSourceRemovedBeforeCopy(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 3000, 5), numbered("mass", dataframe.Float, 3000, 6)}
	f := projection(seg, seg)
	text := csvText(t, f)
	var sessions []*Session
	for _, id := range []string{"src", "neighbour", "copy"} {
		sess, err := store.NewSession(id)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, sess)
	}
	if _, err := sessions[0].RecordFrame("sql", "work", f); err != nil {
		t.Fatal(err)
	}
	sessions[0].Close()
	// The neighbour takes the source's segment, so removing the source
	// punches its range instead of emptying the segment.
	if _, err := sessions[1].Record("a", "code", "c", []byte("after the source")); err != nil {
		t.Fatal(err)
	}
	sessions[1].Close()
	copyStarting = func() {
		copyStarting = nil
		if err := store.RemoveSession("src"); err != nil {
			t.Error(err)
		}
	}
	defer func() { copyStarting = nil }()
	if _, err := sessions[2].RecordFrame("sql", "work", f); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.OriginHits != 0 || st.OriginMisses != 2 {
		t.Fatalf("a copy from a removed source counted as a hit: %+v", st)
	}
	checkTrail(t, sessions[2], map[int][]byte{0: text})
}

// TestRepeatSourceRemovedDuringCopies: sessions copy a table from a source
// session while another goroutine removes the sources and records new
// ones. Every recorded table reads whole: it was copied from a range that
// stayed, or formatted. Run under -race.
func TestRepeatSourceRemovedDuringCopies(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 4000, 3), numbered("mass", dataframe.Float, 4000, 4)}
	f := projection(seg, seg, seg)
	text := csvText(t, f)
	const copiers, rounds = 3, 30
	var wg sync.WaitGroup
	for w := 0; w <= copiers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sess, err := store.NewSession(fmt.Sprintf("w%d-%03d", w, i))
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sess.RecordFrame("sql", "work", f); err != nil {
					t.Error(err)
					return
				}
				checkTrail(t, sess, map[int][]byte{0: text})
				sess.Close()
				if w == 0 || i%3 == 0 { // the remover drops every source it makes
					if err := store.RemoveSession(sess.ID); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := store.Stats(); st.OriginHits == 0 {
		t.Fatalf("no table was copied: %+v", st)
	}
}

// FuzzRecordRepeat interleaves keyed tables, plain records, RemoveSession,
// new columns (a stage generation change renumbers a column) and more
// unclosed sessions than the segment pool holds, so trails move. Every
// record succeeds (a copy is checked against its encoding, VerifyRepeats),
// and at the end every session verifies and reads back each table's text.
func FuzzRecordRepeat(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 8, 16, 2, 0, 8, 3, 0, 16, 4, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 8}, 12))
	f.Add(bytes.Repeat([]byte{0, 1, 16, 5, 24, 3}, 8))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			return
		}
		fuzzRepeats(t, ops)
	})
}

// fuzzRepeats runs FuzzRecordRepeat's ops over a fresh store.
func fuzzRepeats(t *testing.T, ops []byte) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	cols := []*dataframe.Column{numbered("tag", dataframe.Int, 40, 1), numbered("mass", dataframe.Float, 40, 2), numbered("x", dataframe.Float, 40, 3)}
	var open []*Session
	want := map[*Session]map[int][]byte{}
	made := 0
	newSession := func() {
		made++
		sess, err := store.NewSession(fmt.Sprintf("s%03d", made))
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, sess)
		want[sess] = map[int][]byte{}
	}
	for len(open) <= seglog.PoolSegments {
		newSession()
	}
	for i, op := range ops {
		sess := open[i%len(open)]
		arg := int(op >> 3)
		switch op % 6 {
		case 0, 1: // a keyed table: one or two segments of two columns
			a, b := cols[arg%3], cols[(arg+1+int(op%2))%3]
			fr := projection([]*dataframe.Column{a, b})
			if op%2 == 1 {
				fr = projection([]*dataframe.Column{a, b}, []*dataframe.Column{a, b})
			}
			e, err := sess.RecordFrame("sql", "t", fr)
			if err != nil {
				t.Fatal(err)
			}
			want[sess][e.Seq] = csvText(t, fr)
		case 2:
			if _, err := sess.Record("a", "code", "c", []byte(fmt.Sprint("code ", i))); err != nil {
				t.Fatal(err)
			}
		case 3: // remove a session; the next one takes its place
			victim := open[arg%len(open)]
			if err := store.RemoveSession(victim.ID); err != nil {
				t.Fatal(err)
			}
			delete(want, victim)
			open = append(open[:arg%len(open)], open[arg%len(open)+1:]...)
			newSession()
		case 4: // a stage generation change: one column decoded again
			c := cols[arg%3]
			cols[arg%3] = numbered(c.Name, c.Kind, 40, float64(i%3+1))
		case 5:
			newSession()
		}
	}
	for sess, w := range want {
		checkTrail(t, sess, w)
		sess.Close()
	}
	for sess, w := range want {
		again, err := store.OpenSession(sess.ID)
		if err != nil {
			if len(sess.Manifest()) == 0 {
				continue
			}
			t.Fatal(err)
		}
		checkTrail(t, again, w)
	}
}
