package provenance

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/seglog"
)

// TestMain records no reference to a table without checking it against
// its encoding.
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

// TestRecordFrameRepeatIsReferenced: a keyed table recorded a second
// time, in another session, is a reference to the first one's bytes with
// its digest: its encoded bytes are 0 and its session's own range does
// not grow. A table without a key, or under another name, is formatted;
// once the source and its referrer are removed, the table formats again,
// and the new record is the next source.
func TestRecordFrameRepeatIsReferenced(t *testing.T) {
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
	if second.SHA256 != first.SHA256 || second.Bytes != int64(len(text)) || !seglog.RefName(second.File) {
		t.Fatalf("repeat: %+v, first %+v", second, first)
	}
	if d := (Stats{after.EncodedBytes - before.EncodedBytes, after.ReferencedBytes - before.ReferencedBytes,
		after.OriginHits - before.OriginHits, after.OriginMisses - before.OriginMisses}); d != (Stats{EncodedBytes: 33, ReferencedBytes: second.Bytes, OriginHits: 1}) {
		t.Fatalf("second ask's counts %+v: want only the SQL text encoded and the table referenced", d)
	}
	if size, _, _ := store.SessionStat("b"); size-(b.slot.MEnd-b.slot.HdrOff) != 33 {
		t.Fatalf("the referrer's range is %d bytes, want the SQL text's 33", size-(b.slot.MEnd-b.slot.HdrOff))
	}
	checkTrail(t, a, map[int][]byte{1: text})
	checkTrail(t, b, map[int][]byte{1: text})

	renamed, _ := f.Rename("mass", "m")
	if _, e := record("c", renamed); store.Stats().OriginMisses != before.OriginMisses+1 || e.SHA256 == first.SHA256 {
		t.Fatal("another header was referenced")
	}
	if _, e := record("d", f.Clone()); store.Stats().OriginMisses != before.OriginMisses+1 || e.SHA256 != first.SHA256 || e.File != logName {
		t.Fatal("a table without a key was looked up, or wrote other bytes")
	}
	for _, id := range []string{"a", "b"} {
		if err := store.RemoveSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if held := store.HeldBytes(); held != 0 {
		t.Fatalf("%d bytes held with no referrer left", held)
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

// TestRepeatSourceRemovedBeforeHit: a source removed before a hit, its
// range punched out of a segment that still holds another session, is not
// referenced: the table is formatted whole.
func TestRepeatSourceRemovedBeforeHit(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 3000, 5), numbered("mass", dataframe.Float, 3000, 6)}
	f := projection(seg, seg)
	text := csvText(t, f)
	var sessions []*Session
	for _, id := range []string{"src", "neighbour", "hit"} {
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
	if err := store.RemoveSession("src"); err != nil {
		t.Fatal(err)
	}
	e, err := sessions[2].RecordFrame("sql", "work", f)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.OriginHits != 0 || st.OriginMisses != 2 || e.File != logName {
		t.Fatalf("a removed source was referenced: %+v, %+v", st, e)
	}
	checkTrail(t, sessions[2], map[int][]byte{0: text})
}

// TestRepeatSourceRemovedAfterHit: a source removed after a hit keeps the
// referenced range, held, so the referrer still reads it, also after a
// reopen; a later hit references the held range; removing the last
// referrer frees it.
func TestRepeatSourceRemovedAfterHit(t *testing.T) {
	root := t.TempDir()
	store, err := NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 3000, 7), numbered("mass", dataframe.Float, 3000, 8)}
	f := projection(seg, seg)
	text := csvText(t, f)
	src := recordAll(t, store, "src", "before the table")
	src, _ = store.OpenSession("src")
	if _, err := src.RecordFrame("sql", "work", f); err != nil {
		t.Fatal(err)
	}
	src.Close()
	hit, err := store.NewSession("hit")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := hit.RecordFrame("sql", "work", f); err != nil || e.File == logName {
		t.Fatalf("no reference: %+v, %v", e, err)
	}
	hit.Close()
	if err := store.RemoveSession("src"); err != nil {
		t.Fatal(err)
	}
	if held := store.HeldBytes(); held != int64(len(text)) {
		t.Fatalf("held %d bytes, want the table's %d", held, len(text))
	}
	checkTrail(t, hit, map[int][]byte{0: text})
	again, err := store.NewSession("again")
	if err != nil {
		t.Fatal(err)
	}
	if e, err := again.RecordFrame("sql", "work", f); err != nil || e.File == logName {
		t.Fatalf("a held range was not referenced: %+v, %v", e, err)
	}
	again.Close()
	store.Close()

	store, err = NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if held := store.HeldBytes(); held != int64(len(text)) {
		t.Fatalf("after a reopen, held %d bytes, want %d", held, len(text))
	}
	for _, id := range []string{"hit", "again"} {
		checkTrail(t, verified(t, store, id, 1), map[int][]byte{0: text})
		if err := store.RemoveSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if held := store.HeldBytes(); held != 0 {
		t.Fatalf("%d bytes held after the last referrer went", held)
	}
}

// TestRepeatSourceRemovedDuringHits: sessions reference a table while
// other goroutines remove the sources and record new ones. Every recorded
// table reads whole: it was referenced while its range was held, or
// formatted. Once every session is gone, nothing is held. Run under
// -race.
func TestRepeatSourceRemovedDuringHits(t *testing.T) {
	store, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	seg := []*dataframe.Column{numbered("tag", dataframe.Int, 4000, 3), numbered("mass", dataframe.Float, 4000, 4)}
	f := projection(seg, seg, seg)
	text := csvText(t, f)
	const workers, rounds = 3, 30
	var wg sync.WaitGroup
	for w := 0; w <= workers; w++ {
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
				if w == 0 || i%3 == 0 { // the remover drops every session it makes
					if err := store.RemoveSession(sess.ID); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if st := store.Stats(); st.OriginHits == 0 {
		t.Fatalf("no table was referenced: %+v", st)
	}
	ids, _ := store.Sessions()
	for _, id := range ids {
		checkTrail(t, verified(t, store, id, 1), map[int][]byte{0: text})
	}
	for _, id := range ids {
		if err := store.RemoveSession(id); err != nil {
			t.Fatal(err)
		}
	}
	if held := store.HeldBytes(); held != 0 {
		t.Fatalf("%d bytes held with no session left", held)
	}
}

// FuzzRecordRepeat interleaves keyed tables, plain records, RemoveSession,
// new columns (a stage generation change renumbers a column), more
// unclosed sessions than the segment pool holds, so trails move, branches
// (references to references) and reopens of the store, which count the
// references again, some after damage as a crash or a hand leaves it: a
// segment's log cut short (a range past the end), a segment deleted, a
// range zeroed as a punch leaves it. Until damage every record succeeds
// (a reference is checked against its encoding, VerifyRepeats), and at
// the end every session verifies and reads back each table's text; after
// damage, a session that still opens reads each table's text or fails
// Read or Verify on it.
func FuzzRecordRepeat(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 3, 0, 0})
	f.Add([]byte{0, 8, 16, 2, 0, 8, 3, 0, 16, 4, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 2, 8}, 12))
	f.Add(bytes.Repeat([]byte{0, 1, 16, 5, 24, 3}, 8))
	// Branches and reopens: a reference to a reference, counts rebuilt,
	// a source removed after its referrers reopen.
	f.Add([]byte{0, 8, 6, 0, 7, 3, 0, 15, 8, 0})
	f.Add(bytes.Repeat([]byte{0, 8, 14, 11, 7}, 6))
	// Damage at a reopen: a log cut short, a deleted segment, a zeroed
	// range.
	f.Add([]byte{0, 8, 0, 16, 6, 7 | 1<<3, 0, 8})
	f.Add([]byte{0, 8, 0, 11, 7 | 2<<3, 0, 16})
	f.Add([]byte{0, 0, 8, 3, 7 | 3<<3, 0, 0, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			return
		}
		fuzzRepeats(t, ops)
	})
}

// repeatRun is FuzzRecordRepeat's state: the store, the sessions it
// records into, and the text each recorded table must read.
type repeatRun struct {
	t       *testing.T
	root    string
	store   *Store
	open    []*Session
	want    map[string]map[int][]byte // by session ID
	made    int
	damaged bool
}

// newSession opens the next session to record into.
func (r *repeatRun) newSession() {
	r.made++
	sess, err := r.store.NewSession(fmt.Sprintf("s%03d", r.made))
	if err != nil {
		r.t.Fatal(err)
	}
	r.open = append(r.open, sess)
	r.want[sess.ID] = map[int][]byte{}
}

// reopen closes every session and the store, damages the root as damage
// says (0: none), and opens it again; after damage, the sessions recorded
// into are fresh ones.
func (r *repeatRun) reopen(damage int) {
	for _, sess := range r.open {
		sess.Close()
	}
	held := r.store.HeldBytes()
	r.store.Close()
	if damage > 0 {
		r.damage(damage)
	}
	var err error
	if r.store, err = NewStore(r.root); err != nil {
		r.t.Fatal(err)
	}
	if held != r.store.HeldBytes() && !r.damaged {
		r.t.Fatalf("held %d bytes before a reopen, %d after", held, r.store.HeldBytes())
	}
	open := r.open
	r.open = nil
	for _, sess := range open {
		again, err := r.store.OpenSession(sess.ID)
		if r.damaged || err != nil {
			continue
		}
		r.open = append(r.open, again)
	}
	for len(r.open) <= seglog.PoolSegments {
		r.newSession()
	}
}

// damage cuts the first segment's log in half (1), deletes it (2) or
// zeroes its first half (3).
func (r *repeatRun) damage(how int) {
	logs, _ := filepath.Glob(filepath.Join(r.root, "seg-*.log"))
	if len(logs) == 0 {
		return
	}
	r.damaged = true
	data, err := os.ReadFile(logs[0])
	if err != nil {
		r.t.Fatal(err)
	}
	switch how {
	case 1:
		err = os.Truncate(logs[0], int64(len(data)/2))
	case 2:
		err = errors.Join(os.Remove(logs[0]), os.Remove(strings.TrimSuffix(logs[0], ".log")+".jsonl"))
	default:
		clear(data[:len(data)/2])
		err = os.WriteFile(logs[0], data, 0o644)
	}
	if err != nil {
		r.t.Fatal(err)
	}
}

// check opens every session recorded into again: each verifies and reads
// its tables' text, or, after damage, reads the text or fails to read or
// verify it.
func (r *repeatRun) check() {
	for id, w := range r.want {
		sess, err := r.store.OpenSession(id)
		if err != nil {
			if len(w) == 0 || r.damaged {
				continue
			}
			r.t.Fatal(err)
		}
		if !r.damaged {
			checkTrail(r.t, sess, w)
			continue
		}
		bad, _ := sess.Verify()
		failed := map[int]bool{}
		for _, e := range bad {
			failed[e.Seq] = true
		}
		for _, e := range sess.Manifest() {
			got, err := sess.Read(e)
			if text, ok := w[e.Seq]; ok && err == nil && !bytes.Equal(got, text) && !failed[e.Seq] {
				r.t.Fatalf("%s seq %d reads other bytes and verifies", id, e.Seq)
			}
		}
	}
}

// fuzzRepeats runs FuzzRecordRepeat's ops over a fresh store.
func fuzzRepeats(t *testing.T, ops []byte) {
	r := &repeatRun{t: t, root: t.TempDir(), want: map[string]map[int][]byte{}}
	var err error
	if r.store, err = NewStore(r.root); err != nil {
		t.Fatal(err)
	}
	defer func() { r.store.Close() }()
	cols := []*dataframe.Column{numbered("tag", dataframe.Int, 40, 1), numbered("mass", dataframe.Float, 40, 2), numbered("x", dataframe.Float, 40, 3)}
	for len(r.open) <= seglog.PoolSegments {
		r.newSession()
	}
	for i, op := range ops {
		sess := r.open[i%len(r.open)]
		arg := int(op >> 3)
		switch op % 8 {
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
			r.want[sess.ID][e.Seq] = csvText(t, fr)
		case 2:
			if _, err := sess.Record("a", "code", "c", []byte(fmt.Sprint("code ", i))); err != nil {
				t.Fatal(err)
			}
		case 3: // remove a session; the next one takes its place
			k := arg % len(r.open)
			if err := r.store.RemoveSession(r.open[k].ID); err != nil {
				t.Fatal(err)
			}
			delete(r.want, r.open[k].ID)
			r.open = append(r.open[:k], r.open[k+1:]...)
			r.newSession()
		case 4: // a stage generation change: one column decoded again
			c := cols[arg%3]
			cols[arg%3] = numbered(c.Name, c.Kind, 40, float64(i%3+1))
		case 5:
			r.newSession()
		case 6: // a branch of the whole trail, recorded into from now on
			if len(sess.Manifest()) == 0 {
				continue
			}
			r.made++
			b, err := r.store.Branch(sess, fmt.Sprintf("s%03d", r.made), math.MaxInt)
			if err != nil {
				t.Fatal(err)
			}
			r.want[b.ID] = maps.Clone(r.want[sess.ID])
			r.open = append(r.open, b)
		case 7:
			r.reopen(arg % 4)
		}
	}
	r.check()
}
