package stage

import (
	"bytes"
	"path/filepath"
	"sync"
	"testing"

	"infera/internal/dataframe"
)

// csvOf writes f as CSV.
func csvOf(t *testing.T, f *dataframe.Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := f.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// originKey returns f's origin key, "" when it has none.
func originKey(f *dataframe.Frame) string {
	k, ok := f.OriginKey()
	if !ok {
		return ""
	}
	return k
}

// TestRecycledBufferGetsANewOrigin: a resident column is numbered, every
// lease served it sees one key, and a column decoded into the recycled
// buffer after an eviction gets another number, so a frame kept past its
// lease never shares a key with the buffer's new cells.
func TestRecycledBufferGetsANewOrigin(t *testing.T) {
	needsRecycling(t)
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 5)
	block := blockSizes(t, path)["fof_halo_mass"]
	// Room for one block, not for two: the mass decode evicts the crowding
	// column and reads into the free list.
	c := New(2*block-1, 0)
	crowd(t, c, path)

	l := c.Pin()
	f, _, err := l.Columns(path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	key := originKey(f)
	l2 := c.Pin()
	g, _, err := l2.Columns(path, "fof_halo_mass")
	l2.Unpin()
	if err != nil || key == "" || originKey(g) != key {
		t.Fatalf("resident column: keys %q and %q (%v)", key, originKey(g), err)
	}
	if st := c.Stats(); st.UsedBytes != block {
		t.Fatalf("used_bytes %d, want the block's %d alone", st.UsedBytes, block)
	}
	c.SetBudget(0)
	c.SetBudget(2*block - 1)
	l.Unpin()
	if !poisoned(f.MustColumn("fof_halo_mass").F) {
		t.Fatal("buffer not recycled after eviction and unpin")
	}
	h, _, err := readCols(t, c, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if k := originKey(h); k == "" || k == key {
		t.Fatalf("the decode after recycling has key %q, the old column's was %q", k, key)
	}
}

// TestOriginOnlyWhileResident: a column served uncached (over the budget)
// is not numbered, and a column decoded again after its eviction gets a
// new number.
func TestOriginOnlyWhileResident(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 3)
	block := blockSizes(t, path)["fof_halo_mass"]

	small := New(block-1, 0)
	f, _, err := readCols(t, small, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if originKey(f) != "" {
		t.Fatal("a column served uncached has an origin")
	}

	c := New(DefaultBudgetBytes, 0)
	g, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	c.SetBudget(0)
	c.SetBudget(DefaultBudgetBytes)
	h, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if originKey(g) == "" || originKey(h) == "" || originKey(g) == originKey(h) {
		t.Fatalf("keys before and after eviction: %q, %q", originKey(g), originKey(h))
	}
	if !bytes.Equal(csvOf(t, g), csvOf(t, h)) {
		t.Fatal("the two decodes write other bytes")
	}
}

// A column promoted from the disk tier by an mmap cast is numbered like a
// decoded one, with a number of its own, and writes the same CSV.
func TestPromotedColumnHasOrigin(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 9)
	stageDir := filepath.Join(dir, "stage")
	warm := newTiered(t, DefaultBudgetBytes, stageDir)
	f, _, err := readCols(t, warm, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	want := csvOf(t, f)
	warm.Close()

	fresh := newTiered(t, DefaultBudgetBytes, stageDir)
	defer fresh.Close()
	g, _, err := readCols(t, fresh, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats().DiskHits != 1 {
		t.Fatalf("not promoted: %+v", fresh.Stats())
	}
	if k := originKey(g); k == "" || k == originKey(f) {
		t.Fatalf("promoted column's key %q, decoded one's %q", k, originKey(f))
	}
	if got := csvOf(t, g); !bytes.Equal(got, want) {
		t.Fatal("a promoted column wrote other bytes")
	}
}

// TestOriginConcurrentReadersAndEviction: leases reading the same
// resident columns while the budget evicts and readmits them write the
// same bytes under one key, every time, and the accounting returns to
// zero. Run under -race.
func TestOriginConcurrentReadersAndEviction(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 4)
	c := New(DefaultBudgetBytes, 0)
	cols := []string{"fof_halo_tag", "fof_halo_mass", "fof_halo_count"}
	want := func() []byte {
		f, _, err := c.Columns(path, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return csvOf(t, f)
	}()
	var mu sync.Mutex
	byKey := map[string][]byte{}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				l := c.Pin()
				f, _, err := l.Columns(path, cols...)
				var b bytes.Buffer
				k := ""
				if err == nil {
					k = originKey(f)
					err = f.WriteCSV(&b)
				}
				l.Unpin()
				if err != nil || k == "" || !bytes.Equal(b.Bytes(), want) {
					t.Errorf("concurrent read: %v, key %q, bytes equal %v", err, k, bytes.Equal(b.Bytes(), want))
					return
				}
				mu.Lock()
				if prev, ok := byKey[k]; ok && !bytes.Equal(prev, b.Bytes()) {
					t.Error("one key, two texts")
				}
				byKey[k] = b.Bytes()
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		c.SetBudget(0)
		c.SetBudget(DefaultBudgetBytes)
	}
	wg.Wait()
	c.SetBudget(0)
	if st := c.Stats(); st.UsedBytes != 0 {
		t.Fatalf("after evicting everything: used_bytes %d", st.UsedBytes)
	}
}
