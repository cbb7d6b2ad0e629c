package stage

import (
	"bytes"
	"path/filepath"
	"strconv"
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

// textSize is the size of vals' CSV cell text plus one length byte per
// cell: a memo packs the text to about half that.
func textSize(vals []float64) int64 {
	n := int64(len(vals))
	for _, v := range vals {
		n += int64(len(strconv.FormatFloat(v, 'g', -1, 64)))
	}
	return n
}

// TestMemoChargedAndDroppedWithBuffer: a resident Float column builds its
// cell-text memo on its first WriteCSV, and the memo's bytes count in
// used_bytes and memo_bytes while it is resident. Eviction uncharges it;
// the memo itself goes when the buffer goes back to the free list, so a
// reader past its lease formats the poison instead of copying old text.
func TestMemoChargedAndDroppedWithBuffer(t *testing.T) {
	needsRecycling(t)
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 5)
	block := blockSizes(t, path)["fof_halo_mass"]
	// Room for one block and its memo, not for two blocks: the mass
	// decode evicts the crowding column and reads into the free list.
	c := New(2*block-1, 0)
	crowd(t, c, path)

	l := c.Pin()
	f, _, err := l.Columns(path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	col := f.MustColumn("fof_halo_mass")
	used0 := c.Stats().UsedBytes
	first := csvOf(t, f)
	if !col.HasCellText() {
		t.Fatal("WriteCSV on a resident column built no memo")
	}
	text := textSize(col.F)
	if st := c.Stats(); st.MemoBytes <= 0 || st.MemoBytes > text || st.UsedBytes != used0+st.MemoBytes || st.Entries != 1 {
		t.Fatalf("memo_bytes %d (text %d), used_bytes %d (was %d), entries %d; want the memo counted in used",
			st.MemoBytes, text, st.UsedBytes, used0, st.Entries)
	}
	if again := csvOf(t, f); !bytes.Equal(again, first) {
		t.Fatal("the memoised write differs from the formatting one")
	}
	if clone := csvOf(t, dataframe.MustFromColumns(col.Clone())); !bytes.Equal(clone, first) {
		t.Fatal("the memoised write differs from a copy's")
	}

	c.SetBudget(0)
	c.SetBudget(2*block - 1)
	if st := c.Stats(); st.MemoBytes != 0 || st.UsedBytes != 0 {
		t.Fatalf("after eviction: memo_bytes %d, used_bytes %d", st.MemoBytes, st.UsedBytes)
	}
	if !col.HasCellText() || poisoned(col.F) {
		t.Fatal("eviction under a pinned lease dropped the memo or recycled the buffer")
	}
	l.Unpin()
	if !poisoned(col.F) {
		t.Fatal("buffer not recycled after eviction and unpin")
	}
	if col.HasCellText() {
		t.Fatal("a recycled buffer's column still carries its memo")
	}
	if stale := csvOf(t, f); bytes.Equal(stale, first) || !bytes.Contains(stale, []byte("NaN")) {
		t.Fatal("a write past the lease copied the old text instead of formatting the poison")
	}
}

// TestMemoOnlyWhileResident: a column served uncached (over the budget)
// gets no memo, and a memo built after its column left the tier charges
// nothing and keeps no text.
func TestMemoOnlyWhileResident(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 3)
	block := blockSizes(t, path)["fof_halo_mass"]

	small := New(block-1, 0)
	f, _, err := readCols(t, small, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	csvOf(t, f)
	if f.MustColumn("fof_halo_mass").HasCellText() || small.Stats().MemoBytes != 0 {
		t.Fatal("a column served uncached built a memo")
	}

	c := New(DefaultBudgetBytes, 0)
	g, _, err := readCols(t, c, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	c.SetBudget(0)
	csvOf(t, g)
	if g.MustColumn("fof_halo_mass").HasCellText() || c.Stats().MemoBytes != 0 || c.Stats().UsedBytes != 0 {
		t.Fatalf("a memo built after eviction was kept: %+v", c.Stats())
	}
}

// A column promoted from the disk tier by an mmap cast carries no memo
// (its finalizer must stay off reference cycles) and writes the same CSV.
func TestPromotedColumnHasNoMemo(t *testing.T) {
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
	if got := csvOf(t, g); !bytes.Equal(got, want) || g.MustColumn("fof_halo_mass").HasCellText() {
		t.Fatal("a promoted column built a memo or wrote other bytes")
	}
}

// TestMemoConcurrentWritersAndEviction: leases writing the same resident
// columns as CSV while the budget evicts and readmits them always write
// the bytes a copy writes, and the accounting returns to zero. Run under
// -race.
func TestMemoConcurrentWritersAndEviction(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 4)
	c := New(DefaultBudgetBytes, 0)
	want := func() []byte {
		f, _, err := c.Columns(path, "fof_halo_tag", "fof_halo_mass", "fof_halo_count")
		if err != nil {
			t.Fatal(err)
		}
		return csvOf(t, f)
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				l := c.Pin()
				f, _, err := l.Columns(path, "fof_halo_tag", "fof_halo_mass", "fof_halo_count")
				var b bytes.Buffer
				if err == nil {
					err = f.WriteCSV(&b)
				}
				l.Unpin()
				if err != nil || !bytes.Equal(b.Bytes(), want) {
					t.Errorf("concurrent write: %v, bytes equal %v", err, bytes.Equal(b.Bytes(), want))
					return
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		c.SetBudget(0)
		c.SetBudget(DefaultBudgetBytes)
	}
	wg.Wait()
	c.SetBudget(0)
	if st := c.Stats(); st.MemoBytes != 0 || st.UsedBytes != 0 {
		t.Fatalf("after evicting everything: memo_bytes %d, used_bytes %d", st.MemoBytes, st.UsedBytes)
	}
}
