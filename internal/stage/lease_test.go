package stage

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

// pooledRows is a row count large enough for the free list (minPooled).
const pooledRows = 2048

// poisoned reports whether v reads the pattern every buffer entering the
// free list is overwritten with in test binaries: v's buffer was recycled.
func poisoned(v []float64) bool {
	return len(v) > 0 && math.Float64bits(v[0]) == poisonBits && math.Float64bits(v[len(v)-1]) == poisonBits
}

// needsRecycling skips a test on platforms without the free list.
func needsRecycling(t *testing.T) {
	if !mmapSupported {
		t.Skip("no anonymous mappings: nothing is recycled on this platform")
	}
}

// loadMass returns the fof_halo_mass vector a lease served for path.
func loadMass(l *Lease, path string) ([]float64, error) {
	res := l.LoadAll([]Request{{Path: path, Columns: []string{"fof_halo_mass"}}})
	if res[0].Err != nil {
		return nil, res[0].Err
	}
	return res[0].Frame.MustColumn("fof_halo_mass").F, nil
}

func massOf(t *testing.T, l *Lease, path string) []float64 {
	t.Helper()
	v, err := loadMass(l, path)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// sameFloats fails unless got holds want's values bit for bit.
func sameFloats(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d = %v (%#x), want %v", i, got[i], math.Float64bits(got[i]), want[i])
		}
	}
}

func writeFrame(t *testing.T, path string, f *dataframe.Frame) {
	t.Helper()
	if err := gio.WriteFile(path, f, nil); err != nil {
		t.Fatal(err)
	}
}

// wantMass is writeSnapshot's fof_halo_mass column.
func wantMass(rows int, fill int64) []float64 {
	out := make([]float64, rows)
	for i := range out {
		out[i] = float64(fill) + float64(i)/2
	}
	return out
}

// crowd fills a one-column memory tier with a column leases do not read,
// so the next lease decode finds no room and reads into the free list.
func crowd(t *testing.T, c *Cache, path string) {
	t.Helper()
	l := c.Pin()
	defer l.Unpin()
	if _, _, err := l.Columns(path, "fof_halo_count"); err != nil {
		t.Fatal(err)
	}
}

// TestLeaseBufferReuseWaitsForAllThree: a buffer served to two leases
// goes back to the free list only after all three of its holders let go —
// the memory tier (eviction) and both leases (unpin) — whether the
// eviction comes first or last, and a lease pinned after the eviction
// never holds it back. Its write-through runs under the first lease and
// adds no holder of its own.
func TestLeaseBufferReuseWaitsForAllThree(t *testing.T) {
	needsRecycling(t)
	for _, last := range []string{"unpin", "eviction"} {
		t.Run("last="+last, func(t *testing.T) {
			dir := t.TempDir()
			path := writeSnapshot(t, dir, "s.gio", pooledRows, 5)
			block := int64(8 * pooledRows)
			c := newTiered(t, block, filepath.Join(dir, "stage"))
			defer c.Close()
			crowd(t, c, path)

			a, b := c.Pin(), c.Pin()
			vec := massOf(t, a, path)
			if got := massOf(t, b, path); &got[0] != &vec[0] {
				t.Fatal("second lease was not served the resident vector")
			}
			if st := c.Stats(); st.DiskWrites != 2 {
				t.Fatalf("disk_writes = %d, want both columns written through", st.DiskWrites)
			}
			want := wantMass(pooledRows, 5)
			recycled0 := c.Stats().RecycledBytes
			held := func(step string) {
				t.Helper()
				if poisoned(vec) || c.Stats().RecycledBytes != recycled0 {
					t.Fatalf("buffer recycled after %s, before its last holder let go", step)
				}
				sameFloats(t, vec, want)
			}
			evict := func() { c.SetBudget(0); c.SetBudget(block) }
			unpin := func() {
				a.Unpin()
				held("unpinning one of two leases")
				b.Unpin()
			}
			if last == "unpin" {
				evict()
				held("eviction")
				late := c.Pin() // pinned after the eviction: never served it
				defer late.Unpin()
				unpin()
			} else {
				unpin()
				held("unpinning both leases")
				evict()
			}
			if !poisoned(vec) {
				t.Fatalf("buffer not back on the free list after its last holder (%s)", last)
			}
			if got := c.Stats().RecycledBytes - recycled0; got < block {
				t.Fatalf("recycled_bytes grew by %d, want at least %d", got, block)
			}
		})
	}
}

// TestOversizedPooledBlockWrittenIntact: a pooled column larger than the
// memory budget leaves the memory tier as soon as it is published, before
// its write-through reads the buffer; the decoding lease's epoch, recorded
// on the entry, keeps the buffer off the free list until the write is
// done, so the block store holds the decoded values.
func TestOversizedPooledBlockWrittenIntact(t *testing.T) {
	needsRecycling(t)
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 6)
	stageDir := filepath.Join(dir, "stage")
	c := newTiered(t, 8*pooledRows-1, stageDir)
	defer c.Close()
	// Move the reader epoch past 0, so a buffer retired without the lease's
	// epoch would not wait for the lease below.
	early := c.Pin()
	_, s := takeFloats(pooledRows)
	c.readers.retired(s, early.epoch)
	early.Unpin()

	l := c.Pin()
	if l.epoch == 0 {
		t.Fatal("the reader epoch did not advance")
	}
	sameFloats(t, massOf(t, l, path), wantMass(pooledRows, 6))
	l.Unpin()
	if st := c.Stats(); st.Entries != 0 || st.DiskWrites != 1 || st.RecycledBytes < 8*pooledRows {
		t.Fatalf("want the block served uncached, written through and recycled: %+v", st)
	}

	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	got, _, err := readCols(t, c2, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk_hits = %d, want the column promoted", st.DiskHits)
	}
	sameFloats(t, got.MustColumn("fof_halo_mass").F, wantMass(pooledRows, 6))
}

// TestLoadAllFramesOutliveRecycling: Cache.LoadAll loads through a lease
// of its own, and a frame it returns keeps its values after the buffer the
// load read into has gone back to the free list and been reused.
func TestLoadAllFramesOutliveRecycling(t *testing.T) {
	needsRecycling(t)
	path := writeSnapshot(t, t.TempDir(), "s.gio", pooledRows, 9)
	c := New(8*pooledRows, 2)
	crowd(t, c, path)
	res := c.LoadAll([]Request{{Path: path, Columns: []string{"fof_halo_mass"}}})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	c.SetBudget(0)
	if st := c.Stats(); st.RecycledBytes < 8*pooledRows {
		t.Fatalf("the load's buffer was not recycled (%d bytes)", st.RecycledBytes)
	}
	for i := 0; i < 16; i++ {
		v, s := takeFloats(pooledRows)
		for j := range v {
			v[j] = -1
		}
		buffers.give(s)
	}
	sameFloats(t, res[0].Frame.MustColumn("fof_halo_mass").F, wantMass(pooledRows, 9))
}

// TestFlightWaiterHoldsBuffer: a lease served a column by waiting on
// another lease's decode keeps the buffer until it unpins, even when it
// pinned in a later epoch than the lease that led the decode and that
// lease has long unpinned.
func TestFlightWaiterHoldsBuffer(t *testing.T) {
	needsRecycling(t)
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 9)
	c := newTiered(t, 8*pooledRows, filepath.Join(dir, "stage"))
	defer c.Close()
	crowd(t, c, path)
	k := key{path: path, col: "fof_halo_mass"}

	lead := c.Pin()
	// A buffer retired while lead is pinned moves the epoch past it.
	_, s := takeFloats(pooledRows)
	c.readers.retired(s, lead.epoch)
	wait := c.Pin()
	if wait.epoch <= lead.epoch {
		t.Fatalf("waiter pinned in epoch %d, not after the leader's %d", wait.epoch, lead.epoch)
	}

	// Holding the disk tier's lock stops the leader between registering
	// its flight and decoding.
	c.disk.mu.Lock()
	load := func(l *Lease, out chan<- []float64) {
		v, err := loadMass(l, path)
		if err != nil {
			t.Error(err)
		}
		out <- v
	}
	led, waited := make(chan []float64), make(chan []float64)
	go load(lead, led)
	// until polls cond under c.mu, failing the test after 10 s.
	deadline := time.Now().Add(10 * time.Second)
	until := func(what string, cond func() bool) {
		for {
			c.mu.Lock()
			ok := cond()
			c.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				c.disk.mu.Unlock()
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	var fl *flight
	until("the leader's flight", func() bool { fl = c.inflight[k]; return fl != nil })
	go load(wait, waited)
	until("the waiter to wait on the flight", func() bool { return fl.seen == wait.epoch })
	c.disk.mu.Unlock()
	lv, wv := <-led, <-waited
	if lv == nil || wv == nil {
		t.FailNow()
	}
	if &lv[0] != &wv[0] {
		t.Fatal("leader and waiter were served different vectors")
	}
	lead.Unpin()
	c.SetBudget(0)
	if poisoned(wv) {
		t.Fatal("buffer recycled while the lease that waited for it was still pinned")
	}
	sameFloats(t, wv, wantMass(pooledRows, 9))
	wait.Unpin()
	if !poisoned(wv) {
		t.Fatal("buffer not back on the free list after its last lease unpinned")
	}
}

// TestPromotedVectorNeverRecycled: a vector cast from the disk tier's
// mapping is not the cache's to recycle, however it leaves the memory tier.
func TestPromotedVectorNeverRecycled(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", pooledRows, 3)
	c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
	defer c.Close()
	if _, _, err := readCols(t, c, path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	c.SetBudget(0) // demote: the next lookup promotes from disk
	c.SetBudget(1 << 30)

	l := c.Pin()
	vec := massOf(t, l, path)
	if st := c.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk_hits = %d, want the lease served by a promotion", st.DiskHits)
	}
	c.SetBudget(0)
	l.Unpin()
	if st := c.Stats(); st.RecycledBytes != 0 {
		t.Fatalf("a promoted vector entered the free list (%d bytes)", st.RecycledBytes)
	}
	sameFloats(t, vec, wantMass(pooledRows, 3))
}

// TestLeasesNeverSeeVectorsChange races 8 leases decoding, evicting,
// persisting and promoting over a one-column memory budget: every vector a
// lease was served must read the same values until the lease unpins.
func TestLeasesNeverSeeVectorsChange(t *testing.T) {
	needsRecycling(t)
	dir := t.TempDir()
	const files = 4
	paths := make([]string, files)
	for i := range paths {
		paths[i] = writeSnapshot(t, dir, fmt.Sprintf("s%d.gio", i), pooledRows, int64(100*i))
	}
	c := newTiered(t, 8*pooledRows, filepath.Join(dir, "stage"))
	defer c.Close()
	iters := 40
	if testing.Short() {
		iters = 10
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < iters; it++ {
				l := c.Pin()
				var reqs []Request
				var fills []int64
				for _, fi := range rng.Perm(files)[:2] {
					reqs = append(reqs, Request{Path: paths[fi], Columns: []string{"fof_halo_tag", "fof_halo_mass"}})
					fills = append(fills, int64(100*fi))
				}
				res := l.LoadAll(reqs)
				check := func() bool {
					for i, r := range res {
						if r.Err != nil {
							t.Error(r.Err)
							return false
						}
						tags := r.Frame.MustColumn("fof_halo_tag").I
						mass := r.Frame.MustColumn("fof_halo_mass").F
						for j := range tags {
							if tags[j] != fills[i]+int64(j) || math.Float64bits(mass[j]) != math.Float64bits(float64(fills[i])+float64(j)/2) {
								t.Errorf("lease %d: %s row %d changed under it", w, reqs[i].Path, j)
								return false
							}
						}
					}
					return true
				}
				ok := check()
				time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				ok = ok && check()
				l.Unpin()
				if !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := c.Stats(); st.RecycledBytes == 0 || st.Evictions == 0 {
		t.Fatalf("nothing was evicted and recycled: %+v", st)
	}
}

// TestDecodeIntoDirtyClassBufferBitIdentical: a column read into a reused
// free-list buffer of a larger class, full of another column's bits, is
// bit-identical to a fresh decode and clipped to its length.
func TestDecodeIntoDirtyClassBufferBitIdentical(t *testing.T) {
	needsRecycling(t)
	const rows = 1500 // class capacity 1536
	if _, size, ok := classOf(rows); !ok || size <= rows {
		t.Fatalf("classOf(%d) = %d, %v: want a larger pooled class", rows, size, ok)
	}
	edges := []float64{
		math.Float64frombits(0x7ff8_dead_beef_0001), math.Float64frombits(0xfff4_0000_1234_5678),
		math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
	}
	iedges := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	fv := make([]float64, rows)
	iv := make([]int64, rows)
	for i := range fv {
		fv[i] = edges[i%len(edges)]
		iv[i] = iedges[i%len(iedges)] ^ int64(i/len(iedges))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "edge.gio")
	writeFrame(t, path, dataframe.MustFromColumns(dataframe.NewFloat("f", fv), dataframe.NewInt("i", iv)))

	c := New(8*rows, 2) // room for one of the two columns
	for round := 0; round < 3; round++ {
		// Leave dirty buffers of the class on the free list.
		for i := 0; i < 4; i++ {
			v, b := takeInts(rows)
			for j := range v {
				v[j] = int64(j) * 0x0101010101010101
			}
			buffers.give(b)
		}
		l := c.Pin()
		res := l.LoadAll([]Request{{Path: path, Columns: []string{"f", "i"}}})
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
		f, i := res[0].Frame.MustColumn("f"), res[0].Frame.MustColumn("i")
		if cap(f.F) != rows || cap(i.I) != rows {
			t.Fatalf("cap = %d/%d, want both clipped to %d", cap(f.F), cap(i.I), rows)
		}
		if !sameColumn(f, dataframe.NewFloat("f", fv)) || !sameColumn(i, dataframe.NewInt("i", iv)) {
			t.Fatalf("round %d: decode into a reused buffer differs from the file", round)
		}
		c.SetBudget(0)
		c.SetBudget(8 * rows)
		l.Unpin()
	}
	if c.Stats().RecycledBytes == 0 {
		t.Fatal("the reads never went through the free list")
	}
}

// TestClassArithmetic: every pooled length lands in a class no more than
// 12.5 % larger, classes grow with length, and a class capacity is its own
// class — with the platform's int, so GOARCH=386 checks 32-bit overflow.
func TestClassArithmetic(t *testing.T) {
	prevClass, prevSize := -1, 0
	check := func(n int) {
		class, size, ok := classOf(n)
		if !ok {
			t.Fatalf("classOf(%d) not pooled", n)
		}
		if size < n || 8*(size-n) > n {
			t.Fatalf("classOf(%d) = %d: slack over 12.5 %%", n, size)
		}
		if class < prevClass || (class == prevClass && size != prevSize) || class >= numClasses {
			t.Fatalf("classOf(%d) = class %d size %d after class %d size %d", n, class, size, prevClass, prevSize)
		}
		if c2, s2, _ := classOf(size); c2 != class || s2 != size {
			t.Fatalf("classOf(%d) = %d/%d, want its own class %d", size, c2, s2, class)
		}
		prevClass, prevSize = class, size
	}
	for n := minPooled; n < 1<<14; n++ {
		check(n)
	}
	for n := 1 << 14; n <= maxPooled; n += n/97 + 1 {
		check(n)
	}
	check(maxPooled)
	for _, n := range []int{0, 1, minPooled - 1, maxPooled + 1, math.MaxInt} {
		if _, _, ok := classOf(n); ok {
			t.Fatalf("classOf(%d) pooled", n)
		}
	}
}

// TestDroppedBufferReclaimed: a buffer whose owner drops it without giving
// it back rejoins the free list through its finalizer.
func TestDroppedBufferReclaimed(t *testing.T) {
	needsRecycling(t)
	const n = 5000 // a class no other test uses
	_, s := takeFloats(n)
	if s == nil {
		t.Fatal("no free-list buffer for a pooled length")
	}
	addr := unsafe.SliceData(s.mem)
	class := s.class
	s = nil
	onList := func() bool {
		buffers.mu.Lock()
		defer buffers.mu.Unlock()
		for _, w := range append(append([]*slab(nil), buffers.warm[class]...), buffers.cold[class]...) {
			if unsafe.SliceData(w.mem) == addr {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(20 * time.Second)
	for !onList() {
		if time.Now().After(deadline) {
			t.Fatal("a dropped buffer never rejoined the free list")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// TestRoomyDecodesStayOnHeap: with room in the memory tier a lease decode
// reads heap vectors, which stay resident and are never recycled; only a
// decode that finds the tier full reads into the free list.
func TestRoomyDecodesStayOnHeap(t *testing.T) {
	needsRecycling(t)
	path := writeSnapshot(t, t.TempDir(), "s.gio", pooledRows, 4)
	c := New(1<<30, 2)
	l := c.Pin()
	massOf(t, l, path)
	c.SetBudget(0)
	l.Unpin()
	if st := c.Stats(); st.RecycledBytes != 0 {
		t.Fatalf("a decode with room to spare went through the free list (%d bytes recycled)", st.RecycledBytes)
	}
	c.SetBudget(8 * pooledRows)
	crowd(t, c, path)
	l = c.Pin()
	massOf(t, l, path)
	c.SetBudget(0)
	l.Unpin()
	if st := c.Stats(); st.RecycledBytes < 8*pooledRows {
		t.Fatalf("a decode into a full tier was not recycled (%d bytes)", st.RecycledBytes)
	}
}
