package stage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/seglog"
)

// dataframeWithStrings builds a frame with a string column alongside an
// int column, to exercise the non-castable promotion path.
func dataframeWithStrings(rows int) *dataframe.Frame {
	names := make([]string, rows)
	ints := make([]int64, rows)
	for i := range names {
		names[i] = fmt.Sprintf("obj-%04d", i)
		ints[i] = int64(i)
	}
	return dataframe.MustFromColumns(
		dataframe.NewString("name", names),
		dataframe.NewInt("fof_halo_tag", ints),
	)
}

// newTiered builds an isolated cache with a disk tier over its own
// directory; the caller owns Close.
func newTiered(t *testing.T, memBudget int64, dir string) *Cache {
	t.Helper()
	c := New(memBudget, 4)
	if err := c.SetDiskTier(dir, 0); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestColdRestartRevival is the tentpole property: a fresh cache (a
// restarted process) over a populated stage dir serves a staging pass
// entirely from the disk tier — zero gio opens, zero bytes decoded.
func TestColdRestartRevival(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 7)
	stageDir := filepath.Join(dir, "stage")

	c1 := newTiered(t, 1<<30, stageDir)
	want, _, err := readCols(t, c1, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.DiskWrites < 2 {
		t.Fatalf("write-through should have persisted both blocks: disk_writes = %d", st.DiskWrites)
	}
	c1.Close()

	// "Restart": a brand-new cache over the same stage dir.
	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	got, bytesRead, err := readCols(t, c2, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Opens != 0 {
		t.Fatalf("warm restart must not open the source file: opens = %d", st.Opens)
	}
	if st.BytesDecoded != 0 {
		t.Fatalf("warm restart must not decode: bytes_decoded = %d", st.BytesDecoded)
	}
	if st.DiskHits != 2 {
		t.Fatalf("disk_hits = %d, want 2", st.DiskHits)
	}
	if bytesRead != 0 {
		t.Fatalf("promoted bytes must not count as source I/O: bytesRead = %d", bytesRead)
	}
	if st.PromotedBytes == 0 {
		t.Fatal("promoted_bytes should be nonzero")
	}
	for _, col := range []string{"fof_halo_tag", "fof_halo_mass"} {
		w, _ := want.Column(col)
		g, _ := got.Column(col)
		for i := 0; i < 256; i++ {
			if w.Value(i) != g.Value(i) {
				t.Fatalf("column %s row %d: got %v want %v", col, i, g.Value(i), w.Value(i))
			}
		}
	}
}

// TestPromotionFailureFallsThrough cuts a resident block's record and
// proves the next promotion evicts exactly that entry and falls through
// to the gio decoder — per-column attribution, the staging pass succeeds —
// whose write-through stores the block whole again.
func TestPromotionFailureFallsThrough(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 128, 3)
	stageDir := filepath.Join(dir, "stage")

	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()
	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}

	// Push both blocks out of memory so the next pass must promote.
	c.SetBudget(1)
	c.SetBudget(1 << 30)

	// Cut the tag block's record, the last in its segment log, mid-payload.
	tagKey := key{path: path, col: "fof_halo_tag"}
	whole := recordOf(t, c.disk, tagKey)
	cut := diskEntryOf(t, c.disk, tagKey)
	blk := cut.seg.Path() + ".log"
	if st, err := os.Stat(blk); err != nil || st.Size() != cut.base+int64(len(whole)) {
		t.Fatalf("the tag block's record does not end its segment log: %v", err)
	}
	if err := os.Truncate(blk, cut.base+int64(len(whole))-64); err != nil {
		t.Fatal(err)
	}

	f, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskPromoteFailures != 1 {
		t.Fatalf("disk_promote_failures = %d, want 1", st.DiskPromoteFailures)
	}
	if st.DiskHits != 1 {
		t.Fatalf("the intact sibling must still promote: disk_hits = %d, want 1", st.DiskHits)
	}
	if st.Opens != 2 { // initial decode + the fall-through re-decode
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
	tag, _ := f.Column("fof_halo_tag")
	if tag.Value(0) != int64(3) || tag.Value(127) != int64(130) {
		t.Fatalf("fallen-through column has wrong data: %v, %v", tag.Value(0), tag.Value(127))
	}
	if got := recordOf(t, c.disk, tagKey); !bytes.Equal(got, whole) {
		t.Fatalf("bad block record was not evicted and rewritten whole (%d of %d bytes)", len(got), len(whole))
	}

	// A fresh cache over the same dir must also survive: the startup scan
	// skips unreadable blocks, so the column simply decodes from source.
	mass := diskEntryOf(t, c.disk, key{path: path, col: "fof_halo_mass"})
	if err := os.Truncate(mass.seg.Path()+".log", mass.base+32); err != nil {
		t.Fatal(err)
	}
	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	if _, _, err := readCols(t, c2, path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("truncated block must decode from source after restart: misses = %d", st.Misses)
	}
}

// TestConcurrentDemotePromote hammers a tiered cache whose memory budget
// holds about one file's worth of blocks, so concurrent sessions force a
// continuous demote/promote churn. Run under -race; the assertions are a
// sanity floor, the race detector is the real check.
func TestConcurrentDemotePromote(t *testing.T) {
	dir := t.TempDir()
	const nfiles = 4
	paths := make([]string, nfiles)
	for i := range paths {
		paths[i] = writeSnapshot(t, dir, fmt.Sprintf("s%d.gio", i), 512, int64(i*1000))
	}
	sizes := blockSizes(t, paths[0])
	memBudget := sizes["fof_halo_tag"] + sizes["fof_halo_mass"] + 1
	c := newTiered(t, memBudget, filepath.Join(dir, "stage"))
	defer c.Close()

	// Prime the disk tier so the churn phase promotes rather than decodes.
	for _, p := range paths {
		if _, _, err := readCols(t, c, p, "fof_halo_tag", "fof_halo_mass", "fof_halo_count"); err != nil {
			t.Fatal(err)
		}
	}

	subsets := [][]string{
		{"fof_halo_tag", "fof_halo_mass"},
		{"fof_halo_mass", "fof_halo_count"},
		{"fof_halo_count", "fof_halo_tag"},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				p := paths[(g+i)%nfiles]
				cols := subsets[(g*7+i)%len(subsets)]
				f, _, err := readCols(t, c, p, cols...)
				if err != nil {
					errs <- err
					return
				}
				if f.NumRows() != 512 {
					errs <- fmt.Errorf("bad rows %d", f.NumRows())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Demotions == 0 {
		t.Fatal("eviction pressure should have demoted blocks")
	}
	if st.DiskHits == 0 {
		t.Fatal("memory misses should have promoted from disk")
	}
}

// waitForStats polls the cache until cond holds or the deadline passes.
func waitForStats(t *testing.T, c *Cache, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond(c.Stats()) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s; stats = %+v", what, c.Stats())
}

// TestWatchExactInvalidation proves the watch replaces stat-TTL
// freshness: a steady-state hot path performs zero stat syscalls, and a
// file rewrite invalidates exactly the touched file's entries in both
// tiers while an untouched sibling file keeps serving stat-free.
func TestWatchExactInvalidation(t *testing.T) {
	dir := t.TempDir()
	hot := writeSnapshot(t, dir, "hot.gio", 64, 10)
	cold := writeSnapshot(t, dir, "cold.gio", 64, 20)
	stageDir := filepath.Join(dir, "stage")

	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()
	if err := c.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}
	for _, p := range []string{hot, cold} {
		if _, _, err := readCols(t, c, p, "fof_halo_tag", "fof_halo_mass"); err != nil {
			t.Fatal(err)
		}
	}
	calls0 := c.Stats().StatCalls

	// Steady state: repeated staging passes must not stat at all.
	for i := 0; i < 10; i++ {
		for _, p := range []string{hot, cold} {
			if _, _, err := readCols(t, c, p, "fof_halo_tag", "fof_halo_mass"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := c.Stats()
	if st.StatCalls != calls0 {
		t.Fatalf("steady-state hot path must do zero stat syscalls: stat_calls %d -> %d", calls0, st.StatCalls)
	}
	if st.StatSaves < 20 {
		t.Fatalf("stat_saves = %d, want >= 20", st.StatSaves)
	}

	// Rewrite the hot file; coarse-mtime filesystems need the nudge.
	writeSnapshot(t, dir, "hot.gio", 64, 99)
	if fi, err := os.Stat(hot); err == nil {
		os.Chtimes(hot, fi.ModTime().Add(2*time.Second), fi.ModTime().Add(2*time.Second))
	}
	waitForStats(t, c, "watch event", func(s Stats) bool { return s.WatchEvents > 0 })
	waitForStats(t, c, "memory invalidation", func(s Stats) bool { return s.Invalidations >= 2 })

	invalidatedDisk := c.Stats().DiskInvalidations
	if invalidatedDisk < 2 {
		t.Fatalf("disk tier should have dropped the rewritten file's blocks: disk_invalidations = %d", invalidatedDisk)
	}

	// The touched file re-decodes with fresh data...
	f, _, err := readCols(t, c, hot, "fof_halo_tag")
	if err != nil {
		t.Fatal(err)
	}
	tag, _ := f.Column("fof_halo_tag")
	if tag.Value(0) != int64(99) {
		t.Fatalf("stale data after invalidation: %v", tag.Value(0))
	}
	// ...while the untouched file's entries survived both tiers.
	before := c.Stats()
	if _, _, err := readCols(t, c, cold, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.Opens != before.Opens || after.DiskHits != before.DiskHits {
		t.Fatalf("untouched file must stay resident: opens %d->%d disk_hits %d->%d",
			before.Opens, after.Opens, before.DiskHits, after.DiskHits)
	}
}

// TestWatchInvalidationRacingDecode rewrites a file repeatedly while
// concurrent sessions stage it. Mid-rewrite reads may error (torn file on
// disk); the properties under test are that the race detector stays
// quiet and the cache converges to the final generation.
func TestWatchInvalidationRacingDecode(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 0)
	c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
	defer c.Close()
	if err := c.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are acceptable while the writer tears the file.
				readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
			}
		}()
	}
	for i := 1; i <= 5; i++ {
		writeSnapshot(t, dir, "s.gio", 64, int64(i*100))
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if fi, err := os.Stat(path); err == nil {
		os.Chtimes(path, fi.ModTime().Add(2*time.Second), fi.ModTime().Add(2*time.Second))
	}
	waitForStats(t, c, "convergence", func(Stats) bool {
		f, _, err := readCols(t, c, path, "fof_halo_tag")
		if err != nil {
			return false
		}
		tag, _ := f.Column("fof_halo_tag")
		return tag.Value(0) == int64(500)
	})
}

// TestDemotionKeepsBlocksPromotable shrinks the memory budget to zero,
// proving budget evictions count as demotions and the demoted blocks
// come back from disk without re-decoding.
func TestDemotionKeepsBlocksPromotable(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 11)
	c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
	defer c.Close()

	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	c.SetBudget(1) // evict everything
	st := c.Stats()
	if st.Demotions != 2 {
		t.Fatalf("demotions = %d, want 2", st.Demotions)
	}
	c.SetBudget(1 << 30)

	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.DiskHits != 2 {
		t.Fatalf("demoted blocks must promote back: disk_hits = %d", st.DiskHits)
	}
	if st.Opens != 1 {
		t.Fatalf("no re-decode expected: opens = %d", st.Opens)
	}
}

// TestDiskTierBudgetSweep proves the block store enforces its own byte
// budget with LRU eviction.
func TestDiskTierBudgetSweep(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 256, 0)
	sizes := blockSizes(t, path)
	budget := sizes["fof_halo_tag"] + sizes["fof_halo_mass"] + 1

	c := New(1<<30, 2)
	defer c.Close()
	if err := c.SetDiskTier(filepath.Join(dir, "stage"), budget); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass", "fof_halo_count"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskEvictions == 0 {
		t.Fatalf("three blocks into a two-block budget must evict: %+v", st)
	}
	if st.DiskUsedBytes > budget {
		t.Fatalf("disk_used_bytes %d over budget %d", st.DiskUsedBytes, budget)
	}
	if st.DiskEntries != 2 {
		t.Fatalf("disk_entries = %d, want 2", st.DiskEntries)
	}
}

// TestBlockStoreRoundTripString forces the copy-decode promotion path
// (string columns are not castable) end to end through a restart.
func TestBlockStoreRoundTripString(t *testing.T) {
	dir := t.TempDir()
	f := dataframeWithStrings(128)
	path := filepath.Join(dir, "s.gio")
	if err := gio.WriteFile(path, f, nil); err != nil {
		t.Fatal(err)
	}
	stageDir := filepath.Join(dir, "stage")
	c1 := newTiered(t, 1<<30, stageDir)
	if _, _, err := readCols(t, c1, path, "name", "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	c1.Close()

	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	got, _, err := readCols(t, c2, path, "name", "fof_halo_tag")
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Opens != 0 || st.DiskHits != 2 {
		t.Fatalf("restart should promote both kinds: opens = %d, disk_hits = %d", st.Opens, st.DiskHits)
	}
	name, _ := got.Column("name")
	if name.Value(3) != "obj-0003" {
		t.Fatalf("string column corrupted: %v", name.Value(3))
	}
}

// TestCorruptPayloadFailsPromotion: a block record whose payload bytes
// changed after it was written (bit rot, or zero pages after a crash),
// with its length intact, fails the promotion on its CRC instead of being
// cast and served: the column decodes from source, and the bad block is
// evicted and written through whole again.
func TestCorruptPayloadFailsPromotion(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 128, 3)
	stageDir := filepath.Join(dir, "stage")
	c1 := newTiered(t, 1<<30, stageDir)
	if _, _, err := readCols(t, c1, path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	k := key{path: path, col: "fof_halo_mass"}
	e := diskEntryOf(t, c1.disk, k)
	whole := recordOf(t, c1.disk, k)
	c1.Close()
	flipByte(t, e.seg.Path()+".log", e.base+e.payloadOff+5)

	c2 := newTiered(t, 1<<30, stageDir)
	defer c2.Close()
	f, _, err := readCols(t, c2, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskPromoteFailures != 1 || st.DiskHits != 0 {
		t.Fatalf("disk_promote_failures = %d, disk_hits = %d: want the corrupt block refused", st.DiskPromoteFailures, st.DiskHits)
	}
	sameFloats(t, f.MustColumn("fof_halo_mass").F, wantMass(128, 3))
	if got := recordOf(t, c2.disk, k); !bytes.Equal(got, whole) {
		t.Fatal("corrupt block record was not evicted and rewritten whole")
	}
}

// TestWriteThroughFailureNeverFailsRead: with the stage dir replaced by a
// regular file, no block file can be created; reads still return the
// source values, and every block whose write-through failed is counted.
func TestWriteThroughFailureNeverFailsRead(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 128, 4)
	stageDir := filepath.Join(dir, "stage")
	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()
	if err := os.RemoveAll(stageDir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stageDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	f, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatalf("a failed write-through failed the read: %v", err)
	}
	if tag := f.MustColumn("fof_halo_tag"); tag.Value(0) != int64(4) || tag.Value(127) != int64(131) {
		t.Fatalf("fof_halo_tag = %v .. %v, want 4 .. 131", tag.Value(0), tag.Value(127))
	}
	sameFloats(t, f.MustColumn("fof_halo_mass").F, wantMass(128, 4))
	if st := c.Stats(); st.DiskWriteFailures != 2 || st.DiskWrites != 0 {
		t.Fatalf("disk_write_failures = %d, disk_writes = %d: want 2 and 0", st.DiskWriteFailures, st.DiskWrites)
	}
}

// flipByte inverts the byte at off of the file at path.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestDiskSegmentCrashPoints cuts a disk-tier segment's log and manifest
// at every pair of lengths across its last record, as a crash can leave
// them, and attaches a tier over each cut: the first block promotes whole,
// and the last is either absent or promotes with the values it was put
// with, never torn.
func TestDiskSegmentCrashPoints(t *testing.T) {
	src, err := newDiskTier(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	st := stamp{mtime: 1, size: 2}
	first, last := key{path: "/p", col: "a"}, key{path: "/p", col: "b"}
	vals := map[key][]float64{first: {1.5, -2.25, 3}, last: {1e300, -0.5}}
	put := func(k key) *seglog.Segment {
		payload, err := gio.EncodeBlock(dataframe.NewFloat(k.col, vals[k]))
		if err == nil {
			err = src.put(k, st, dataframe.Float, len(vals[k]), payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		return diskEntryOf(t, src, k).seg
	}
	seg := put(first)
	logA, _ := os.ReadFile(seg.Path() + ".log")
	manA, _ := os.ReadFile(seg.Path() + ".jsonl")
	if put(last) != seg {
		t.Fatal("two puts took two segments")
	}
	logB, _ := os.ReadFile(seg.Path() + ".log")
	manB, _ := os.ReadFile(seg.Path() + ".jsonl")
	src.retire()

	root := t.TempDir()
	cut := filepath.Join(root, filepath.Base(seg.Path()))
	promoted := func(dt *diskTier, k key) []float64 {
		e, err := dt.promote(k, st)
		if err != nil {
			t.Fatalf("%s: promotion failed: %v", k.col, err)
		}
		if e == nil {
			return nil
		}
		defer e.m.unref()
		return append([]float64(nil), e.col.F...)
	}
	for lc := len(logA); lc <= len(logB); lc++ {
		for jc := len(manA); jc <= len(manB); jc++ {
			if os.WriteFile(cut+".log", logB[:lc], 0o644) != nil || os.WriteFile(cut+".jsonl", manB[:jc], 0o644) != nil {
				t.Fatal("writing the cut segment failed")
			}
			dt, err := newDiskTier(root, 0)
			if err != nil {
				t.Fatal(err)
			}
			sameFloats(t, promoted(dt, first), vals[first])
			got := promoted(dt, last)
			if whole := lc == len(logB) && jc == len(manB); got != nil || whole {
				sameFloats(t, got, vals[last])
			}
			dt.retire()
		}
	}
}

// TestAttachRemovesBlockFiles: a per-block file an older tier wrote (a
// record's bytes in a *.blk file of their own) is deleted when a tier
// attaches, and its column decodes again; a *.blk file whose header does
// not validate is not the tier's, and stays.
func TestAttachRemovesBlockFiles(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 5)
	stageDir := filepath.Join(dir, "stage")
	c1 := newTiered(t, 1<<30, stageDir)
	if _, _, err := readCols(t, c1, path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	rec := recordOf(t, c1.disk, key{path: path, col: "fof_halo_mass"})
	c1.Close()
	older, foreign := filepath.Join(dir, "older"), filepath.Join(dir, "older", "notes.blk")
	if err := os.MkdirAll(older, 0o755); err != nil {
		t.Fatal(err)
	}
	block := filepath.Join(older, "0123456789abcdef.blk")
	if os.WriteFile(block, rec, 0o644) != nil || os.WriteFile(foreign, []byte("not a block"), 0o644) != nil {
		t.Fatal("writing the older files failed")
	}
	c2 := newTiered(t, 1<<30, older)
	defer c2.Close()
	if _, err := os.Stat(block); !os.IsNotExist(err) {
		t.Fatalf("an older tier's block file survived the attach: %v", err)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatalf("a file that is no block was deleted: %v", err)
	}
	f, _, err := readCols(t, c2, path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("misses %d, disk hits %d: want the column decoded again", st.Misses, st.DiskHits)
	}
	sameFloats(t, f.MustColumn("fof_halo_mass").F, wantMass(64, 5))
}
