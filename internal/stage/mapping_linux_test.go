//go:build linux

package stage

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"infera/internal/dataframe"
	"infera/internal/gio"
)

// releaseRows sizes test blocks at 256 KB per numeric column: many pages,
// so a mapping is unmistakable in /proc.
const releaseRows = 1 << 15

// procStatusKB reads one "Name: N kB" line of /proc/self/status.
func procStatusKB(t *testing.T, name string) int64 {
	t.Helper()
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if fields := strings.Fields(line); len(fields) >= 2 && fields[0] == name+":" {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatalf("%s missing from /proc/self/status", name)
	return 0
}

// mapsLines returns the lines of /proc/self/maps.
func mapsLines(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n")
}

// liveMappingsOf counts the mappings of file in /proc/self/maps; mappings
// of unlinked generations end in " (deleted)" and are not counted.
func liveMappingsOf(t *testing.T, file string) int {
	t.Helper()
	n := 0
	for _, line := range mapsLines(t) {
		if strings.HasSuffix(line, " "+file) {
			n++
		}
	}
	return n
}

// mappingsUnder returns the /proc/self/maps lines of files under dir,
// including unlinked ones.
func mappingsUnder(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	for _, line := range mapsLines(t) {
		if strings.Contains(line, " "+dir+string(filepath.Separator)) {
			out = append(out, line)
		}
	}
	return out
}

// mappedUnder reports whether the first byte of region lies in a mapping
// of a file under dir.
func mappedUnder(t *testing.T, region []byte, dir string) bool {
	t.Helper()
	addr := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(region))))
	for _, line := range mappingsUnder(t, dir) {
		var start, end uint64
		if n, _ := fmt.Sscanf(line, "%x-%x", &start, &end); n == 2 && start <= addr && addr < end {
			return true
		}
	}
	return false
}

// tierMapping returns the disk tier's mapping of (path, col), or nil.
func tierMapping(c *Cache, path, col string) *mapping {
	c.mu.Lock()
	dt := c.disk
	c.mu.Unlock()
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if el, ok := dt.items[key{path: path, col: col}]; ok {
		return el.Value.(*diskEntry).m
	}
	return nil
}

// collect forces two collections and gives the finalizers they queue a
// moment to run: a promoted column's finalizer drops its mapping reference.
func collect() {
	runtime.GC()
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
}

// collectUntil forces collections until cond holds, failing the test after
// 10 s.
func collectUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not after 10 s of collections", what)
		}
		collect()
	}
}

// sink keeps the compiler from dropping reads done only to fault pages in.
var sink float64

// promoteMapped stages col of path through c's disk tier — decode,
// write-through, demotion out of memory, mmap promotion — and reads every
// value so the mapping's pages are resident. It returns the promoted
// vector, read through l, and the mapping it was cast from. c's memory
// budget must be 1 << 30.
func promoteMapped(t *testing.T, c *Cache, l *Lease, path, col string) ([]float64, []byte) {
	t.Helper()
	if _, _, err := l.Columns(path, col); err != nil {
		t.Fatal(err)
	}
	c.SetBudget(1)
	c.SetBudget(1 << 30)
	hits := c.Stats().DiskHits
	f, _, err := l.Columns(path, col)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().DiskHits != hits+1 {
		t.Fatalf("%s of %s was not promoted from the disk tier", col, path)
	}
	vec, _ := f.Column(col)
	m := tierMapping(c, path, col)
	if m == nil {
		t.Fatalf("promotion of %s left no mapping", col)
	}
	if uintptr(unsafe.Pointer(unsafe.SliceData(vec.F)))-uintptr(unsafe.Pointer(unsafe.SliceData(m.region))) >= uintptr(len(m.region)) {
		t.Fatal("promoted vector does not alias the tier's mapping")
	}
	for _, v := range vec.F {
		sink += v
	}
	return vec.F, m.region
}

// sameBits fails unless got holds exactly want's bit patterns.
func sameBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// rewriteSource rewrites a snapshot in place with new values and moves its
// mtime forward, so every stamp comparison sees a new generation.
func rewriteSource(t *testing.T, dir, name string, fill int64, at time.Time) string {
	t.Helper()
	path := writeSnapshot(t, dir, name, releaseRows, fill)
	if err := os.Chtimes(path, at, at); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSupersededMappingReleased supersedes a promoted block three ways —
// a watch event on the source, a stamp mismatch at the next lookup, and a
// new generation put over it (the column then evicted from memory) — and
// proves that the old mapping stays mapped, its vector bit-identical,
// while the lease pinned before the drop is held — however many
// collections run — and is unmapped once that lease unpins.
func TestSupersededMappingReleased(t *testing.T) {
	cases := []struct {
		name      string
		watch     bool
		supersede func(t *testing.T, c *Cache, dir, path string)
	}{
		{"watch event", true, func(t *testing.T, c *Cache, dir, path string) {
			inv := c.Stats().DiskInvalidations
			rewriteSource(t, dir, "s.gio", 99, time.Now().Add(2*time.Second))
			waitForStats(t, c, "disk invalidation", func(s Stats) bool { return s.DiskInvalidations > inv })
		}},
		{"stamp mismatch", false, func(t *testing.T, c *Cache, dir, path string) {
			rewriteSource(t, dir, "s.gio", 99, time.Now().Add(2*time.Second))
			other := c.Pin()
			defer other.Unpin()
			if _, _, err := other.Columns(path, "fof_halo_mass"); err != nil {
				t.Fatal(err)
			}
		}},
		{"new generation put", false, func(t *testing.T, c *Cache, dir, path string) {
			payload, err := gio.EncodeBlock(dataframe.NewFloat("fof_halo_mass", make([]float64, releaseRows)))
			if err != nil {
				t.Fatal(err)
			}
			c.mu.Lock()
			dt := c.disk
			c.mu.Unlock()
			if err := dt.put(key{path: path, col: "fof_halo_mass"}, stamp{mtime: 1, size: 1}, dataframe.Float, releaseRows, payload); err != nil {
				t.Fatal(err)
			}
			c.SetBudget(1)
			c.SetBudget(1 << 30)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := rewriteSource(t, dir, "s.gio", 7, time.Now())
			stageDir := filepath.Join(dir, "stage")
			c := newTiered(t, 1<<30, stageDir)
			defer c.Close()
			if tc.watch {
				if err := c.SetWatch(true); err != nil {
					t.Fatalf("SetWatch: %v", err)
				}
			}
			l := c.Pin()
			defer l.Unpin()
			vec, region := promoteMapped(t, c, l, path, "fof_halo_mass")
			want := append([]float64(nil), vec...)

			tc.supersede(t, c, dir, path)
			collect()

			if !mappedUnder(t, region, stageDir) {
				t.Fatal("superseded mapping unmapped while a lease pinned before the drop is held")
			}
			sameBits(t, vec, want)
			l.Unpin()
			collectUntil(t, "superseded mapping unmapped after its lease unpinned", func() bool {
				return !mappedUnder(t, region, stageDir)
			})
		})
	}
}

// TestRetiredTierReleasesMappings retires a tier holding several
// promoted mappings — by Close, by detaching it, by replacing it — and
// proves the vectors promoted from them still read the same while their
// columns are resident and their lease is held, and that once the columns
// are evicted, the lease unpins and the frames are garbage, no mapping of
// the stage dir is left, unlinked or not.
func TestRetiredTierReleasesMappings(t *testing.T) {
	cases := map[string]func(t *testing.T, c *Cache, dir string){
		"close":   func(t *testing.T, c *Cache, dir string) { c.Close() },
		"detach":  func(t *testing.T, c *Cache, dir string) { c.SetDiskTier("", 0) },
		"replace": func(t *testing.T, c *Cache, dir string) { c.SetDiskTier(filepath.Join(dir, "stage2"), 0) },
	}
	for name, retire := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			stageDir := filepath.Join(dir, "stage")
			c := newTiered(t, 1<<30, stageDir)
			defer c.Close()
			var vecs, wants [][]float64
			l := c.Pin()
			defer l.Unpin()
			for i := 0; i < 2; i++ {
				path := rewriteSource(t, dir, fmt.Sprintf("s%d.gio", i), int64(i*1000), time.Now())
				for _, col := range []string{"fof_halo_mass", "fof_halo_count"} {
					vec, _ := promoteMapped(t, c, l, path, col)
					vecs = append(vecs, vec)
					wants = append(wants, append([]float64(nil), vec...))
				}
			}
			if st := c.Stats(); st.DiskMappings != int64(len(vecs)) {
				t.Fatalf("disk_mappings = %d, want %d", st.DiskMappings, len(vecs))
			}

			retire(t, c, dir)

			if st := c.Stats(); st.DiskMappings != int64(len(vecs)) {
				t.Fatalf("disk_mappings = %d after retirement, want %d held by the resident columns", st.DiskMappings, len(vecs))
			}
			for i := range vecs {
				sameBits(t, vecs[i], wants[i])
			}
			c.SetBudget(0)
			l.Unpin()
			collectUntil(t, "disk_mappings 0 after eviction and unpin", func() bool { return c.Stats().DiskMappings == 0 })
			if left := mappingsUnder(t, dir); len(left) > 0 {
				t.Fatalf("mappings of the stage dir left:\n%s", strings.Join(left, "\n"))
			}
		})
	}
}

// TestConcurrentPromotionsMapOnce races eight promotions of one block,
// round after round, and proves the block file ends up mapped exactly once
// with every caller's vector cast from that one mapping, and that each
// generation's mapping is unmapped once the next replaces it and its
// promoted entries and columns let go. Run under -race.
func TestConcurrentPromotionsMapOnce(t *testing.T) {
	dir := t.TempDir()
	dt, err := newDiskTier(filepath.Join(dir, "stage"), 0)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, releaseRows)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	payload, err := gio.EncodeBlock(dataframe.NewFloat("m", vals))
	if err != nil {
		t.Fatal(err)
	}
	k := key{path: filepath.Join(dir, "s.gio"), col: "m"}
	st := stamp{mtime: 1, size: 2}
	file := filepath.Join(dt.dir, blkFileName(k))

	const rounds, racers = 10, 8
	for round := 0; round < rounds; round++ {
		// A fresh put renames a new inode over the file, so each round
		// races on an entry with no mapping yet.
		if err := dt.put(k, st, dataframe.Float, releaseRows, payload); err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		got := make([]*entry, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				e, err := dt.promote(k, st)
				if err != nil || e == nil {
					t.Errorf("promote: entry %v, err %v", e, err)
					return
				}
				got[g] = e
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for g := 1; g < racers; g++ {
			if got[g].m != got[0].m || unsafe.SliceData(got[g].col.F) != unsafe.SliceData(got[0].col.F) {
				t.Fatalf("round %d: racer %d cast from a different mapping", round, g)
			}
		}
		for _, e := range got {
			e.m.unref()
		}
		got = nil
		if n := liveMappingsOf(t, file); n != 1 {
			t.Fatalf("round %d: %d mappings of %s, want 1", round, n, file)
		}
		collectUntil(t, fmt.Sprintf("round %d: only the current generation's mapping live", round), func() bool { return dt.live.count() == 1 })
	}
	dt.retire()
	collectUntil(t, "no live mapping after retirement", func() bool { return dt.live.count() == 0 })
	if left := mappingsUnder(t, dir); len(left) > 0 {
		t.Fatalf("mappings left:\n%s", strings.Join(left, "\n"))
	}
}

// TestChurnKeepsFileRSSBounded rewrites one snapshot 40 times, promoting
// its columns by mmap after every rewrite, and proves the process's
// file-backed resident memory stays under two generations' bytes once the
// old generations' frames are garbage, that one live mapping per column is
// left, and that no mapping of an unlinked block file is.
func TestChurnKeepsFileRSSBounded(t *testing.T) {
	dir := t.TempDir()
	stageDir := filepath.Join(dir, "stage")
	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()
	cols := []string{"fof_halo_mass", "fof_halo_count"}
	t0 := time.Now()
	var genBytes, base int64
	const cycles = 40
	for i := 0; i <= cycles; i++ {
		path := rewriteSource(t, dir, "s.gio", int64(i), t0.Add(time.Duration(i)*time.Second))
		genBytes = 0
		l := c.Pin()
		for _, col := range cols {
			_, region := promoteMapped(t, c, l, path, col)
			genBytes += int64(len(region))
		}
		l.Unpin()
		if i == 0 {
			// The first cycle faults in the code it runs; measure from here.
			base = procStatusKB(t, "RssFile")
		}
	}
	collectUntil(t, fmt.Sprintf("disk_mappings %d after %d generations", len(cols), cycles+1), func() bool {
		return c.Stats().DiskMappings == int64(len(cols))
	})
	growth := (procStatusKB(t, "RssFile") - base) << 10
	if growth >= 2*genBytes {
		t.Fatalf("RssFile grew %d bytes over %d rewrites; bound is two generations (%d bytes)", growth, cycles, 2*genBytes)
	}
	for _, line := range mappingsUnder(t, stageDir) {
		if strings.HasSuffix(line, " (deleted)") {
			t.Fatalf("an unlinked block file is still mapped: %s", line)
		}
	}
}

// TestPinnedReaderRefaultReleased drops a promoted mapping while two
// readers pinned before the drop are running and a third pins after it,
// and proves the mapping stays mapped — its vector bit-identical on a
// second read — until every reader pinned before the drop has unpinned,
// and is unmapped then, without waiting for the reader pinned after it.
func TestPinnedReaderRefaultReleased(t *testing.T) {
	dir := t.TempDir()
	path := rewriteSource(t, dir, "s.gio", 7, time.Now())
	stageDir := filepath.Join(dir, "stage")
	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()

	reader := c.Pin()
	other := c.Pin()
	vec, region := promoteMapped(t, c, reader, path, "fof_halo_mass")
	want := append([]float64(nil), vec...)

	// A stamp mismatch at the next lookup drops the old generation.
	rewriteSource(t, dir, "s.gio", 99, time.Now().Add(2*time.Second))
	if _, _, err := other.Columns(path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	late := c.Pin()
	defer late.Unpin()
	collect()
	if !mappedUnder(t, region, stageDir) {
		t.Fatal("dropped mapping unmapped while readers pinned before the drop are running")
	}
	sameBits(t, vec, want)
	reader.Unpin()
	reader.Unpin() // unpinning twice is harmless
	collect()
	if !mappedUnder(t, region, stageDir) {
		t.Fatal("unmapped while a reader pinned before the drop was still running")
	}
	other.Unpin()
	collectUntil(t, "dropped mapping unmapped after every reader pinned before the drop unpinned", func() bool {
		return !mappedUnder(t, region, stageDir)
	})
}

// TestKeptFrameHoldsMapping: a frame kept past its lease — a caller that
// breaks the lease contract, as the benchmark does when it replays an
// ask's staging database after the ask — keeps the mapping its column was
// cast from, and reads the same values, until the frame is garbage; the
// mapping is unmapped then.
func TestKeptFrameHoldsMapping(t *testing.T) {
	dir := t.TempDir()
	path := rewriteSource(t, dir, "s.gio", 7, time.Now())
	stageDir := filepath.Join(dir, "stage")
	c := newTiered(t, 1<<30, stageDir)
	defer c.Close()

	l := c.Pin()
	vec, region := promoteMapped(t, c, l, path, "fof_halo_mass")
	want := append([]float64(nil), vec...)
	f, _, err := l.Columns(path, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	rewriteSource(t, dir, "s.gio", 99, time.Now().Add(2*time.Second))
	other := c.Pin()
	if _, _, err := other.Columns(path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	other.Unpin()
	l.Unpin()
	collect()
	if !mappedUnder(t, region, stageDir) {
		t.Fatal("mapping unmapped while a frame cast from it is reachable")
	}
	sameBits(t, f.MustColumn("fof_halo_mass").F, want)
	f = nil
	collectUntil(t, "mapping unmapped once the kept frame is garbage", func() bool {
		return !mappedUnder(t, region, stageDir)
	})
}
