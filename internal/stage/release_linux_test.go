//go:build linux

package stage

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
// so a resident mapping is unmistakable in /proc.
const releaseRows = 1 << 15

// mappingRssKB returns the Rss /proc/self/smaps reports for the mapping
// that contains region.
func mappingRssKB(t *testing.T, region []byte) int64 {
	t.Helper()
	addr := uint64(uintptr(unsafe.Pointer(unsafe.SliceData(region))))
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Fatal(err)
	}
	inside := false
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var start, end uint64
		if n, _ := fmt.Sscanf(fields[0], "%x-%x", &start, &end); n == 2 {
			inside = start <= addr && addr < end
			continue
		}
		if inside && fields[0] == "Rss:" && len(fields) >= 2 {
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			return kb
		}
	}
	t.Fatalf("no mapping at %#x in /proc/self/smaps", addr)
	return 0
}

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

// liveMappingsOf counts the mappings of file in /proc/self/maps; mappings
// of unlinked generations end in " (deleted)" and are not counted.
func liveMappingsOf(t *testing.T, file string) int {
	t.Helper()
	data, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasSuffix(line, " "+file) {
			n++
		}
	}
	return n
}

// tierMapping returns the disk tier's mapping of (path, col) and the
// payload view into it, or nils.
func tierMapping(c *Cache, path, col string) (region, payload []byte) {
	c.mu.Lock()
	dt := c.disk
	c.mu.Unlock()
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if el, ok := dt.items[key{path: path, col: col}]; ok {
		e := el.Value.(*diskEntry)
		return e.region, e.mapped
	}
	return nil, nil
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
	region, payload := tierMapping(c, path, col)
	if region == nil {
		t.Fatalf("promotion of %s left no mapping", col)
	}
	if unsafe.Pointer(unsafe.SliceData(vec.F)) != unsafe.Pointer(unsafe.SliceData(payload)) {
		t.Fatal("promoted vector does not alias the tier's mapping")
	}
	for _, v := range vec.F {
		sink += v
	}
	if mappingRssKB(t, region) == 0 {
		t.Fatal("a freshly read mapping should be resident")
	}
	return vec.F, region
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
// new generation put over it — and proves each returns the old mapping's
// pages (Rss 0 kB) while the vector promoted before reads bit-identical
// old values afterwards.
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
			if _, _, err := readCols(t, c, path, "fof_halo_mass"); err != nil {
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
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := rewriteSource(t, dir, "s.gio", 7, time.Now())
			c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
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

			if kb := mappingRssKB(t, region); kb != 0 {
				t.Fatalf("superseded mapping still holds Rss %d kB", kb)
			}
			if st := c.Stats(); st.DiskReleasedBytes < int64(len(region)) {
				t.Fatalf("disk_released_bytes = %d, want >= %d", st.DiskReleasedBytes, len(region))
			}
			sameBits(t, vec, want)
		})
	}
}

// TestRetiredTierReleasesMappings retires a tier holding several
// promoted mappings — by Close, by detaching it, by replacing it — and
// proves every mapping reads Rss 0 kB afterwards, the vectors promoted
// from them still read the same, and the folded counters survive the
// retirement.
func TestRetiredTierReleasesMappings(t *testing.T) {
	cases := map[string]func(t *testing.T, c *Cache, dir string){
		"close":   func(t *testing.T, c *Cache, dir string) { c.Close() },
		"detach":  func(t *testing.T, c *Cache, dir string) { c.SetDiskTier("", 0) },
		"replace": func(t *testing.T, c *Cache, dir string) { c.SetDiskTier(filepath.Join(dir, "stage2"), 0) },
	}
	for name, retire := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
			defer c.Close()
			var (
				vecs, wants [][]float64
				regions     [][]byte
				mapped      int64
			)
			l := c.Pin()
			defer l.Unpin()
			for i := 0; i < 2; i++ {
				path := rewriteSource(t, dir, fmt.Sprintf("s%d.gio", i), int64(i*1000), time.Now())
				for _, col := range []string{"fof_halo_mass", "fof_halo_count"} {
					vec, region := promoteMapped(t, c, l, path, col)
					vecs = append(vecs, vec)
					wants = append(wants, append([]float64(nil), vec...))
					regions = append(regions, region)
					mapped += int64(len(region))
				}
			}

			retire(t, c, dir)

			for i, region := range regions {
				if kb := mappingRssKB(t, region); kb != 0 {
					t.Fatalf("mapping %d still holds Rss %d kB after retirement", i, kb)
				}
				sameBits(t, vecs[i], wants[i])
			}
			st := c.Stats()
			if st.DiskMappings != int64(len(regions)) || st.DiskReleasedBytes != mapped {
				t.Fatalf("disk_mappings = %d, disk_released_bytes = %d; want %d, %d",
					st.DiskMappings, st.DiskReleasedBytes, len(regions), mapped)
			}
		})
	}
}

// TestConcurrentPromotionsMapOnce races eight promotions of one block,
// round after round, and proves the block file ends up mapped exactly once
// with every caller's vector cast from that one mapping. Run under -race.
func TestConcurrentPromotionsMapOnce(t *testing.T) {
	dir := t.TempDir()
	dt, err := newDiskTier(filepath.Join(dir, "stage"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer dt.retire()
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
		data := make([]*float64, racers)
		var wg sync.WaitGroup
		for g := 0; g < racers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				col, _, ok, err := dt.promote(k, st)
				if err != nil || !ok {
					t.Errorf("promote: ok=%v err=%v", ok, err)
					return
				}
				data[g] = unsafe.SliceData(col.F)
			}(g)
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		for g := 1; g < racers; g++ {
			if data[g] != data[0] {
				t.Fatalf("round %d: racer %d cast from a different mapping", round, g)
			}
		}
		if n := liveMappingsOf(t, file); n != 1 {
			t.Fatalf("round %d: %d mappings of %s, want 1", round, n, file)
		}
	}
	if ds, _ := dt.snapshot(); ds.mappings != rounds {
		t.Fatalf("mappings = %d, want %d (one per generation)", ds.mappings, rounds)
	}
}

// TestChurnKeepsFileRSSBounded rewrites one snapshot 40 times, promoting
// its columns by mmap after every rewrite, and proves the process's
// file-backed resident memory stays under two generations' bytes instead
// of growing with the number of rewrites.
func TestChurnKeepsFileRSSBounded(t *testing.T) {
	dir := t.TempDir()
	c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
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
	growth := (procStatusKB(t, "RssFile") - base) << 10
	if growth >= 2*genBytes {
		t.Fatalf("RssFile grew %d bytes over %d rewrites; bound is two generations (%d bytes)", growth, cycles, 2*genBytes)
	}
	if st := c.Stats(); st.DiskMappings != int64(len(cols)*(cycles+1)) {
		t.Fatalf("disk_mappings = %d, want %d", st.DiskMappings, len(cols)*(cycles+1))
	}
}

// TestPinnedReaderRefaultReleased drops a promoted mapping while readers
// are pinned, has one of them read its vector again (faulting pages back
// in), and proves the mapping reads Rss 0 kB once every reader pinned
// before the drop has unpinned — not before, and without waiting for a
// reader pinned after it — while the vector still reads bit-identical
// values.
func TestPinnedReaderRefaultReleased(t *testing.T) {
	dir := t.TempDir()
	path := rewriteSource(t, dir, "s.gio", 7, time.Now())
	c := newTiered(t, 1<<30, filepath.Join(dir, "stage"))
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
	if kb := mappingRssKB(t, region); kb != 0 {
		t.Fatalf("dropped mapping still holds Rss %d kB", kb)
	}

	for _, v := range vec {
		sink += v
	}
	if mappingRssKB(t, region) == 0 {
		t.Fatal("reading the vector again should fault its pages back in")
	}
	reader.Unpin()
	reader.Unpin() // unpinning twice is harmless
	if mappingRssKB(t, region) == 0 {
		t.Fatal("released while a reader pinned before the drop was still running")
	}
	other.Unpin()
	if kb := mappingRssKB(t, region); kb != 0 {
		t.Fatalf("re-faulted mapping still holds Rss %d kB after its readers unpinned", kb)
	}
	sameBits(t, vec, want)
}
