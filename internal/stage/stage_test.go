package stage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/telemetry"
)

// readCols reads columns of path through a lease held until the test
// ends, so the frame stays valid for every check that follows.
func readCols(t *testing.T, c *Cache, path string, names ...string) (*dataframe.Frame, int64, error) {
	l := c.Pin()
	t.Cleanup(l.Unpin)
	return l.Columns(path, names...)
}

// writeSnapshot writes a small gio file with deterministic int/float
// columns and returns its path.
func writeSnapshot(t *testing.T, dir, name string, rows int, fill int64) string {
	t.Helper()
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	for i := range ints {
		ints[i] = fill + int64(i)
		floats[i] = float64(fill) + float64(i)/2
	}
	f := dataframe.MustFromColumns(
		dataframe.NewInt("fof_halo_tag", ints),
		dataframe.NewFloat("fof_halo_mass", floats),
		dataframe.NewFloat("fof_halo_count", floats),
	)
	path := filepath.Join(dir, name)
	if err := gio.WriteFile(path, f, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

// blockSizes reads the per-column encoded block sizes from a file header.
func blockSizes(t *testing.T, path string) map[string]int64 {
	t.Helper()
	r, err := gio.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := map[string]int64{}
	for _, name := range r.ColumnNames() {
		ci, ok := r.ColumnInfoOf(name)
		if !ok {
			t.Fatalf("column %q missing from header", name)
		}
		out[name] = ci.Size
	}
	return out
}

// TestSingleFlightDedupe stages overlapping slices from 8 concurrent
// sessions and proves each file is opened once and each column decoded
// exactly once.
func TestSingleFlightDedupe(t *testing.T) {
	dir := t.TempDir()
	const nfiles = 5
	paths := make([]string, nfiles)
	for i := range paths {
		paths[i] = writeSnapshot(t, dir, fmt.Sprintf("s%d.gio", i), 64, int64(i*1000))
	}
	c := New(1<<30, 4)

	const sessions = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			<-start
			// Every session loads every file — maximal overlap.
			reqs := make([]Request, nfiles)
			for i, p := range paths {
				reqs[i] = Request{Path: p, Columns: []string{"fof_halo_tag", "fof_halo_mass"}}
			}
			for _, res := range c.LoadAll(reqs) {
				if res.Err != nil {
					errs <- res.Err
					return
				}
				if res.Frame.NumRows() != 64 || res.Frame.NumCols() != 2 {
					errs <- fmt.Errorf("bad shape %dx%d", res.Frame.NumRows(), res.Frame.NumCols())
					return
				}
			}
		}(s)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	const cols = 2
	if st.Opens != nfiles {
		t.Fatalf("each file must open exactly once: opens = %d, want %d", st.Opens, nfiles)
	}
	if st.Misses != nfiles*cols {
		t.Fatalf("each column must decode exactly once: misses = %d, want %d", st.Misses, nfiles*cols)
	}
	if want := int64(sessions*nfiles*cols) - nfiles*cols; st.Hits != want {
		t.Fatalf("hits = %d, want %d", st.Hits, want)
	}
}

// TestPerColumnDecodeOnce is the overlapping-subset property the
// per-column keying exists for: eight concurrent sessions requesting four
// overlapping-but-unequal column subsets of one file decode each *column*
// exactly once, sharing the overlap — where a column-set-keyed cache
// would decode each distinct subset in full (9 blocks, not 3). Run under
// -race.
func TestPerColumnDecodeOnce(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 128, 0)
	sizes := blockSizes(t, path)
	c := New(1<<30, 4)

	start := make(chan struct{})
	subsets := [][]string{
		{"fof_halo_tag", "fof_halo_mass"},
		{"fof_halo_mass", "fof_halo_count"},
		{"fof_halo_count", "fof_halo_tag"},
		{"fof_halo_tag", "fof_halo_mass", "fof_halo_count"},
	}
	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		cols := subsets[s%len(subsets)]
		wg.Add(1)
		go func(cols []string) {
			defer wg.Done()
			<-start
			f, _, err := readCols(t, c, path, cols...)
			if err != nil {
				errs <- err
				return
			}
			if f.NumCols() != len(cols) || f.NumRows() != 128 {
				errs <- fmt.Errorf("bad shape %dx%d for %v", f.NumRows(), f.NumCols(), cols)
			}
		}(cols)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	// 18 column lookups over 3 distinct columns: 3 decodes and 15 shared
	// hits, regardless of which session led each column.
	if st.Misses != 3 {
		t.Fatalf("each distinct column must decode exactly once: misses = %d, want 3 (stats %+v)", st.Misses, st)
	}
	if st.Hits != 15 {
		t.Fatalf("the overlapping columns must be shared: hits = %d, want 15", st.Hits)
	}
	if want := sizes["fof_halo_tag"] + sizes["fof_halo_mass"] + sizes["fof_halo_count"]; st.BytesDecoded != want {
		t.Fatalf("bytes decoded = %d, want %d (one block per distinct column)", st.BytesDecoded, want)
	}
	if st.Entries != 3 || st.Files != 1 {
		t.Fatalf("residency = %d entries / %d files, want 3 / 1", st.Entries, st.Files)
	}
}

// TestPartialHitDecodesOnlyMissing: a request overlapping a resident set
// must decode only its absent columns, and report only those bytes read.
func TestPartialHitDecodesOnlyMissing(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 7)
	sizes := blockSizes(t, path)
	c := New(1<<30, 2)

	if _, n, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil || n == 0 {
		t.Fatalf("seed decode: %v (%d bytes)", err, n)
	}
	f, n, err := readCols(t, c, path, "fof_halo_mass", "fof_halo_count")
	if err != nil {
		t.Fatal(err)
	}
	if want := sizes["fof_halo_count"]; n != want {
		t.Fatalf("partial hit read %d bytes, want only the absent column's %d", n, want)
	}
	if f.Names()[0] != "fof_halo_mass" || f.NumCols() != 2 {
		t.Fatalf("frame = %v", f.Names())
	}
	st := c.Stats()
	if st.PartialHits != 1 {
		t.Fatalf("partial hits = %d, want 1", st.PartialHits)
	}
	if st.Opens != 2 || st.Misses != 3 || st.Hits != 1 {
		t.Fatalf("opens/misses/hits = %d/%d/%d, want 2/3/1", st.Opens, st.Misses, st.Hits)
	}
	// A fully resident request opens nothing and reports zero bytes.
	if _, n, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_count"); err != nil || n != 0 {
		t.Fatalf("resident request: %v (%d bytes)", err, n)
	}
	if got := c.Stats().Opens; got != 2 {
		t.Fatalf("resident request must not open: opens = %d", got)
	}
}

// TestColumnOrderAndDuplicates: request order and duplicates must not
// split entries, and the returned frame follows the requested order with
// an independent shell per call.
func TestColumnOrderAndDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 16, 7)
	c := New(1<<30, 2)

	f1, n1, err := readCols(t, c, path, "fof_halo_mass", "fof_halo_tag")
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first read must report bytes read")
	}
	f2, n2, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass", "fof_halo_tag")
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 0 {
		t.Fatalf("cache hit must report 0 bytes read, got %d", n2)
	}
	if got := c.Stats().Opens; got != 1 {
		t.Fatalf("opens = %d, want 1 (same columns, different order)", got)
	}
	if f1.Names()[0] != "fof_halo_mass" || f2.Names()[0] != "fof_halo_tag" {
		t.Fatalf("column order must follow the request: %v / %v", f1.Names(), f2.Names())
	}
	// Shells are independent: adding a column to one must not leak.
	if err := f2.AddColumn(dataframe.NewInt("sim", make([]int64, 16))); err != nil {
		t.Fatal(err)
	}
	if f1.Has("sim") {
		t.Fatal("frame shells must be independent per call")
	}
	// Cached vectors are marked shared, so downstream growth is COW.
	if !f1.MustColumn("fof_halo_tag").IsShared() {
		t.Fatal("cached columns must be marked shared")
	}
}

// TestLRUEvictionAtBudget inserts three single-column blocks under a
// budget sized for two and checks the least-recently-used one is evicted.
func TestLRUEvictionAtBudget(t *testing.T) {
	dir := t.TempDir()
	a := writeSnapshot(t, dir, "a.gio", 64, 0)
	b := writeSnapshot(t, dir, "b.gio", 64, 1)
	d := writeSnapshot(t, dir, "c.gio", 64, 2)
	blockBytes := blockSizes(t, a)["fof_halo_tag"]

	c := New(2*blockBytes, 2)
	for _, p := range []string{a, b} {
		if _, _, err := readCols(t, c, p, "fof_halo_tag"); err != nil {
			t.Fatal(err)
		}
	}
	// Touch a so b is LRU, then insert the third block.
	if _, _, err := readCols(t, c, a, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCols(t, c, d, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictedBytes != blockBytes {
		t.Fatalf("evictions = %d (%d bytes), want 1 (%d bytes)", st.Evictions, st.EvictedBytes, blockBytes)
	}
	if st.UsedBytes > 2*blockBytes {
		t.Fatalf("used %d exceeds budget %d", st.UsedBytes, 2*blockBytes)
	}
	// a stayed resident (hit), b was evicted (re-decodes).
	before := c.Stats().Opens
	if _, _, err := readCols(t, c, a, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Opens; got != before {
		t.Fatal("recently-used block must stay resident")
	}
	if _, _, err := readCols(t, c, b, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Opens; got != before+1 {
		t.Fatal("evicted block must re-decode")
	}
}

// TestPerColumnEviction: eviction displaces individual columns, not whole
// files — a file's cold column can leave while its hot sibling stays.
func TestPerColumnEviction(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 0)
	sizes := blockSizes(t, path)
	tagBytes := sizes["fof_halo_tag"]

	// Budget fits exactly two blocks of this file.
	c := New(2*tagBytes, 2)
	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	// Touch tag so mass is LRU, then pull in count: mass must go, tag stay.
	if _, _, err := readCols(t, c, path, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCols(t, c, path, "fof_halo_count"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Files != 1 {
		t.Fatalf("per-column eviction: %+v", st)
	}
	before := st.Opens
	if _, n, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_count"); err != nil || n != 0 {
		t.Fatalf("surviving columns must both be resident: %v (%d bytes)", err, n)
	}
	if c.Stats().Opens != before {
		t.Fatal("surviving columns re-opened the file")
	}
	if _, n, err := readCols(t, c, path, "fof_halo_mass"); err != nil || n != sizes["fof_halo_mass"] {
		t.Fatalf("evicted column must re-decode alone: %v (%d bytes)", err, n)
	}
}

// TestOversizedEntryBypassesCache: a column bigger than the whole budget
// must not flush resident blocks on its way through.
func TestOversizedEntryBypassesCache(t *testing.T) {
	dir := t.TempDir()
	small := writeSnapshot(t, dir, "small.gio", 8, 0)
	big := writeSnapshot(t, dir, "big.gio", 4096, 1)
	smallBytes := blockSizes(t, small)["fof_halo_tag"]

	c := New(smallBytes+16, 2) // fits the small block, not the big one
	if _, _, err := readCols(t, c, small, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	f, _, err := readCols(t, c, big, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 4096 {
		t.Fatalf("oversized load must still be served: %d rows", f.NumRows())
	}
	st := c.Stats()
	if st.Entries != 1 || st.UsedBytes != smallBytes {
		t.Fatalf("oversized blocks must not disturb residents: %+v", st)
	}
	// The small block is still a hit.
	before := st.Opens
	if _, _, err := readCols(t, c, small, "fof_halo_tag"); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Opens != before {
		t.Fatal("resident block was flushed by an oversized insert")
	}
}

// TestInvalidationOnFileChange rewrites a cached file and checks every
// stale column block is dropped and fresh data is served.
func TestInvalidationOnFileChange(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 8, 100)
	c := New(1<<30, 2)

	f, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if f.MustColumn("fof_halo_tag").I[0] != 100 {
		t.Fatal("unexpected seed data")
	}

	// Regenerate with different content; force a distinct mtime in case the
	// filesystem's timestamp granularity is coarse.
	writeSnapshot(t, dir, "s.gio", 8, 500)
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}

	f2, n, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("changed file must re-decode, not hit")
	}
	if f2.MustColumn("fof_halo_tag").I[0] != 500 {
		t.Fatalf("stale data served: %d", f2.MustColumn("fof_halo_tag").I[0])
	}
	st := c.Stats()
	// Both of the file's resident columns were stamped by the old
	// generation, so both invalidate.
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2 (one per stale column)", st.Invalidations)
	}
	// Same-size rewrite invalidates too (mtime alone distinguishes).
	if st.Opens != 2 {
		t.Fatalf("opens = %d, want 2", st.Opens)
	}
}

// TestSetBudgetEvicts shrinks the budget below residency and checks
// immediate eviction.
func TestSetBudgetEvicts(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 0)
	c := New(1<<30, 2)
	if _, _, err := readCols(t, c, path, "fof_halo_tag", "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Entries != 2 {
		t.Fatal("blocks not resident")
	}
	c.SetBudget(0)
	st := c.Stats()
	if st.Entries != 0 || st.UsedBytes != 0 || st.Evictions != 2 || st.Files != 0 {
		t.Fatalf("shrinking budget must evict every block: %+v", st)
	}
}

// TestErrorPropagation: missing columns and missing files fail without
// caching the failure, and without poisoning valid sibling columns.
func TestErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 8, 0)
	c := New(1<<30, 2)
	if _, _, err := readCols(t, c, path, "no_such_column"); err == nil {
		t.Fatal("want column error")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed decodes must not cache: %+v", st)
	}
	if _, _, err := readCols(t, c, filepath.Join(dir, "missing.gio"), "a"); err == nil {
		t.Fatal("want stat error")
	}
	// A mixed request fails as a whole, but its valid columns decode,
	// cache, and serve later requests — errors attribute per column.
	if _, _, err := readCols(t, c, path, "fof_halo_tag", "no_such_column"); err == nil {
		t.Fatal("want column error on mixed request")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("the valid sibling column must cache: %+v", st)
	}
	before := c.Stats().Opens
	if _, n, err := readCols(t, c, path, "fof_halo_tag"); err != nil || n != 0 {
		t.Fatalf("valid sibling must be resident after a mixed failure: %v (%d bytes)", err, n)
	}
	if c.Stats().Opens != before {
		t.Fatal("valid sibling re-decoded after a mixed failure")
	}
}

// TestBadColumnDoesNotPoisonConcurrentRequest: a request including a
// nonexistent column must not fail a concurrent single-flight follower
// that only wants the valid overlap.
func TestBadColumnDoesNotPoisonConcurrentRequest(t *testing.T) {
	dir := t.TempDir()
	path := writeSnapshot(t, dir, "s.gio", 64, 0)
	for round := 0; round < 20; round++ {
		c := New(1<<30, 4)
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			// Mixed request: must fail, but only because of its own column.
			if _, _, err := readCols(t, c, path, "fof_halo_tag", "no_such_column"); err == nil {
				t.Error("mixed request must fail")
			}
		}()
		var validErr error
		go func() {
			defer wg.Done()
			<-start
			_, _, validErr = readCols(t, c, path, "fof_halo_tag")
		}()
		close(start)
		wg.Wait()
		if validErr != nil {
			t.Fatalf("round %d: valid request poisoned by sibling's bad column: %v", round, validErr)
		}
	}
}

// TestConcurrentChurn hammers one cache with overlapping loads, column-set
// variations and budget changes under -race.
func TestConcurrentChurn(t *testing.T) {
	dir := t.TempDir()
	const nfiles = 4
	paths := make([]string, nfiles)
	for i := range paths {
		paths[i] = writeSnapshot(t, dir, fmt.Sprintf("s%d.gio", i), 32, int64(i))
	}
	c := New(1<<20, 4)
	colsets := [][]string{
		{"fof_halo_tag"},
		{"fof_halo_tag", "fof_halo_mass"},
		{"fof_halo_mass", "fof_halo_count", "fof_halo_tag"},
	}
	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p := paths[(g+i)%nfiles]
				cs := colsets[(g+i)%len(colsets)]
				f, _, err := readCols(t, c, p, cs...)
				if err != nil {
					t.Error(err)
					return
				}
				if f.NumRows() != 32 {
					t.Errorf("rows = %d", f.NumRows())
					return
				}
				if g == 0 && i%10 == 0 {
					c.SetBudget(int64(1<<20) + int64(i))
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSetMetricsTwoRegistries: two registries exporting one cache (two
// service registries over one shared cache) both show its decode, the
// first as well as the second.
func TestSetMetricsTwoRegistries(t *testing.T) {
	path := writeSnapshot(t, t.TempDir(), "s.gio", 64, 1)
	c := New(1<<30, 2)
	regs := []*telemetry.Registry{telemetry.NewRegistry(), telemetry.NewRegistry()}
	for _, r := range regs {
		c.SetMetrics(r)
	}
	if _, _, err := c.Columns(path, "fof_halo_mass"); err != nil {
		t.Fatal(err)
	}
	for i, r := range regs {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{
			"infera_stage_decode_seconds_count 1\n",
			fmt.Sprintf("infera_stage_decoded_bytes_total %d\n", c.Stats().BytesDecoded),
			"infera_stage_tier_hits_total{tier=\"mem\"} 0\n",
			"infera_stage_disk_mappings 0\n",
		} {
			if !strings.Contains(b.String(), want) {
				t.Errorf("registry %d: no %q in\n%s", i, want, b.String())
			}
		}
	}
}
