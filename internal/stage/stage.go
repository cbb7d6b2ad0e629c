// Package stage implements a process-wide, byte-budgeted staging cache of
// decoded gio column blocks, shared by every reader of raw ensemble
// snapshots (the agent data loader, the domain tools, the serving layer),
// so N concurrent sessions over overlapping ensembles cost one decode per
// distinct (file, column).
//
// # Keys and invalidation
//
// An entry is one column block, keyed by (absolute path, column name) and
// stamped with the file's (mtime, size). Per-column keying lets
// overlapping requests share: {tag, mass} and {mass, count} decode mass
// once between them. Lease.Columns assembles the requested frame from
// the resident columns and decodes only the absent ones, one partial read
// each (gio.ReadColumn). Lookups validate entries against the file's
// current stamp, so a rewritten file's columns are invalidated on the
// next access; with a watch (see Freshness) that stat is taken once per
// file generation. A decode stamps its blocks with the fstat of the file
// it opened (gio.Reader.Stat), so a block carries the generation its
// bytes came from.
//
// # Budget and eviction
//
// The cache holds at most BudgetBytes() of decoded blocks (their encoded
// size). Accounting and LRU eviction are per column, so one giant unused
// column can be displaced while its siblings stay hot; a single column
// over the whole budget is served uncached.
//
// # Sharing and immutability
//
// Cached column vectors are immutable and marked shared
// (dataframe.Column.MarkShared), so in-place growth downstream copies
// first. Lease.Columns returns a fresh Frame shell per call over the
// cached vectors; callers may add columns but never mutate column data in
// place, and staged frames flow into sqldb.BulkAppend by reference.
//
// # Tiers
//
// An optional disk tier (SetDiskTier, -stage-dir; disk.go) persists
// decoded blocks under the memory LRU: the call that decodes a block
// writes it through, memory eviction demotes, and a memory miss promotes
// from disk without the gio decoder, so hot columns survive restarts.
//
// Every reader holds a lease (Pin): an ask pins for its whole run, a tool
// for one call. A vector a lease was served is valid, and unchanged,
// until that lease's Unpin. Cache.LoadAll (and Cache.Columns) pins, loads,
// copies the frames out and unpins, for a caller that keeps what it read.
//
// The cache owns the buffer of every numeric column it decodes into a
// full memory tier, taken from a process-wide free list of size-classed
// buffers outside the Go heap (pool.go), and a reference to the mapping
// of every column it promotes by mmap cast. Both are handed back — the
// buffer to the free list, the reference to its mapping — once the column
// has left the memory tier and every lease it was served to, and every
// lease pinned before those, has unpinned (reader epochs, epoch.go). A
// promoted column's own reference is dropped only once it is garbage too,
// so a frame kept past its lease keeps its mapping (disk.go). Columns
// decoded while the tier has room stay heap vectors, as do strings.
//
// # Cell-text memos
//
// Every resident Float column decoded from its source file carries a
// dataframe.CellMemo: the CSV text of its cells, built by the first
// WriteCSV of a frame holding them and copied by every later one. Its
// bytes join UsedBytes (and MemoBytes) while the entry is resident, and
// may evict like a decode. The memo is dropped when the entry's buffer is
// handed back — before the buffer reaches the free list, so a reader that
// broke its lease formats the recycled (in test binaries, poisoned)
// values instead of copying old text — or at once for a heap vector. A
// column promoted by mmap cast gets none: its finalizer must not sit on
// the cycle the memo's charge closes through the cache.
//
// # Freshness
//
// With a filesystem watch active (SetWatch: inotify on Linux, a directory
// poller elsewhere), each file's stamp is pinned after one stat and later
// freshness checks make no syscall; a watch event unpins and invalidates
// exactly the touched file's entries in both tiers, and moves the
// generation of every ensemble root holding it (Generation, watch.go).
//
// # Concurrency
//
// All methods are safe for concurrent use. Concurrent misses single-flight
// per column: the first request for an absent column decodes it and the
// rest share the result. LoadAll fans a request list out over a bounded
// worker pool, and a multi-column miss decodes its blocks concurrently.
package stage

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/telemetry"
)

// DefaultBudgetBytes is the Shared cache's decoded-block budget.
const DefaultBudgetBytes = 256 << 20

// Stats is a point-in-time snapshot of the cache counters, surfaced on the
// service's /metrics endpoint. Hit/miss accounting is per column block —
// the cache's unit of residency — so one Lease.Columns call over k columns
// moves the counters by k.
type Stats struct {
	// Hits counts column lookups served from resident blocks, including
	// those that waited on another request's in-flight decode.
	Hits int64 `json:"hits"`
	// Misses counts column blocks that had to decode (single-flight
	// leaders).
	Misses int64 `json:"misses"`
	// PartialHits counts Lease.Columns calls that found some of their
	// columns resident (or in flight) and decoded only the rest.
	PartialHits int64 `json:"partial_hits"`
	// Opens counts underlying gio file opens — one per miss batch, however
	// many absent columns it decodes.
	Opens int64 `json:"opens"`
	// BytesDecoded is the cumulative encoded block bytes read from disk by
	// decodes — the I/O-volume measure benchmarks assert on.
	BytesDecoded int64 `json:"bytes_decoded"`
	// StatSaves counts freshness checks served from a watch pin instead
	// of a syscall.
	StatSaves int64 `json:"stat_saves"`
	// Invalidations counts column blocks dropped because the backing
	// file's mtime or size changed.
	Invalidations int64 `json:"invalidations"`
	// Evictions / EvictedBytes count blocks pushed out by the byte budget.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// UsedBytes / BudgetBytes describe the current residency. UsedBytes
	// counts the resident columns' cell-text memos (MemoBytes) too.
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	// MemoBytes is the size of the CSV cell-text memos resident Float
	// columns have built (dataframe.CellMemo): the text packed two
	// characters to a byte, plus one length byte per cell.
	MemoBytes int64 `json:"memo_bytes"`
	// Entries is the resident column-block count; Files the distinct
	// backing files they span.
	Entries int `json:"entries"`
	Files   int `json:"files"`

	// StatCalls counts the stat syscalls freshness checks made.
	StatCalls int64 `json:"stat_calls"`

	// DiskHits counts memory misses served by promoting a block from the
	// disk tier; PromotedBytes is their payload volume (not source I/O, so
	// not part of bytes_decoded).
	DiskHits      int64 `json:"disk_hits"`
	PromotedBytes int64 `json:"promoted_bytes"`
	// DiskPromoteFailures counts promotions that found a resident block
	// unusable; each evicted it and fell through to the decoder.
	DiskPromoteFailures int64 `json:"disk_promote_failures"`
	// Demotions / DemotedBytes count memory-budget evictions while a disk
	// tier is attached: the block stays promotable from the store.
	Demotions    int64 `json:"demotions"`
	DemotedBytes int64 `json:"demoted_bytes"`
	// DiskWrites counts block records written through; DiskWriteFailures
	// the write-throughs that failed, each dropped without failing the
	// read. The other disk_* fields mirror the memory tier's.
	DiskWrites        int64 `json:"disk_writes"`
	DiskWriteFailures int64 `json:"disk_write_failures"`
	DiskEvictions     int64 `json:"disk_evictions"`
	DiskEvictedBytes  int64 `json:"disk_evicted_bytes"`
	DiskInvalidations int64 `json:"disk_invalidations"`
	DiskUsedBytes     int64 `json:"disk_used_bytes"`
	DiskBudgetBytes   int64 `json:"disk_budget_bytes"`
	DiskEntries       int   `json:"disk_entries"`
	// DiskMappings counts the cache's live block-record mappings: those a
	// disk tier still indexes or a promoted column still holds.
	DiskMappings int64 `json:"disk_mappings"`

	// RecycledBytes counts the bytes of column buffers that went back to
	// the free list for the next decode to read into.
	RecycledBytes int64 `json:"recycled_bytes"`
	// BufferBytes is the size of every column buffer the process has
	// mapped and not unmapped, in use or free (the same for every cache).
	BufferBytes int64 `json:"buffer_bytes"`

	// PrefetchUsed and PrefetchWasted always read 0: the cache reads only
	// the columns a reader asks for.
	//
	// Deprecated: kept for callers of the removed prefetcher's counters.
	PrefetchUsed   int64 `json:"prefetch_used"`
	PrefetchWasted int64 `json:"prefetch_wasted"`

	// WatchEvents counts filesystem change notifications handled;
	// WatchedFiles is the number of files currently pinned stat-free.
	WatchEvents  int64 `json:"watch_events"`
	WatchedFiles int   `json:"watched_files"`
	// WatchOverflows counts watcher queue overflows (inotify
	// IN_Q_OVERFLOW): events were lost, so every file was unpinned and
	// re-validated by stat on its next lookup.
	WatchOverflows int64 `json:"watch_overflows"`
}

// key identifies one cached column block. Freshness is checked against the
// entry's stamp, not the key, so a regenerated file replaces its stale
// blocks in place.
type key struct {
	path string
	col  string
}

// stamp is the file identity an entry was decoded from.
type stamp struct {
	mtime int64 // ns
	size  int64
}

func stampOf(fi os.FileInfo) stamp {
	return stamp{mtime: fi.ModTime().UnixNano(), size: fi.Size()}
}

type entry struct {
	key   key
	stamp stamp
	// col is the decoded immutable (shared-marked) column vector.
	col   *dataframe.Column
	bytes int64
	// buf is the free-list buffer col's vector lives in, while the cache
	// owns it: set for numeric columns decoded into a full memory tier,
	// empty for the rest (see decode). m is the entry's reference to the
	// disk-tier mapping a promoted vector was cast from.
	buf *slab
	m   *mapping
	// seen is the newest reader epoch of a lease the buffer was served to.
	seen uint64
	// memo is the resident Float column's cell-text memo, memoBytes what
	// its build charged to the budget.
	memo      *dataframe.CellMemo
	memoBytes int64
}

// flight is one column's single-flight load: its leader publishes e (or
// err) and closes done. seen is the newest epoch of a lease waiting on it.
type flight struct {
	done chan struct{}
	e    *entry
	err  error
	seen uint64
}

// Cache is the staging cache. Create with New or use the process-wide
// Shared instance.
type Cache struct {
	workers int
	sem     chan struct{}

	mu       sync.Mutex
	budget   int64
	ll       *list.List // front = most recently used
	items    map[key]*list.Element
	inflight map[key]*flight
	// paths refcounts resident blocks per file for the Files gauge.
	paths map[string]int
	stats Stats

	// disk is the optional persistent tier (SetDiskTier); nil = memory only.
	// live counts the mappings of every tier the cache has attached.
	disk *diskTier
	live atomic.Int64

	// watch is the filesystem watch (SetWatch): pinned holds the stat-free
	// stamp per file, pinEpoch, for every path statted under the watch, a
	// fence against an event racing the stat behind a pin (see statPath).
	watch    watcher
	pinned   map[string]stamp
	pinEpoch map[string]uint64
	// roots holds the *atomic.Uint64 generation of every root Generation
	// watches; genSeq issues every generation value, so no two are equal.
	roots  sync.Map
	genSeq atomic.Uint64

	// readers are the pinned readers (Pin): the memory tier retires its
	// buffers to them, and they hand them back once no lease can see them.
	readers *readerEpochs
	free    *recycler

	// decodeSeconds times every decode batch; SetMetrics exports it.
	decodeSeconds *telemetry.Histogram
}

// New returns a cache holding at most budgetBytes of decoded column
// blocks, with loads fanned out over at most workers goroutines (0 picks a
// default of min(8, GOMAXPROCS)). Until SetWatch turns a watch on, every
// lookup stats its file.
func New(budgetBytes int64, workers int) *Cache {
	if workers <= 0 {
		workers = min(runtime.GOMAXPROCS(0), 8)
	}
	c := &Cache{
		workers:  workers,
		sem:      make(chan struct{}, workers),
		budget:   budgetBytes,
		ll:       list.New(),
		items:    map[key]*list.Element{},
		inflight: map[key]*flight{},
		paths:    map[string]int{},
		pinned:   map[string]stamp{},
		pinEpoch: map[string]uint64{},
		free:     &recycler{},

		decodeSeconds: telemetry.NewHistogram(),
	}
	c.readers = newReaderEpochs(c.free)
	return c
}

// SetDiskTier attaches (or, with dir == "", detaches) the persistent
// block store rooted at dir with the given byte budget (<= 0 picks
// DefaultDiskBudgetBytes). Attaching scans the segments there, so blocks
// persisted by a previous process become promotable immediately, and
// holds dir for the rest of the process: another process's attach of it
// fails. An attached tier is retired first: it drops its reference to
// every block mapping it holds (vectors already promoted from it stay
// readable until their columns retire, even if a tier attached to the same
// dir drops their records), and changes its directory no more.
func (c *Cache) SetDiskTier(dir string, budgetBytes int64) error {
	c.mu.Lock()
	c.disk.retire()
	c.disk = nil
	c.mu.Unlock()
	if dir == "" {
		return nil
	}
	dt, err := newDiskTier(dir, budgetBytes)
	if err != nil {
		return err
	}
	dt.live = &c.live
	c.mu.Lock()
	defer c.mu.Unlock()
	c.disk = dt
	return nil
}

// WaitPending returns at once: every write-through is done by the time
// the read that decoded its block returns.
//
// Deprecated: kept for callers written when write-throughs ran in the
// background.
func (c *Cache) WaitPending() {}

// SetPrefetch does nothing: the cache reads only the columns a reader asks
// for.
//
// Deprecated: kept for callers written when the cache prefetched.
func (c *Cache) SetPrefetch(on bool) {}

// Close stops the watcher and retires the disk tier as SetDiskTier does;
// its segments stay on disk for the next process. The memory tier is
// left intact. The Shared cache is never closed.
func (c *Cache) Close() error {
	_ = c.SetWatch(false) // turning the watch off cannot fail
	return c.SetDiskTier("", 0)
}

var (
	sharedOnce sync.Once
	shared     *Cache
)

// Shared returns the process-wide cache every snapshot reader defaults to.
// One instance per process is the point: sessions, tools and services
// dedupe against each other only when they share it.
func Shared() *Cache {
	sharedOnce.Do(func() { shared = New(DefaultBudgetBytes, 0) })
	return shared
}

// SetBudget adjusts the byte budget (e.g. from a daemon flag), evicting
// immediately if the cache is over the new bound.
func (c *Cache) SetBudget(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budgetBytes
	c.evictOverBudgetLocked()
}

// SetMetrics exports the cache into a telemetry registry: its decode-batch
// durations as infera_stage_decode_seconds, and its counters and mapping
// gauge, which every scrape reads from Stats. Any number of registries may
// export one cache; a nil registry exports nothing.
func (c *Cache) SetMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	stat := func(name, help string, v func(Stats) int64, labels ...telemetry.Label) {
		r.SetHelp(name, help)
		r.CounterFunc(name, func() int64 { return v(c.Stats()) }, labels...)
	}
	r.SetHelp("infera_stage_decode_seconds", "Wall-clock duration of one gio column decode batch.")
	r.AttachHistogram("infera_stage_decode_seconds", c.decodeSeconds)
	stat("infera_stage_decoded_bytes_total", "Cumulative encoded block bytes read from disk by stage-cache decodes.", func(s Stats) int64 { return s.BytesDecoded })
	tierHits := "Column lookups served per cache tier (mem = resident block, disk = promoted from the block store)."
	stat("infera_stage_tier_hits_total", tierHits, func(s Stats) int64 { return s.Hits }, telemetry.L("tier", "mem"))
	stat("infera_stage_tier_hits_total", tierHits, func(s Stats) int64 { return s.DiskHits }, telemetry.L("tier", "disk"))
	stat("infera_stage_tier_promotions_total", "Blocks promoted disk -> memory without touching the gio decoder.", func(s Stats) int64 { return s.DiskHits })
	stat("infera_stage_tier_demotions_total", "Memory-budget evictions that kept a disk-tier copy instead of discarding.", func(s Stats) int64 { return s.Demotions })
	stat("infera_stage_watch_events_total", "Filesystem change notifications handled by the stage watcher.", func(s Stats) int64 { return s.WatchEvents })
	stat("infera_stage_watch_overflows_total", "Watcher queue overflows; each unpins every file for re-validation by stat and moves every ensemble generation.", func(s Stats) int64 { return s.WatchOverflows })
	stat("infera_stage_stat_saves_total", "Freshness checks served without a stat syscall (watch pin).", func(s Stats) int64 { return s.StatSaves })
	stat("infera_stage_stat_calls_total", "Real stat syscalls performed by freshness checks.", func(s Stats) int64 { return s.StatCalls })
	stat("infera_stage_recycled_bytes_total", "Column buffer bytes returned to the stage free list for the next decode to read into.", func(s Stats) int64 { return s.RecycledBytes })
	r.SetHelp("infera_stage_disk_mappings", "Live disk-tier block mappings: indexed by a tier or held by a promoted column.")
	r.GaugeFunc("infera_stage_disk_mappings", c.live.Load)
}

// Stats returns a snapshot of the counters, merging in the disk tier's.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.BudgetBytes = c.budget
	st.Entries = c.ll.Len()
	st.Files = len(c.paths)
	st.WatchedFiles = len(c.pinned)
	st.RecycledBytes = c.free.recycled.Load()
	st.BufferBytes = buffers.mapped.Load()
	st.DiskMappings = c.live.Load()
	if dt := c.disk; dt != nil {
		ds, entries, budget := dt.snapshot()
		st.DiskWrites = ds.writes
		st.DiskEvictions = ds.evictions
		st.DiskEvictedBytes = ds.evictedBytes
		st.DiskInvalidations = ds.invalidations
		st.DiskUsedBytes = ds.usedBytes
		st.DiskBudgetBytes = budget
		st.DiskEntries = entries
	}
	return st
}

// canonicalCols deduplicates and sorts names into the decode-order list;
// per-column keying makes request order irrelevant by construction.
func canonicalCols(names []string) []string {
	uniq := slices.Clone(names)
	slices.Sort(uniq)
	return slices.Compact(uniq)
}

// statPath resolves the file's current identity. Under a watch a pinned
// stamp is served with zero syscalls until a change event unpins it;
// without one, every call stats. bypass forces a real stat (used on
// generation-mismatch retries, where the pinned stamp is exactly what
// must not be trusted).
func (c *Cache) statPath(path string, bypass bool) (stamp, error) {
	c.mu.Lock()
	if st, ok := c.pinned[path]; ok && !bypass {
		c.stats.StatSaves++
		c.mu.Unlock()
		return st, nil
	}
	w := c.watch
	epoch0 := c.pinEpoch[path]
	if w != nil {
		// Record the path so a watcher overflow, which bumps every known
		// epoch, also fences this stat, and so its events invalidate it.
		c.pinEpoch[path] = epoch0
	}
	c.mu.Unlock()
	// Pin protocol: watch the file's directory BEFORE statting, and pin
	// only if no event arrived in between (epoch fence); stat-then-watch
	// could pin a stamp a change in the gap made stale forever. Events
	// name directory + entry, so only a clean path can be pinned.
	armed := w != nil && filepath.Clean(path) == path && w.add(filepath.Dir(path)) == nil
	st, err := os.Stat(path)
	c.mu.Lock()
	c.stats.StatCalls++
	if err != nil {
		delete(c.pinned, path)
		c.mu.Unlock()
		return stamp{}, err
	}
	now := stampOf(st)
	if armed && c.watch == w && c.pinEpoch[path] == epoch0 {
		c.pinned[path] = now
	}
	c.mu.Unlock()
	return now, nil
}

// claim is one columns call's share of its columns: the vectors it found
// resident, the flights it follows and the flights it leads, with what
// its lead produced.
type claim struct {
	dt       *diskTier // the disk tier as the claim found it
	resolved map[string]*dataframe.Column
	hits     int
	waits    []waiter
	// missing are the columns this call must load; it leads their flights
	// (lead), and fetch fills entries and errs, all aligned by index.
	// decoded indexes the entries fetch read from the source file.
	missing []string
	lead    []*flight
	entries []*entry
	errs    []error
	decoded []int
}

// waiter is a column whose load another call leads.
type waiter struct {
	col string
	fl  *flight
}

// columns is Lease.Columns for lease l. It claims the columns of path
// under mu, fetches and publishes those it leads (writing the decoded ones
// through to the disk tier), follows the loads other calls lead, and
// starts over when a column came from another file generation than the
// one it statted.
func (c *Cache) columns(path string, l *Lease, names []string) (*dataframe.Frame, int64, error) {
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("stage: no columns requested for %s", path)
	}
	uniq := canonicalCols(names)
	var bytesRead int64
	// A generation-mismatch retry bypasses the pin: the pinned stamp is the
	// thing that just disagreed with reality.
	for fresh := false; ; fresh = true {
		now, err := c.statPath(path, fresh)
		if err != nil {
			return nil, bytesRead, err
		}
		cl := c.claim(path, l, uniq, now)
		if len(cl.missing) > 0 {
			bytesRead += c.fetch(path, &cl, now)
			if err := c.publish(path, l, &cl); err != nil {
				return nil, bytesRead, err
			}
		}
		stale, err := c.follow(&cl, now)
		if err != nil {
			return nil, bytesRead, err
		}
		if !stale {
			return assemble(cl.resolved, names, bytesRead)
		}
	}
}

// claim sorts uniq under mu: a column resident at generation now is a hit
// (dropping a stale one on the way), a column another call is loading is
// waited on, and the rest are this call's to load — it registers their
// flights. Every vector the claim resolves or waits for is marked seen by
// l's epoch, so its buffer outlives the lease.
func (c *Cache) claim(path string, l *Lease, uniq []string, now stamp) claim {
	cl := claim{resolved: make(map[string]*dataframe.Column, len(uniq))}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, name := range uniq {
		k := key{path: path, col: name}
		if el, ok := c.items[k]; ok {
			e := el.Value.(*entry)
			if e.stamp == now {
				cl.hits++
				c.ll.MoveToFront(el)
				e.seen = max(e.seen, l.epoch)
				cl.resolved[name] = e.col
				continue
			}
			// The backing file changed since this block was decoded.
			c.removeLocked(el)
			c.stats.Invalidations++
		}
		if fl := c.inflight[k]; fl != nil {
			fl.seen = max(fl.seen, l.epoch)
			cl.waits = append(cl.waits, waiter{name, fl})
			continue
		}
		fl := &flight{done: make(chan struct{})}
		c.inflight[k] = fl
		cl.lead = append(cl.lead, fl)
		cl.missing = append(cl.missing, name)
	}
	c.stats.Hits += int64(cl.hits)
	cl.dt = c.disk
	return cl
}

// fetch loads the columns cl leads from below the memory tier. It tries
// the disk tier first: a promotion serves the block without touching the
// gio decoder (an mmap cast for numeric columns), and a resident but
// unusable block — truncated, corrupt, raced with eviction — evicts
// exactly that block and falls through to the decoder. It returns the
// source bytes decoded (promoted bytes are tier I/O, not source-file I/O).
func (c *Cache) fetch(path string, cl *claim, now stamp) (bytesRead int64) {
	cl.entries = make([]*entry, len(cl.missing))
	cl.errs = make([]error, len(cl.missing))
	toDecode := make([]int, 0, len(cl.missing))
	var promoted, promotedBytes, promoteFails int64
	for i, name := range cl.missing {
		if cl.dt == nil {
			toDecode = append(toDecode, i)
			continue
		}
		e, perr := cl.dt.promote(key{path: path, col: name}, now)
		if e != nil {
			cl.entries[i] = e
			promoted++
			promotedBytes += e.bytes
			continue
		}
		if perr != nil {
			promoteFails++
		}
		toDecode = append(toDecode, i)
	}
	c.mu.Lock()
	c.stats.DiskHits += promoted
	c.stats.PromotedBytes += promotedBytes
	c.stats.DiskPromoteFailures += promoteFails
	if len(toDecode) > 0 {
		c.stats.Misses += int64(len(toDecode))
		c.stats.Opens++
		if cl.hits > 0 || len(cl.waits) > 0 || promoted > 0 {
			c.stats.PartialHits++
		}
	}
	c.mu.Unlock()
	cl.decoded = toDecode
	if len(toDecode) == 0 {
		return 0
	}
	cols := make([]string, len(toDecode))
	for j, i := range toDecode {
		cols[j] = cl.missing[i]
	}
	entries, errs := c.decode(path, cols)
	for j, i := range toDecode {
		cl.entries[i], cl.errs[i] = entries[j], errs[j]
		if errs[j] == nil {
			bytesRead += entries[j].bytes
		}
	}
	return bytesRead
}

// publish ends the flights cl leads: each gets its entry, which joins the
// memory tier, or its own error — a bad column name in this request must
// not poison a concurrent request waiting on a sibling column that decoded
// fine. Then it writes every decoded entry through to the disk tier, and
// returns the first error.
//
// The write-through reads the entry's vector after the entry is published,
// and it may already have left the memory tier (oversized, or budget
// pressure). Its buffer is still safe to read: e.seen is at least l's
// epoch, and l stays pinned until this call returns, so the buffer cannot
// reach the free list before the write is done.
func (c *Cache) publish(path string, l *Lease, cl *claim) error {
	var firstErr error
	c.mu.Lock()
	for i, fl := range cl.lead {
		delete(c.inflight, key{path: path, col: cl.missing[i]})
		if err := cl.errs[i]; err != nil {
			fl.err = err
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		e := cl.entries[i]
		e.seen = max(l.epoch, fl.seen)
		fl.e = e
		c.insertLocked(e)
		cl.resolved[cl.missing[i]] = e.col
	}
	c.mu.Unlock()
	for _, fl := range cl.lead {
		close(fl.done)
	}
	if cl.dt != nil {
		c.writeThrough(cl)
	}
	return firstErr
}

// writeThrough stores every block cl decoded in the disk tier cl found. A
// numeric payload is the vector's own bytes (the vector is immutable); only
// strings and big-endian hosts encode a copy. A write that fails is
// counted and dropped: the block decodes again on its next miss.
func (c *Cache) writeThrough(cl *claim) {
	var failed int64
	for _, i := range cl.decoded {
		if cl.errs[i] != nil {
			continue
		}
		e := cl.entries[i]
		payload, ok := gio.VectorBlock(e.col)
		var err error
		if !ok {
			payload, err = gio.EncodeBlock(e.col)
		}
		if err == nil {
			err = cl.dt.put(e.key, e.stamp, e.col.Kind, e.col.Len(), payload)
		}
		if err != nil {
			failed++
		}
	}
	if failed > 0 {
		c.mu.Lock()
		c.stats.DiskWriteFailures += failed
		c.mu.Unlock()
	}
}

// follow waits for the flights cl follows and reports whether any column,
// followed or led, came from another file generation than now: the file
// changed underfoot (or the pin was stale), so the call re-validates
// against a real stat rather than assembling a torn frame from mixed
// generations. Promoted entries carry now's stamp by construction; only
// decoded ones can disagree.
func (c *Cache) follow(cl *claim, now stamp) (stale bool, err error) {
	for _, w := range cl.waits {
		<-w.fl.done
		if w.fl.err != nil {
			return false, w.fl.err
		}
		if w.fl.e.stamp != now {
			stale = true
			continue
		}
		cl.resolved[w.col] = w.fl.e.col
		c.mu.Lock()
		c.stats.Hits++
		c.mu.Unlock()
	}
	for _, e := range cl.entries {
		if e != nil && e.stamp != now {
			stale = true
		}
	}
	return stale, nil
}

// decode opens the file once and reads the absent columns, fanning
// multi-column misses out over per-column goroutines (gio readers support
// concurrent positionless reads). Errors come back aligned per column —
// one request's nonexistent column must not fail siblings that decoded
// fine — with a whole-file failure (open) replicated to every
// column. Entries are stamped with the opened file's own fstat
// (gio.Reader.Stat), so they carry the generation their bytes came from: a
// file renamed over the path since the caller's freshness check yields a
// stamp that disagrees with it, and columns re-validates rather than
// serving a torn frame.
//
// A decode reads numeric columns into free-list buffers when the memory
// tier has no room for them: something is evicted, and its buffer comes
// back for the next decode. With room to spare it reads heap vectors, as
// resident columns stay part of the Go heap the collector paces itself
// by; moving them out of it would only make collections more frequent.
func (c *Cache) decode(path string, cols []string) ([]*entry, []error) {
	start := time.Now()
	entries := make([]*entry, len(cols))
	errs := make([]error, len(cols))
	r, err := gio.Open(path)
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return entries, errs
	}
	defer r.Close()
	stp := stampOf(r.Stat())
	var want int64
	for _, name := range cols {
		if ci, ok := r.ColumnInfoOf(name); ok {
			want += ci.Size
		}
	}
	c.mu.Lock()
	pooled := c.stats.UsedBytes+want > c.budget
	c.mu.Unlock()
	read := func(i int) {
		var l loan
		var a gio.Alloc
		if pooled {
			a = &l
		}
		col, n, rerr := r.ReadColumnAlloc(cols[i], a)
		if rerr != nil {
			c.free.put(l.buf) // no reader saw it
			errs[i] = rerr
			return
		}
		entries[i] = &entry{
			key:   key{path: path, col: cols[i]},
			stamp: stp,
			col:   col.MarkShared(),
			bytes: n,
			buf:   l.buf,
		}
	}
	if len(cols) == 1 {
		read(0)
	} else {
		var wg sync.WaitGroup
		for i := range cols {
			wg.Add(1)
			go func() { defer wg.Done(); read(i) }()
		}
		wg.Wait()
	}
	var total int64
	for i := range cols {
		if errs[i] == nil {
			total += entries[i].bytes
		}
	}
	c.mu.Lock()
	c.stats.BytesDecoded += total
	c.mu.Unlock()
	c.decodeSeconds.ObserveDuration(time.Since(start))
	// Deliberately no pin here: the caller's statPath already pinned the
	// pre-decode identity under the epoch fence, and pinning a post-decode
	// stat could clobber a newer generation another goroutine observed
	// mid-decode.
	return entries, errs
}

// assemble builds a fresh frame shell over the resolved vectors in
// requested order.
func assemble(resolved map[string]*dataframe.Column, names []string, bytesRead int64) (*dataframe.Frame, int64, error) {
	out := dataframe.New()
	added := map[string]bool{}
	for _, n := range names {
		if added[n] {
			continue
		}
		added[n] = true
		col, ok := resolved[n]
		if !ok {
			// Cannot happen once every column resolved, but guard it.
			return nil, 0, fmt.Errorf("stage: column %q missing from resolved set", n)
		}
		if err := out.AddColumn(col); err != nil {
			return nil, 0, err
		}
	}
	return out, bytesRead, nil
}

// insertLocked adds e (replacing any same-key entry) and enforces the
// budget. Caller holds mu.
func (c *Cache) insertLocked(e *entry) {
	if el, ok := c.items[e.key]; ok {
		c.removeLocked(el)
	}
	if e.bytes > c.budget {
		// A column that alone exceeds the budget would flush every other
		// resident block and still be evicted last; serve it uncached and
		// leave the rest of the cache intact.
		c.stats.Evictions++
		c.stats.EvictedBytes += e.bytes
		c.retireLocked(e)
		return
	}
	// A column promoted by mmap cast carries no memo: its finalizer
	// (disk.go) must not sit on a reference cycle, and the memo's charge
	// reaches the cache, which reaches the column.
	if e.col.Kind == dataframe.Float && e.m == nil {
		e.memo = dataframe.NewCellMemo(func(n int64) bool { return c.chargeMemo(e, n) })
		e.col.SetCellMemo(e.memo)
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.paths[e.key.path]++
	c.stats.UsedBytes += e.bytes
	c.evictOverBudgetLocked()
}

// chargeMemo counts the n bytes of e's freshly built cell-text memo
// against the budget, evicting as a decode would, while e is resident. It
// reports false, charging nothing, once e has left the memory tier: the
// memo then keeps no text.
func (c *Cache) chargeMemo(e *entry, n int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; !ok || el.Value.(*entry) != e {
		return false
	}
	e.memoBytes += n
	c.stats.MemoBytes += n
	c.stats.UsedBytes += n
	c.evictOverBudgetLocked()
	return true
}

func (c *Cache) evictOverBudgetLocked() {
	for c.stats.UsedBytes > c.budget && c.ll.Len() > 0 {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.stats.Evictions++
		c.stats.EvictedBytes += e.bytes
		// With a disk tier attached, a budget eviction is a demotion: the
		// block stays promotable from the store its write-through stored
		// it in.
		if c.disk != nil {
			c.stats.Demotions++
			c.stats.DemotedBytes += e.bytes
		}
		c.removeLocked(oldest)
	}
}

// retireLocked hands the buffer, the mapping reference and the memo of e,
// which has left the memory tier, to the reader epochs: they are handed
// back, the memo dropped first, when every lease pinned at or before the
// newest one e was served to has unpinned. A heap vector's memo is dropped
// at once: its values never change, so no reader can tell. Caller holds
// mu.
func (c *Cache) retireLocked(e *entry) {
	if e.buf == nil && e.m == nil {
		e.memo.Drop()
	} else {
		c.readers.retired(deferred{buf: e.buf, m: e.m, memo: e.memo, epoch: e.seen})
	}
	e.buf, e.m, e.memo = nil, nil, nil
}

// removeLocked takes el out of the memory tier and retires its buffer.
// Caller holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if c.paths[e.key.path]--; c.paths[e.key.path] <= 0 {
		delete(c.paths, e.key.path)
	}
	c.stats.UsedBytes -= e.bytes + e.memoBytes
	c.stats.MemoBytes -= e.memoBytes
	e.memoBytes = 0
	c.retireLocked(e)
}

// Request names one file's column selection for LoadAll.
type Request struct {
	Path    string
	Columns []string
}

// Result is one LoadAll outcome, aligned with the request slice.
type Result struct {
	Frame     *dataframe.Frame
	BytesRead int64
	Err       error
}

// LoadAll loads reqs for a caller that holds no lease and keeps what it
// reads: it pins, loads through the lease (Lease.LoadAll), copies every
// frame out and unpins. Results align with reqs; each carries its own
// error so callers keep per-snapshot error context.
func (c *Cache) LoadAll(reqs []Request) []Result {
	l := c.Pin()
	defer l.Unpin()
	out := l.LoadAll(reqs)
	for i := range out {
		if out[i].Frame != nil {
			out[i].Frame = out[i].Frame.Clone()
		}
	}
	return out
}

// Columns is LoadAll for one file: a copy of the requested columns of
// path, in request order, with the source bytes the load decoded.
func (c *Cache) Columns(path string, names ...string) (*dataframe.Frame, int64, error) {
	r := c.LoadAll([]Request{{Path: path, Columns: names}})[0]
	return r.Frame, r.BytesRead, r.Err
}

// loadAll resolves every request through the cache for lease l's reader,
// fanning misses out over the worker pool, so a k-snapshot load decodes
// in parallel.
func (c *Cache) loadAll(reqs []Request, l *Lease) []Result {
	out := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int, req Request) {
			defer func() { <-c.sem; wg.Done() }()
			out[i].Frame, out[i].BytesRead, out[i].Err = c.columns(req.Path, l, req.Columns)
		}(i, req)
	}
	wg.Wait()
	return out
}
