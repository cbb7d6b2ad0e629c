// Package stage implements a process-wide, byte-budgeted staging cache of
// decoded gio column blocks, shared by every reader of raw ensemble
// snapshots (the agent data loader, the domain tools, the serving layer).
//
// Motivation: the two-stage workflow stages raw (sim, step) catalog slices
// into a per-session analytical database before any SQL runs. Under a
// concurrent serving layer, N sessions touching overlapping slices would
// each re-open, re-decode and re-append the same files from scratch, so
// staging dominates every cache-miss request. This cache makes the decode
// step shared — and shared at the finest useful grain: N concurrent
// sessions over overlapping ensembles cost exactly one decode per distinct
// (file, column).
//
// # Keys and invalidation
//
// An entry is one column block, keyed by (absolute path, column name); its
// validity is stamped with the file's (mtime, size) at decode time.
// Per-column keying is what lets overlapping-but-unequal requests share:
// a session asking for {tag, mass} and another asking for {mass, count}
// decode mass once between them, where a column-set key would have decoded
// the whole of both sets. Columns assembles the requested frame from
// whichever columns are resident and decodes only the absent ones — one
// partial read per absent column, never a whole-file read (gio.ReadColumn).
//
// Lookups validate entries against the file's current (mtime, size), so
// rewriting or regenerating a file invalidates its columns on the next
// access without any watcher — the same stat-based freshness rule the
// service's ensemble fingerprint uses. The stat itself is memoized for a
// short TTL (SetStatTTL, default DefaultStatTTL), so a hot path resolving
// many columns of one file pays one syscall per TTL window instead of one
// per block; like the fingerprint memo, the TTL bounds how long a changed
// file can keep serving its previous generation.
//
// # Budget and eviction
//
// The cache holds at most BudgetBytes() of decoded blocks (measured as the
// encoded block bytes read from disk, a close proxy for resident column
// size). Accounting and LRU eviction are per column: inserting past the
// budget evicts least-recently-used column blocks, so one giant unused
// column can be displaced while its siblings stay hot. A single column
// that alone exceeds the budget is served uncached without disturbing
// resident entries. EvictedBytes is surfaced on the service's /metrics
// endpoint.
//
// # Sharing and immutability
//
// Cached column vectors are immutable and marked shared
// (dataframe.Column.MarkShared), so in-place growth anywhere downstream
// copies first (copy-on-write). Columns returns a fresh Frame shell per
// call that shares the cached vectors; callers may add columns (e.g. the
// loader's injected sim/step constants) but must never mutate the returned
// column data in place. Frame verbs used downstream (Gather, SortBy,
// Select, Concat) all allocate fresh vectors or honor the shared mark, so
// staged frames flow into sqldb.BulkAppend by reference.
//
// # Tiers
//
// An optional disk tier (SetDiskTier, -stage-dir) persists decoded blocks
// under the memory LRU: decodes write through to a compact block store
// (disk.go), memory eviction demotes instead of discards, and a memory
// miss promotes from disk — an mmap cast for numeric columns — without
// touching the gio decoder, so hot columns survive restarts and the
// memory budget stops being the residency ceiling. The pages of every
// mapping the tier drops or retires are released, so churn in the block
// store does not accumulate resident memory. With a tier attached,
// sibling columns and hinted next-step files are opportunistically
// prefetched while a source file is open (prefetch.go).
//
// # Freshness
//
// With a filesystem watch active (SetWatch, inotify on Linux), each
// file's stamp is pinned after one stat and every later freshness check
// is served from the pin with zero syscalls; a watch event unpins and
// invalidates exactly the touched file's entries in both tiers
// (watch.go). Without a watch, the stat-TTL memo below applies.
//
// # Concurrency
//
// All methods are safe for concurrent use. Concurrent misses single-flight
// per column: the first request to want an absent column decodes it, the
// rest wait and share the result — two sessions requesting different
// subsets of one file lead disjoint column flights and wait on each
// other's overlap. LoadAll fans a request list out over a bounded worker
// pool, so a k-snapshot load decodes in parallel instead of sequentially,
// and a multi-column miss decodes its absent blocks concurrently.
package stage

import (
	"container/list"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/telemetry"
)

// DefaultBudgetBytes is the Shared cache's decoded-block budget.
const DefaultBudgetBytes = 256 << 20

// DefaultStatTTL is the freshness-check memoization window: lookups within
// it reuse the file's last observed (mtime, size) instead of re-statting.
// It bounds the staleness window after an in-place file rewrite, so it
// stays deliberately short — the point is only to take the per-block
// syscall off hot lookups, not to stop re-validating.
const DefaultStatTTL = 100 * time.Millisecond

// Stats is a point-in-time snapshot of the cache counters, surfaced on the
// service's /metrics endpoint. Hit/miss accounting is per column block —
// the cache's unit of residency — so one Columns call over k columns moves
// the counters by k.
type Stats struct {
	// Hits counts column lookups served from resident blocks, including
	// requests that waited on another request's in-flight decode
	// (single-flight followers).
	Hits int64 `json:"hits"`
	// Misses counts column blocks that had to decode (single-flight
	// leaders).
	Misses int64 `json:"misses"`
	// PartialHits counts Columns calls that found some of their columns
	// resident (or in flight) and decoded only the rest — the
	// overlapping-column-set sharing that per-column keying buys.
	PartialHits int64 `json:"partial_hits"`
	// Opens counts underlying gio file opens — one per miss batch, however
	// many absent columns it decodes.
	Opens int64 `json:"opens"`
	// BytesDecoded is the cumulative encoded block bytes read from disk by
	// decodes — the I/O-volume measure benchmarks assert on.
	BytesDecoded int64 `json:"bytes_decoded"`
	// StatSaves counts freshness checks served from the stat memo instead
	// of a syscall.
	StatSaves int64 `json:"stat_saves"`
	// Invalidations counts column blocks dropped because the backing
	// file's mtime or size changed.
	Invalidations int64 `json:"invalidations"`
	// Evictions / EvictedBytes count blocks pushed out by the byte budget.
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"`
	// UsedBytes / BudgetBytes describe the current residency.
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	// Entries is the resident column-block count; Files the distinct
	// backing files they span.
	Entries int `json:"entries"`
	Files   int `json:"files"`

	// StatCalls counts real stat syscalls performed by freshness checks —
	// the denominator (with StatSaves) behind the watch mode's
	// zero-syscall claim.
	StatCalls int64 `json:"stat_calls"`

	// DiskHits counts memory misses served by promoting a block from the
	// disk tier instead of decoding; PromotedBytes is their cumulative
	// payload volume (tier I/O, deliberately not part of bytes_decoded —
	// that counter keeps measuring source-file decode I/O only).
	DiskHits      int64 `json:"disk_hits"`
	PromotedBytes int64 `json:"promoted_bytes"`
	// DiskPromoteFailures counts promotions that found a resident block
	// unusable (truncated, corrupt, raced with eviction); each evicted
	// exactly the bad block and fell through to the decoder.
	DiskPromoteFailures int64 `json:"disk_promote_failures"`
	// Demotions / DemotedBytes count memory-budget evictions that kept
	// (or wrote) a disk-tier copy instead of discarding the block.
	Demotions    int64 `json:"demotions"`
	DemotedBytes int64 `json:"demoted_bytes"`
	// DiskWrites counts block files written (write-through, demotion and
	// prefetch alike); the remaining disk_* fields mirror the memory
	// tier's accounting for the block store.
	DiskWrites        int64 `json:"disk_writes"`
	DiskEvictions     int64 `json:"disk_evictions"`
	DiskEvictedBytes  int64 `json:"disk_evicted_bytes"`
	DiskInvalidations int64 `json:"disk_invalidations"`
	DiskUsedBytes     int64 `json:"disk_used_bytes"`
	DiskBudgetBytes   int64 `json:"disk_budget_bytes"`
	DiskEntries       int   `json:"disk_entries"`
	// DiskMappings counts block-file mappings the disk tier has created
	// and not unmapped, including those of retired tiers. Releasing a
	// mapping returns its pages but keeps the mapping (one VMA each), so
	// this grows with every promoted block generation until process exit.
	// DiskReleasedBytes counts the mapping bytes whose pages were handed
	// back to the kernel when the tier dropped or retired them (Linux
	// only; 0 elsewhere).
	DiskMappings      int64 `json:"disk_mappings"`
	DiskReleasedBytes int64 `json:"disk_released_bytes"`

	// PrefetchIssued counts blocks pulled into the disk tier
	// speculatively; Used counts those later promoted at least once,
	// Wasted those evicted or invalidated untouched.
	PrefetchIssued int64 `json:"prefetch_issued"`
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

type entry struct {
	key   key
	stamp stamp
	// col is the decoded immutable (shared-marked) column vector.
	col   *dataframe.Column
	bytes int64
	// persisted marks the block as already (or about to be) resident in
	// the disk tier, so eviction-time demotion can skip the write.
	persisted bool
}

type flight struct {
	done chan struct{}
	e    *entry
	err  error
}

// statEntry is one memoized freshness check.
type statEntry struct {
	st stamp
	at time.Time
}

// Cache is the staging cache. Create with New or use the process-wide
// Shared instance.
type Cache struct {
	workers int
	sem     chan struct{}

	mu       sync.Mutex
	budget   int64
	statTTL  time.Duration
	ll       *list.List // front = most recently used
	items    map[key]*list.Element
	inflight map[key]*flight
	statMemo map[string]statEntry
	// paths refcounts resident blocks per file for the Files gauge.
	paths map[string]int
	// stats holds the cache's own counters; its DiskMappings and
	// DiskReleasedBytes carry the final totals of retired disk tiers.
	stats Stats

	// disk is the optional persistent tier (SetDiskTier); nil = memory only.
	disk *diskTier
	// prefetchOn gates sibling/next-step prefetching; prefetchBusy
	// dedupes in-flight passes per source file.
	prefetchOn    bool
	prefetchBusy  map[string]bool
	neighborHints map[string]func(string) []string

	// watch-mode freshness state: pinned holds the stat-free stamp per
	// file, pinEpoch fences a pin against an event that raced the stat
	// that produced it (see statPath).
	watch    watcher
	watchOn  bool
	pinned   map[string]stamp
	pinEpoch map[string]uint64

	// bg is the bounded background pool shared by write-through persists
	// and prefetch passes; created in New, workers started lazily by the
	// first SetDiskTier. bgWG tracks queued-but-unfinished tasks for
	// WaitPending.
	bg        chan func()
	bgOnce    sync.Once
	bgWG      sync.WaitGroup
	bgStarted atomic.Bool

	// Pre-resolved telemetry instruments (SetMetrics); nil records nothing.
	// Pre-resolving keeps the decode path free of registry lookups.
	decodeSeconds  *telemetry.Histogram
	decodedBytes   *telemetry.Counter
	tierHitsMem    *telemetry.Counter
	tierHitsDisk   *telemetry.Counter
	promotionsCtr  *telemetry.Counter
	demotionsCtr   *telemetry.Counter
	watchEventsCtr *telemetry.Counter
	overflowsCtr   *telemetry.Counter
	statSavesCtr   *telemetry.Counter
	statCallsCtr   *telemetry.Counter
	// tierInst are the instruments handed to every attached disk tier.
	tierInst tierInstruments
}

// New returns a cache holding at most budgetBytes of decoded column
// blocks, with loads fanned out over at most workers goroutines (0 picks a
// default of min(8, GOMAXPROCS)). Freshness checks are memoized for
// DefaultStatTTL; adjust with SetStatTTL.
func New(budgetBytes int64, workers int) *Cache {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers > 8 {
			workers = 8
		}
	}
	return &Cache{
		workers:      workers,
		sem:          make(chan struct{}, workers),
		budget:       budgetBytes,
		statTTL:      DefaultStatTTL,
		ll:           list.New(),
		items:        map[key]*list.Element{},
		inflight:     map[key]*flight{},
		statMemo:     map[string]statEntry{},
		paths:        map[string]int{},
		prefetchOn:   true,
		prefetchBusy: map[string]bool{},
		pinned:       map[string]stamp{},
		pinEpoch:     map[string]uint64{},
		bg:           make(chan func(), 256),
	}
}

// SetDiskTier attaches (or, with dir == "", detaches) the persistent
// block store rooted at dir with the given byte budget (<= 0 picks
// DefaultDiskBudgetBytes). Attaching scans resident block files and
// starts the background persist/prefetch pool; blocks persisted by a
// previous process become promotable immediately. Replacing or detaching
// an attached tier retires it: the resident pages of every block mapping
// it holds are released (vectors already promoted from it stay readable)
// and its directory's files stay on disk.
func (c *Cache) SetDiskTier(dir string, budgetBytes int64) error {
	var dt *diskTier
	if dir != "" {
		var err error
		if dt, err = newDiskTier(dir, budgetBytes); err != nil {
			return err
		}
		c.startBG()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if dt != nil {
		dt.setInstruments(c.tierInst)
	}
	c.retireDiskLocked()
	c.disk = dt
	return nil
}

// retireDiskLocked retires the attached disk tier, if any, folding its
// final mapping counters into the cache's own. Caller holds mu.
func (c *Cache) retireDiskLocked() {
	if c.disk == nil {
		return
	}
	mappings, released := c.disk.retire()
	c.stats.DiskMappings += mappings
	c.stats.DiskReleasedBytes += released
	c.disk = nil
}

// SetWatch turns filesystem-watch freshness on or off. While on, files
// are pinned after their first stat and freshness checks cost zero
// syscalls until the watcher reports a change (exact invalidation); the
// stat-TTL memo is bypassed. Turning it off (or a constructor error on
// platforms without a working backend) reverts to TTL mode.
func (c *Cache) SetWatch(on bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if on {
		if c.watch != nil {
			c.watchOn = true
			return nil
		}
		w, err := newWatcher(c.onFileEvent, c.onWatchOverflow)
		if err != nil {
			return err
		}
		c.watch = w
		c.watchOn = true
		return nil
	}
	if c.watch != nil {
		c.watch.close()
		c.watch = nil
	}
	c.watchOn = false
	c.pinned = map[string]stamp{}
	return nil
}

// onFileEvent is the watcher callback: the file changed (or vanished), so
// unpin its stamp and drop its entries from both tiers — the exact,
// event-driven replacement for TTL expiry. An in-flight decode of the old
// generation is harmless: its entries carry the old stamp and fail the
// next lookup's freshness comparison.
func (c *Cache) onFileEvent(path string) {
	c.mu.Lock()
	c.pinEpoch[path]++
	delete(c.pinned, path)
	delete(c.statMemo, path)
	c.stats.WatchEvents++
	c.watchEventsCtr.Inc()
	var doomed []*list.Element
	for k, el := range c.items {
		if k.path == path {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		c.removeLocked(el)
		c.stats.Invalidations++
	}
	dt := c.disk
	c.mu.Unlock()
	if dt != nil {
		dt.invalidatePath(path)
	}
}

// onWatchOverflow is the watcher callback for a lost-events overflow: any
// file may have changed unseen, so every path is unpinned and its epoch
// bumped (refusing pins from stats that raced the overflow). The next
// lookup of each file stats it, and both tiers re-validate their entries
// against that stamp — a conservative full invalidation that keeps
// entries whose file did not change.
func (c *Cache) onWatchOverflow() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for path := range c.pinEpoch {
		c.pinEpoch[path]++
	}
	c.pinned = map[string]stamp{}
	c.stats.WatchOverflows++
	c.overflowsCtr.Inc()
}

// startBG launches the background pool (2 workers — persist and prefetch
// are I/O-bound housekeeping; the point is bounding, not throughput).
func (c *Cache) startBG() {
	c.bgOnce.Do(func() {
		for i := 0; i < 2; i++ {
			go func() {
				for fn := range c.bg {
					fn()
				}
			}()
		}
		c.bgStarted.Store(true)
	})
}

// enqueueBG submits a task to the pool without blocking; a full queue —
// or a pool that was never started because no disk tier is attached —
// drops the task (persist and prefetch are both best-effort). Safe to
// call while holding c.mu.
func (c *Cache) enqueueBG(fn func()) bool {
	if !c.bgStarted.Load() {
		return false
	}
	c.bgWG.Add(1)
	wrapped := func() { defer c.bgWG.Done(); fn() }
	select {
	case c.bg <- wrapped:
		return true
	default:
		c.bgWG.Done()
		return false
	}
}

// WaitPending blocks until every queued background persist/prefetch task
// has finished — how tests and benchmarks make the asynchronous tier
// deterministic before asserting on disk state.
func (c *Cache) WaitPending() { c.bgWG.Wait() }

// Close stops the watcher, drains the background pool and retires the
// disk tier: the resident pages of every block mapping it holds are
// released, while vectors already promoted from it stay readable (their
// pages re-fault from the immutable block files) and the block files stay
// on disk for the next process. The memory tier is left intact. The
// Shared cache is never closed.
func (c *Cache) Close() error {
	c.mu.Lock()
	if c.watch != nil {
		c.watch.close()
		c.watch = nil
	}
	c.watchOn = false
	c.mu.Unlock()
	c.bgWG.Wait()
	c.mu.Lock()
	c.retireDiskLocked()
	c.mu.Unlock()
	return nil
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

// SetStatTTL adjusts the freshness-check memoization window. ttl <= 0
// disables memoization entirely: every lookup stats the file, the
// pre-memoization behavior tests of immediate invalidation rely on.
func (c *Cache) SetStatTTL(ttl time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.statTTL = ttl
	if ttl <= 0 {
		c.statMemo = map[string]statEntry{}
	}
}

// SetMetrics points the cache at a telemetry registry: every decode batch
// observes its wall-clock duration into infera_stage_decode_seconds and
// its block bytes into infera_stage_decoded_bytes_total. A nil registry
// (the default) records nothing. Instruments are resolved once here so
// the decode path stays lookup-free.
func (c *Cache) SetMetrics(r *telemetry.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r == nil {
		c.decodeSeconds, c.decodedBytes = nil, nil
		c.tierHitsMem, c.tierHitsDisk, c.promotionsCtr, c.demotionsCtr = nil, nil, nil, nil
		c.watchEventsCtr, c.overflowsCtr, c.statSavesCtr, c.statCallsCtr = nil, nil, nil, nil
		c.tierInst = tierInstruments{}
		if c.disk != nil {
			c.disk.setInstruments(c.tierInst)
		}
		return
	}
	r.SetHelp("infera_stage_decode_seconds", "Wall-clock duration of one gio column decode batch.")
	r.SetHelp("infera_stage_decoded_bytes_total", "Cumulative encoded block bytes read from disk by stage-cache decodes.")
	r.SetHelp("infera_stage_tier_hits_total", "Column lookups served per cache tier (mem = resident block, disk = promoted from the block store).")
	r.SetHelp("infera_stage_tier_promotions_total", "Blocks promoted disk -> memory without touching the gio decoder.")
	r.SetHelp("infera_stage_tier_demotions_total", "Memory-budget evictions that kept a disk-tier copy instead of discarding.")
	r.SetHelp("infera_stage_prefetch_issued_total", "Blocks speculatively pulled into the disk tier (siblings and next-step files).")
	r.SetHelp("infera_stage_prefetch_total", "Prefetched blocks by outcome: used (promoted at least once) or wasted (evicted untouched).")
	r.SetHelp("infera_stage_watch_events_total", "Filesystem change notifications handled by the stage watcher.")
	r.SetHelp("infera_stage_watch_overflows_total", "Watcher queue overflows; each unpins every file for re-validation by stat.")
	r.SetHelp("infera_stage_stat_saves_total", "Freshness checks served without a stat syscall (watch pin or TTL memo).")
	r.SetHelp("infera_stage_stat_calls_total", "Real stat syscalls performed by freshness checks.")
	r.SetHelp("infera_stage_disk_mappings", "Disk-tier block-file mappings created and not unmapped (one VMA each).")
	r.SetHelp("infera_stage_disk_released_bytes_total", "Disk-tier mapping bytes whose resident pages were handed back to the kernel.")
	c.decodeSeconds = r.Histogram("infera_stage_decode_seconds", nil)
	c.decodedBytes = r.Counter("infera_stage_decoded_bytes_total")
	c.tierHitsMem = r.Counter("infera_stage_tier_hits_total", telemetry.L("tier", "mem"))
	c.tierHitsDisk = r.Counter("infera_stage_tier_hits_total", telemetry.L("tier", "disk"))
	c.promotionsCtr = r.Counter("infera_stage_tier_promotions_total")
	c.demotionsCtr = r.Counter("infera_stage_tier_demotions_total")
	c.watchEventsCtr = r.Counter("infera_stage_watch_events_total")
	c.overflowsCtr = r.Counter("infera_stage_watch_overflows_total")
	c.statSavesCtr = r.Counter("infera_stage_stat_saves_total")
	c.statCallsCtr = r.Counter("infera_stage_stat_calls_total")
	c.tierInst = tierInstruments{
		prefetchIssued: r.Counter("infera_stage_prefetch_issued_total"),
		prefetchUsed:   r.Counter("infera_stage_prefetch_total", telemetry.L("outcome", "used")),
		prefetchWasted: r.Counter("infera_stage_prefetch_total", telemetry.L("outcome", "wasted")),
		mappings:       r.Gauge("infera_stage_disk_mappings"),
		releasedBytes:  r.Counter("infera_stage_disk_released_bytes_total"),
	}
	mappings := c.stats.DiskMappings
	if c.disk != nil {
		c.disk.setInstruments(c.tierInst)
		ds, _ := c.disk.snapshot()
		mappings += ds.mappings
	}
	c.tierInst.mappings.Set(mappings)
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
	if dt := c.disk; dt != nil {
		ds, entries := dt.snapshot()
		st.DiskWrites = ds.writes
		st.DiskEvictions = ds.evictions
		st.DiskEvictedBytes = ds.evictedBytes
		st.DiskInvalidations = ds.invalidations
		st.DiskUsedBytes = ds.usedBytes
		st.DiskBudgetBytes = dt.budgetBytes()
		st.DiskEntries = entries
		st.DiskMappings += ds.mappings
		st.DiskReleasedBytes += ds.releasedBytes
		st.PrefetchIssued = ds.prefetchIssued
		st.PrefetchUsed = ds.prefetchUsed
		st.PrefetchWasted = ds.prefetchWasted
	}
	return st
}

// canonicalCols deduplicates and sorts names into the decode-order list;
// per-column keying makes request order irrelevant by construction.
func canonicalCols(names []string) []string {
	uniq := make([]string, 0, len(names))
	seen := map[string]bool{}
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	return uniq
}

// statPath resolves the file's current identity. In watch mode a pinned
// stamp is served with zero syscalls until a change event unpins it; in
// TTL mode the memo serves lookups within the window. bypass forces a
// real stat (used on generation-mismatch retries, where the cached stamp
// is exactly what must not be trusted).
func (c *Cache) statPath(path string, bypass bool) (stamp, error) {
	c.mu.Lock()
	if !bypass {
		if c.watchOn {
			if st, ok := c.pinned[path]; ok {
				c.stats.StatSaves++
				c.statSavesCtr.Inc()
				c.mu.Unlock()
				return st, nil
			}
		} else if c.statTTL > 0 {
			if e, ok := c.statMemo[path]; ok && time.Since(e.at) < c.statTTL {
				c.stats.StatSaves++
				c.statSavesCtr.Inc()
				c.mu.Unlock()
				return e.st, nil
			}
		}
	}
	watchOn, w := c.watchOn, c.watch
	epoch0 := c.pinEpoch[path]
	if watchOn {
		// Record the path so a watcher overflow, which bumps every known
		// epoch, also fences this stat.
		c.pinEpoch[path] = epoch0
	}
	c.mu.Unlock()
	// Pin protocol: arm the watch BEFORE statting, and pin only if no
	// event arrived in between (epoch fence). Stat-then-watch would lose
	// a change landing in the gap and pin a stale stamp forever; with
	// this order such a change fires an event that bumps the epoch and
	// the pin is refused — the next lookup stats again.
	var watchArmed bool
	if watchOn && w != nil {
		watchArmed = w.add(path) == nil
	}
	st, err := os.Stat(path)
	c.mu.Lock()
	c.stats.StatCalls++
	c.statCallsCtr.Inc()
	if err != nil {
		delete(c.statMemo, path)
		delete(c.pinned, path)
		c.mu.Unlock()
		return stamp{}, err
	}
	now := stamp{mtime: st.ModTime().UnixNano(), size: st.Size()}
	if c.watchOn {
		if watchArmed && c.pinEpoch[path] == epoch0 {
			c.pinned[path] = now
		}
	} else if c.statTTL > 0 {
		c.statMemo[path] = statEntry{st: now, at: time.Now()}
	}
	c.mu.Unlock()
	return now, nil
}

// Columns returns the requested columns of the gio file at path as a fresh
// frame shell over cached immutable vectors, decoding each absent column
// at most once per file generation. bytesRead is the data-block bytes this
// call actually read from disk: the block sizes of the columns it decoded,
// 0 when fully served from cache — so callers' I/O accounting stays
// truthful under sharing. The frame's column order follows the request.
func (c *Cache) Columns(path string, names ...string) (f *dataframe.Frame, bytesRead int64, err error) {
	if len(names) == 0 {
		return nil, 0, fmt.Errorf("stage: no columns requested for %s", path)
	}
	uniq := canonicalCols(names)
	fresh := false
	for {
		// A generation-mismatch retry bypasses the stat memo: the memoized
		// stamp is the thing that just disagreed with reality.
		now, err := c.statPath(path, fresh)
		if err != nil {
			return nil, bytesRead, err
		}
		resolved := make(map[string]*dataframe.Column, len(uniq))
		var (
			missing []string  // columns this call must decode (it leads their flights)
			lead    []*flight // flights registered for missing, aligned by index
			waits   []struct {
				col string
				fl  *flight
			}
		)
		c.mu.Lock()
		hits := 0
		for _, name := range uniq {
			k := key{path: path, col: name}
			if el, ok := c.items[k]; ok {
				e := el.Value.(*entry)
				if e.stamp == now {
					hits++
					c.ll.MoveToFront(el)
					resolved[name] = e.col
					continue
				}
				// The backing file changed since this block was decoded.
				c.removeLocked(el)
				c.stats.Invalidations++
			}
			if fl := c.inflight[k]; fl != nil {
				waits = append(waits, struct {
					col string
					fl  *flight
				}{name, fl})
				continue
			}
			fl := &flight{done: make(chan struct{})}
			c.inflight[k] = fl
			lead = append(lead, fl)
			missing = append(missing, name)
		}
		c.stats.Hits += int64(hits)
		c.tierHitsMem.Add(int64(hits))
		dt := c.disk
		c.mu.Unlock()

		var (
			decoded  []*entry
			fromDisk []bool
		)
		if len(missing) > 0 {
			decoded = make([]*entry, len(missing))
			errs := make([]error, len(missing))
			fromDisk = make([]bool, len(missing))
			// This call leads the flights for every missing column. Try the
			// disk tier first: a promotion serves the block without touching
			// the gio decoder (mmap cast for numeric columns), and a
			// resident-but-unusable block — truncated, corrupt, raced with
			// eviction — evicts exactly that block and falls through to the
			// decoder, mirroring the per-column error attribution below.
			toDecode := make([]int, 0, len(missing))
			var promoted, promoteFails int64
			var promotedBytes int64
			for i, name := range missing {
				if dt == nil {
					toDecode = append(toDecode, i)
					continue
				}
				col, n, ok, perr := dt.promote(key{path: path, col: name}, now)
				if ok {
					decoded[i] = &entry{
						key:       key{path: path, col: name},
						stamp:     now,
						col:       col,
						bytes:     n,
						persisted: true,
					}
					fromDisk[i] = true
					promoted++
					promotedBytes += n
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
			c.tierHitsDisk.Add(promoted)
			c.promotionsCtr.Add(promoted)
			if len(toDecode) > 0 {
				c.stats.Misses += int64(len(toDecode))
				c.stats.Opens++
				if hits > 0 || len(waits) > 0 || promoted > 0 {
					c.stats.PartialHits++
				}
			}
			c.mu.Unlock()
			if len(toDecode) > 0 {
				cols := make([]string, len(toDecode))
				for j, i := range toDecode {
					cols[j] = missing[i]
				}
				dentries, derrs := c.decode(path, cols)
				for j, i := range toDecode {
					decoded[i], errs[i] = dentries[j], derrs[j]
				}
			}
			var firstErr error
			var toPersist []*entry
			c.mu.Lock()
			for i, fl := range lead {
				delete(c.inflight, key{path: path, col: missing[i]})
				// Errors are attributed per column: a bad column name in this
				// request must not poison a concurrent request waiting on a
				// sibling column that decoded fine.
				if errs[i] != nil {
					fl.err = errs[i]
					if firstErr == nil {
						firstErr = errs[i]
					}
					continue
				}
				fl.e = decoded[i]
				// Write a freshly decoded block through to the disk tier
				// before inserting: insertion may evict it from memory
				// immediately (oversized, or budget pressure), and the disk
				// copy is what makes the memory budget a performance knob
				// rather than the residency ceiling.
				if dt != nil && !decoded[i].persisted {
					decoded[i].persisted = true
					toPersist = append(toPersist, decoded[i])
				}
				c.insertLocked(decoded[i])
			}
			c.mu.Unlock()
			for _, e := range toPersist {
				c.persistAsync(dt, e)
			}
			for _, fl := range lead {
				close(fl.done)
			}
			for i, e := range decoded {
				if errs[i] != nil {
					continue
				}
				resolved[missing[i]] = e.col
				// Promoted bytes are tier I/O, not source-file I/O — callers'
				// decode-volume accounting must stay truthful about what was
				// NOT re-read from the source.
				if !fromDisk[i] {
					bytesRead += e.bytes
				}
			}
			if firstErr != nil {
				return nil, bytesRead, firstErr
			}
			if len(toDecode) > 0 {
				// A demand decode just had the file open: pull its sibling
				// columns (and hinted next-step files) into the disk tier in
				// the background.
				c.maybePrefetch(path, uniq, now)
			}
		}

		stale := false
		for _, w := range waits {
			<-w.fl.done
			// The leader may have decoded a different file generation (file
			// replaced mid-flight) or failed.
			if w.fl.err != nil {
				return nil, bytesRead, w.fl.err
			}
			if w.fl.e.stamp != now {
				stale = true
				continue
			}
			resolved[w.col] = w.fl.e.col
			c.mu.Lock()
			c.stats.Hits++
			c.tierHitsMem.Inc()
			c.mu.Unlock()
		}
		// A decode that observed a different identity than our freshness
		// check means the file changed underfoot (or the memo was stale);
		// re-validate everything against a real stat rather than assembling
		// a torn frame from mixed generations. (Promoted entries carry now's
		// stamp by construction; only decoder-sourced entries can disagree.)
		for _, e := range decoded {
			if e != nil && e.stamp != now {
				stale = true
				break
			}
		}
		if stale {
			fresh = true
			continue
		}
		return assemble(resolved, names, bytesRead)
	}
}

// decode opens the file once and reads the absent columns, fanning
// multi-column misses out over per-column goroutines (gio readers support
// concurrent positionless reads). Errors come back aligned per column —
// one request's nonexistent column must not fail siblings that decoded
// fine — with whole-file failures (stat, open) replicated to every
// column. Entries are stamped with the pre-open stat so a mid-decode
// rewrite yields a stale stamp and re-decodes on the next access rather
// than serving torn data.
func (c *Cache) decode(path string, cols []string) ([]*entry, []error) {
	start := time.Now()
	entries := make([]*entry, len(cols))
	errs := make([]error, len(cols))
	failAll := func(err error) ([]*entry, []error) {
		for i := range errs {
			errs[i] = err
		}
		return entries, errs
	}
	st, err := os.Stat(path)
	if err != nil {
		return failAll(err)
	}
	stp := stamp{mtime: st.ModTime().UnixNano(), size: st.Size()}
	r, err := gio.Open(path)
	if err != nil {
		return failAll(err)
	}
	defer r.Close()
	read := func(i int) {
		col, n, rerr := r.ReadColumn(cols[i])
		if rerr != nil {
			errs[i] = rerr
			return
		}
		entries[i] = &entry{
			key:   key{path: path, col: cols[i]},
			stamp: stp,
			col:   col.MarkShared(),
			bytes: n,
		}
	}
	if len(cols) == 1 {
		read(0)
	} else {
		var wg sync.WaitGroup
		for i := range cols {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				read(i)
			}(i)
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
	hist, ctr := c.decodeSeconds, c.decodedBytes
	c.mu.Unlock()
	hist.ObserveDuration(time.Since(start))
	ctr.Add(total)
	// Deliberately no stat-memo refresh here: the caller's statPath already
	// memoized the pre-decode identity, and re-stamping it at post-decode
	// time could both clobber a newer generation another goroutine observed
	// mid-decode and stretch the staleness window past the documented TTL.
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
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	c.paths[e.key.path]++
	c.stats.UsedBytes += e.bytes
	c.evictOverBudgetLocked()
}

func (c *Cache) evictOverBudgetLocked() {
	for c.stats.UsedBytes > c.budget && c.ll.Len() > 0 {
		oldest := c.ll.Back()
		e := oldest.Value.(*entry)
		c.removeLocked(oldest)
		c.stats.Evictions++
		c.stats.EvictedBytes += e.bytes
		// With a disk tier attached, a budget eviction is a demotion: the
		// block stays promotable from the store. Most blocks were already
		// written through at decode time; one that wasn't (write-through
		// dropped on a full queue) is persisted now, best-effort.
		if c.disk != nil {
			c.stats.Demotions++
			c.stats.DemotedBytes += e.bytes
			c.demotionsCtr.Inc()
			if !e.persisted {
				e.persisted = true
				c.persistAsync(c.disk, e)
			}
		}
	}
}

// persistAsync queues one block's write-through to the disk tier. The
// encode (and file write) happen on the background pool, off the decode
// path; the entry's column vector is immutable so capturing it is safe.
func (c *Cache) persistAsync(dt *diskTier, e *entry) {
	k, st, col := e.key, e.stamp, e.col
	c.enqueueBG(func() {
		payload, err := gio.EncodeBlock(col)
		if err != nil {
			return
		}
		dt.put(k, st, col.Kind, col.Len(), payload, false)
	})
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if c.paths[e.key.path]--; c.paths[e.key.path] <= 0 {
		delete(c.paths, e.key.path)
	}
	c.stats.UsedBytes -= e.bytes
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

// LoadAll resolves every request through the cache, fanning misses out
// over the worker pool — the parallel replacement for the loader's
// sequential open→decode→append loop. Results align with reqs; each
// carries its own error so callers keep per-snapshot error context.
func (c *Cache) LoadAll(reqs []Request) []Result {
	out := make([]Result, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		c.sem <- struct{}{}
		go func(i int, req Request) {
			defer func() { <-c.sem; wg.Done() }()
			out[i].Frame, out[i].BytesRead, out[i].Err = c.Columns(req.Path, req.Columns...)
		}(i, req)
	}
	wg.Wait()
	return out
}
