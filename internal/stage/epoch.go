package stage

import (
	"sync"

	"infera/internal/dataframe"
)

// readerEpochs tracks the readers pinned by Cache.Pin, so that what a
// reader may still see outlives the last of them. A buffer the memory tier
// retires (budget eviction, invalidation, replacement, or served uncached
// because it exceeds the budget) is reused or unmapped once it is handed
// back, so it must not be handed back while a reader can still see it.
// This is the one lifetime rule of every column buffer the cache owns: a
// free-list slab goes back to the free list, and the entry's reference to
// a disk-tier mapping is dropped, the last reference unmapping it.
//
// Every pin joins the current epoch. Every reader holds a lease, and the
// cache records the newest epoch of the leases it served each vector to
// (Cache.claim), so a retired buffer is queued with that epoch and the
// epoch advances past it: readers pinned from then on pin a later one.
// When the last reader pinned at or before the item's epoch unpins, the
// item is due; with no such reader pinned it is due at once. It waits for
// every reader that saw it, and for no reader pinned after them.
type readerEpochs struct {
	mu       sync.Mutex
	epoch    uint64         // the epoch new pins join
	pins     map[uint64]int // active pins per epoch
	deferred []deferred
	// free gives the retired slabs back once they are due.
	free *recycler
}

// deferred is what a retired memory-tier entry owned — its free-list
// buffer, its mapping reference, or both — awaiting its hand-back.
type deferred struct {
	buf   *slab
	m     *mapping
	epoch uint64 // no reader pinned after it can hold the item
}

func newReaderEpochs(free *recycler) *readerEpochs {
	return &readerEpochs{pins: map[uint64]int{}, free: free}
}

// pin registers a reader in the current epoch and returns the epoch and
// the reader's unpin func, which is idempotent.
func (re *readerEpochs) pin() (uint64, func()) {
	re.mu.Lock()
	ep := re.epoch
	re.pins[ep]++
	re.mu.Unlock()
	var once sync.Once
	return ep, func() { once.Do(func() { re.unpin(ep) }) }
}

// oldestLocked returns the earliest epoch with a reader pinned, with ok
// false when none is. Caller holds re.mu.
func (re *readerEpochs) oldestLocked() (oldest uint64, ok bool) {
	for e := range re.pins {
		if !ok || e < oldest {
			oldest, ok = e, true
		}
	}
	return oldest, ok
}

// unpin retires one reader of epoch ep and hands on every deferred item no
// pinned reader can still need.
func (re *readerEpochs) unpin(ep uint64) {
	re.mu.Lock()
	if re.pins[ep]--; re.pins[ep] <= 0 {
		delete(re.pins, ep)
	}
	var due []deferred
	if len(re.deferred) > 0 {
		oldest, found := re.oldestLocked()
		kept := re.deferred[:0]
		for _, d := range re.deferred {
			if found && d.epoch >= oldest {
				kept = append(kept, d)
			} else {
				due = append(due, d)
			}
		}
		clear(re.deferred[len(kept):]) // drop the handed-on items' references
		re.deferred = kept
	}
	re.mu.Unlock()
	for _, d := range due {
		re.handBack(d)
	}
}

// handBack gives d's buffer to the free list (where test binaries poison
// it) and drops its mapping reference.
func (re *readerEpochs) handBack(d deferred) {
	re.free.put(d.buf)
	d.m.unref()
}

// deferLocked queues d, which no reader pinned after d.epoch can hold,
// and advances the epoch past it. It reports false, queuing nothing, when
// no reader pinned at or before d.epoch is left. Caller holds re.mu.
func (re *readerEpochs) deferLocked(d deferred) bool {
	if oldest, ok := re.oldestLocked(); !ok || oldest > d.epoch {
		return false
	}
	re.deferred = append(re.deferred, d)
	re.epoch = max(re.epoch, d.epoch+1)
	return true
}

// retired hands back d, which the memory tier no longer uses, once every
// reader pinned at or before d.epoch — the newest epoch of a reader its
// vector was served to — has unpinned; at once if none is left.
func (re *readerEpochs) retired(d deferred) {
	re.mu.Lock()
	queued := re.deferLocked(d)
	re.mu.Unlock()
	if !queued {
		re.handBack(d)
	}
}

// Lease is one reader's pin on the cache (Pin). Column vectors served
// through the lease (Columns, LoadAll) and the vectors it hands out
// (Floats, Ints) stay valid, and unchanged, until Unpin; after that the
// cache may reuse their buffers for other reads, or unmap them. Nothing a
// lease served may be read after its Unpin, so a caller that keeps data
// past it copies it first.
type Lease struct {
	c     *Cache
	epoch uint64 // the reader epoch the lease pinned
	unpin func()

	mu    sync.Mutex
	owned []*slab // vectors from Floats/Ints, freed at Unpin
	done  bool
}

// Pin registers the caller as a reader of the cache's vectors until the
// lease's Unpin; every read of the cache goes through a lease. A workflow
// pins for its whole run, a tool for one call. While any lease pinned at
// or before it is held, a column the memory tier retires (budget eviction,
// invalidation, replacement) keeps its buffer: a decoded vector's does not
// go back to the free list, and a promoted vector's mapping is not
// unmapped. Pinning never delays an eviction or a drop.
func (c *Cache) Pin() *Lease {
	l := &Lease{c: c}
	l.epoch, l.unpin = c.readers.pin()
	return l
}

// Unpin ends the lease; calling it again does nothing. The lease's own
// vectors go back to the free list, and every buffer retired while it was
// pinned goes back once no earlier lease still holds it either.
func (l *Lease) Unpin() {
	l.mu.Lock()
	owned, done := l.owned, l.done
	l.owned, l.done = nil, true
	l.mu.Unlock()
	if done {
		return
	}
	l.unpin()
	for _, b := range owned {
		l.c.free.put(b)
	}
}

// Columns returns the requested columns of the gio file at path as a
// fresh frame shell, in request order, over cached immutable vectors that
// stay valid until Unpin. Each absent column is decoded at most once per
// file generation. bytesRead is the data-block bytes this call read from
// the source file: the block sizes of the columns it decoded, 0 when fully
// served from the tiers.
func (l *Lease) Columns(path string, names ...string) (f *dataframe.Frame, bytesRead int64, err error) {
	return l.c.columns(path, l, names)
}

// LoadAll is Columns for a list of requests, fanned out over the cache's
// worker pool. Results align with reqs, each with its own error.
func (l *Lease) LoadAll(reqs []Request) []Result {
	return l.c.loadAll(reqs, l)
}

// Floats returns an n-value vector with any contents, owned by the lease:
// it may be filled and read until Unpin, which takes it back.
func (l *Lease) Floats(n int) []float64 {
	v, s := takeFloats(n)
	l.own(s)
	return v
}

// Ints is Floats for int64 vectors.
func (l *Lease) Ints(n int) []int64 {
	v, s := takeInts(n)
	l.own(s)
	return v
}

func (l *Lease) own(s *slab) {
	if s == nil {
		return
	}
	l.mu.Lock()
	l.owned = append(l.owned, s)
	l.mu.Unlock()
}
