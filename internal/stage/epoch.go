package stage

import "sync"

// readerEpochs tracks the readers pinned by Cache.Pin, so that what a
// reader may still see outlives the last of them: a block mapping the disk
// tier drops is released a second time, and a column buffer the memory
// tier retires joins the free list, only once every reader that could
// hold it is done.
//
// The rule is the same for both. Every pin joins the current epoch. An
// item dropped or retired while readers are pinned is queued with an
// epoch no earlier than that of any reader that could hold it, and the
// epoch advances past it, so readers pinned from then on pin a later one.
// When the last reader pinned at or before the item's epoch unpins, the
// item is due. With no such reader pinned it is due at once.
//
//   - A dropped mapping may be held by any reader pinned at the drop, so
//     it is queued with the current epoch. The disk tier already released
//     it once; a reader still holding a vector cast from it faults some
//     pages back, and the second release hands them back again.
//     Releasing is always safe (see diskTier), so the epochs only decide
//     when it is worth doing.
//   - A retired buffer is reused by the next read that takes it from the
//     free list, so it must not be due while a reader can still see it.
//     The cache only retires buffers no unpinned reader was ever handed,
//     and records the newest epoch of the leases it served each buffer to
//     (Cache.columns), so the buffer is queued with that epoch: it waits
//     for every reader that saw it, and for no reader pinned after them.
type readerEpochs struct {
	mu       sync.Mutex
	epoch    uint64         // the epoch new pins join
	pins     map[uint64]int // active pins per epoch
	deferred []deferred
	// free gives the retired buffers back once they are due.
	free *recycler
}

// deferred is a dropped mapping awaiting its second release, or a retired
// buffer awaiting the free list.
type deferred struct {
	region []byte
	buf    *slab
	epoch  uint64 // no reader pinned after it can hold the item
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
		if d.region != nil {
			releaseMapping(d.region)
		} else {
			re.free.put(d.buf)
		}
	}
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

// dropped records a mapping the disk tier has just released. With readers
// pinned, it is queued for a second release. Called under the tier's lock;
// it never releases anything itself.
func (re *readerEpochs) dropped(region []byte) {
	re.mu.Lock()
	re.deferLocked(deferred{region: region, epoch: re.epoch})
	re.mu.Unlock()
}

// retired hands a buffer the memory tier no longer uses to the free list
// once every reader pinned at or before seen — the newest epoch of a
// reader the buffer was served to — has unpinned; at once if none is
// left.
func (re *readerEpochs) retired(s *slab, seen uint64) {
	re.mu.Lock()
	queued := re.deferLocked(deferred{buf: s, epoch: seen})
	re.mu.Unlock()
	if !queued {
		re.free.put(s)
	}
}

// Lease is one reader's pin on the cache (Pin). Column vectors served
// through the lease (LoadAll) and the vectors it hands out (Floats, Ints)
// stay valid, and unchanged, until Unpin; after that the cache may reuse
// their buffers for other reads. Nothing a lease served may be read after
// its Unpin, so a caller that keeps data past it copies it first.
type Lease struct {
	c     *Cache
	epoch uint64 // the reader epoch the lease pinned
	unpin func()

	mu    sync.Mutex
	owned []*slab // vectors from Floats/Ints, freed at Unpin
	done  bool
}

// Pin registers the caller as a reader of the cache's vectors until the
// lease's Unpin. A workflow pins for its whole run and loads through the
// lease. While any lease pinned at or before it is held:
//
//   - a decoded column buffer the memory tier retires (budget eviction,
//     invalidation, replacement) does not go back to the free list;
//   - a disk-tier block mapping dropped meanwhile is released once more
//     afterwards, handing back the pages those readers faulted in through
//     vectors they already held.
//
// Pinning never delays an eviction or a drop. Vectors served without a
// lease (Cache.Columns, Cache.LoadAll) are never recycled, so a caller
// that does not pin stays correct.
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

// LoadAll is Cache.LoadAll for the lease's reader: the vectors it serves
// are valid until Unpin, and their buffers may be reused after it.
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
