package stage

import "sync"

// readerEpochs tracks the readers pinned by Cache.Pin, so a block mapping
// the disk tier drops while some of them run can be released a second
// time once they are done.
//
// The disk tier releases a dropped mapping's pages at once. A reader that
// still holds a vector cast from it — an ask that promoted the column
// before the drop — faults some of those pages back in, and nothing would
// release them again. So a drop that happens while readers are pinned is
// queued with the current epoch, and the epoch advances: readers pinned
// from then on pin a later one. When the last reader pinned at or before
// the drop unpins, the mapping is released again. Releasing is always
// safe (see diskTier), so the epochs only decide when it is worth doing.
type readerEpochs struct {
	mu       sync.Mutex
	epoch    uint64         // the epoch new pins join
	pins     map[uint64]int // active pins per epoch
	deferred []deferredRelease
}

// deferredRelease is a dropped mapping awaiting its second release.
type deferredRelease struct {
	region []byte
	epoch  uint64 // the epoch the mapping was dropped in
}

func newReaderEpochs() *readerEpochs {
	return &readerEpochs{pins: map[uint64]int{}}
}

// pin registers a reader in the current epoch and returns its unpin func,
// which is idempotent.
func (re *readerEpochs) pin() func() {
	re.mu.Lock()
	ep := re.epoch
	re.pins[ep]++
	re.mu.Unlock()
	var once sync.Once
	return func() { once.Do(func() { re.unpin(ep) }) }
}

// unpin retires one reader of epoch ep and releases every deferred mapping
// no pinned reader can still need.
func (re *readerEpochs) unpin(ep uint64) {
	re.mu.Lock()
	if re.pins[ep]--; re.pins[ep] <= 0 {
		delete(re.pins, ep)
	}
	var due [][]byte
	if len(re.deferred) > 0 {
		oldest, found := uint64(0), false
		for e := range re.pins {
			if !found || e < oldest {
				oldest, found = e, true
			}
		}
		n := 0
		for n < len(re.deferred) && (!found || re.deferred[n].epoch < oldest) {
			due = append(due, re.deferred[n].region)
			n++
		}
		re.deferred = append(re.deferred[:0], re.deferred[n:]...)
	}
	re.mu.Unlock()
	for _, region := range due {
		releaseMapping(region)
	}
}

// dropped records a mapping the disk tier has just released. With readers
// pinned, it is queued for a second release and the epoch advances.
// Called under the tier's lock; it never releases anything itself.
func (re *readerEpochs) dropped(region []byte) {
	re.mu.Lock()
	if len(re.pins) > 0 {
		re.deferred = append(re.deferred, deferredRelease{region: region, epoch: re.epoch})
		re.epoch++
	}
	re.mu.Unlock()
}

// Pin registers the caller as a reader of the cache's vectors until the
// returned func is called (calling it again does nothing). A workflow pins
// for its whole run: a disk-tier block mapping dropped while it is pinned
// is released once more after it, and every other reader pinned at or
// before the drop, has unpinned, which hands back the pages those readers
// faulted in through vectors they already held. Pinning never delays a
// drop, and an unpinned reader stays correct: it only keeps the pages it
// re-faults resident until a later release.
func (c *Cache) Pin() (unpin func()) {
	return c.readers.pin()
}
