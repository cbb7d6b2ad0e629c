package stage

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"infera/internal/telemetry"
)

// Column buffers and their free list.
//
// A numeric column decoded for a lease into a full memory tier is read
// into a buffer taken from a process-wide free list of size-classed
// buffers, and the buffer goes back to the list once no reader can see it
// (see Cache.decode, Cache.columns and readerEpochs). The buffers are
// anonymous mappings outside the Go heap. A free list on the heap would be
// live heap, and the collector sets its next goal at twice the live heap,
// so every pooled byte would cost two of peak resident memory (measured on
// cold_scan: 65 MB live instead of at most 33, peak RSS 144 MB instead of
// 80). Outside the heap a buffer costs its own pages and nothing more.
//
// Retention is bounded by demand, with no knob: after every garbage
// collection the buffers no read took for idleGCs collections are
// unmapped, so the mappings follow the most buffers recently in use at
// once. A reader that breaks the lease contract may read a buffer
// another read reuses, or one that is unmapped and faults. A buffer whose
// owner is dropped without giving it back (a cache nobody references any
// more) is returned by its finalizer.
//
// Buffers come in size classes, classSteps between consecutive powers of
// two, so a buffer of a vector's own class is at most n/classSteps
// (12.5 %) larger than its n values; when the class has none free, one of
// the next class up serves (see take). Float and Int vectors share them:
// the memory is untyped. Vectors shorter
// than minPooled values are cheap heap allocations and are not pooled, nor
// are those longer than maxPooled. Without anonymous mappings (off unix)
// every vector is a heap vector and nothing is recycled.
const (
	classSteps     = 8
	classStepShift = 3 // log2(classSteps)
	minPooledShift = 10
	maxPooledShift = 26 // 512 MB of values: within a 32-bit int
	minPooled      = 1 << minPooledShift
	maxPooled      = 1 << maxPooledShift
	numClasses     = (maxPooledShift-minPooledShift)*classSteps + 1
)

// idleGCs is how many collections a free buffer may go untaken before it
// is unmapped. A small heap collects every few tens of milliseconds, so
// two collections (sync.Pool's horizon) would unmap buffers between two
// bursts of one workload and map and fault them in again: on
// cold_scan 2 cost about 400 page faults per ask, 32 about 30, as many as
// never trimming.
const idleGCs = 32

// classOf returns the size class of an n-value vector and the capacity of
// its class in values, with ok false when n is not pooled.
func classOf(n int) (class, size int, ok bool) {
	if n < minPooled || n > maxPooled {
		return 0, 0, false
	}
	k := bits.Len(uint(n)) - 1 // 1<<k <= n < 1<<(k+1)
	shift := k - classStepShift
	j := (n - 1<<k + 1<<shift - 1) >> shift // ceil((n - 1<<k) / step), 0..classSteps
	return (k-minPooledShift)*classSteps + j, 1<<k + j<<shift, true
}

// slab is one free-list buffer: its class's capacity of 8-byte values in
// an anonymous mapping. A nil *slab stands for no buffer (a heap vector).
type slab struct {
	mem   []byte
	class int
	given uint64 // the collection count when it was last given back
}

// bytes is the buffer's size at its class capacity, 0 for no buffer.
func (s *slab) bytes() int64 {
	if s == nil {
		return 0
	}
	return int64(len(s.mem))
}

func (s *slab) floats(n int) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(s.mem))), n)
}

func (s *slab) ints(n int) []int64 {
	return unsafe.Slice((*int64)(unsafe.Pointer(unsafe.SliceData(s.mem))), n)
}

// takeFloats returns an n-value vector with any contents, clipped to n,
// and the free-list buffer it lives in (nil for a heap vector).
func takeFloats(n int) ([]float64, *slab) {
	if s := buffers.take(n); s != nil {
		return s.floats(n), s
	}
	return make([]float64, n), nil
}

// takeInts is takeFloats for int64 vectors.
func takeInts(n int) ([]int64, *slab) {
	if s := buffers.take(n); s != nil {
		return s.ints(n), s
	}
	return make([]int64, n), nil
}

// poisonBits is the NaN payload every buffer entering the free list is
// overwritten with in test binaries, so a reader still holding a recycled
// vector reads values no answer or digest can match.
const poisonBits = 0x7ff4dead0badf00d

// poison is on in test binaries only.
var poison = testing.Testing()

// arena is the free list: per class, a stack of buffers, the most recently
// given back on top.
type arena struct {
	mu   sync.Mutex
	free [numClasses][]*slab
	gcs  uint64 // collections seen by trim
	// mapped counts the bytes of buffers mapped and not unmapped.
	mapped  atomic.Int64
	trimmer sync.Once
}

// buffers is the process-wide free list every cache draws from.
var buffers arena

// take returns a free buffer for n values, mapping a new one of n's class
// when the list has none; nil when n is not pooled or the mapping fails.
// A buffer of the next class up serves too: vectors whose lengths
// straddle a class boundary (the same column at two timesteps) then share
// one set of buffers instead of keeping two resident.
func (a *arena) take(n int) *slab {
	class, size, ok := classOf(n)
	if !ok {
		return nil
	}
	a.mu.Lock()
	for c := class; c <= class+1 && c < numClasses; c++ {
		if st := a.free[c]; len(st) > 0 {
			s := st[len(st)-1]
			st[len(st)-1] = nil
			a.free[c] = st[:len(st)-1]
			a.mu.Unlock()
			return s
		}
	}
	a.mu.Unlock()
	mem, err := mapAnon(8 * size)
	if err != nil {
		return nil
	}
	a.mapped.Add(int64(len(mem)))
	a.trimmer.Do(a.trimAfterEveryGC)
	s := &slab{mem: mem, class: class}
	runtime.SetFinalizer(s, reclaim)
	return s
}

// give puts s on its class's stack. The caller must be s's last user.
func (a *arena) give(s *slab) {
	if poison {
		words := s.ints(len(s.mem) / 8)
		for i := range words {
			words[i] = poisonBits
		}
	}
	a.mu.Lock()
	s.given = a.gcs
	a.free[s.class] = append(a.free[s.class], s)
	a.mu.Unlock()
}

// reclaim is every buffer's finalizer: a buffer that became unreachable
// while out of the list — its owner was dropped without giving it back —
// rejoins it, armed again for its next trip out.
func reclaim(s *slab) {
	runtime.SetFinalizer(s, reclaim)
	buffers.give(s)
}

// gcTick is a heap object whose finalizer runs once per collection.
type gcTick struct{ _ *byte }

// trimAfterEveryGC arranges for trim to run after every collection.
func (a *arena) trimAfterEveryGC() {
	var arm func()
	arm = func() {
		runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
			a.trim()
			arm()
		})
	}
	arm()
}

// trim counts a collection and unmaps the buffers given back idleGCs or
// more collections ago and not taken since — the bottom of each stack —
// taking them off the list. It unmaps under the lock, so no take can hand
// out a buffer being unmapped; each one's finalizer is cleared first, so
// it never rejoins the list.
func (a *arena) trim() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.gcs++
	for c, st := range a.free {
		n := 0
		for ; n < len(st) && a.gcs-st[n].given >= idleGCs; n++ {
			runtime.SetFinalizer(st[n], nil)
			unmap(st[n].mem)
			a.mapped.Add(-int64(len(st[n].mem)))
		}
		if n > 0 {
			rest := copy(st, st[n:])
			clear(st[rest:])
			a.free[c] = st[:rest]
		}
	}
}

// recycler gives one cache's buffers back to the free list and counts
// them (Stats.RecycledBytes, infera_stage_recycled_bytes_total).
type recycler struct {
	recycled atomic.Int64
	ctr      atomic.Pointer[telemetry.Counter]
}

// put gives s back to the free list; nil is no buffer. The caller must be
// s's last user.
func (p *recycler) put(s *slab) {
	if s == nil {
		return
	}
	buffers.give(s)
	p.recycled.Add(s.bytes())
	p.ctr.Load().Add(s.bytes())
}

// loan is one read's gio.Alloc: it takes its vector from the free list and
// remembers the buffer, so whoever ends up owning the vector can give it
// back.
type loan struct{ buf *slab }

func (l *loan) Floats(n int) []float64 {
	v, b := takeFloats(n)
	l.buf = b
	return v
}

func (l *loan) Ints(n int) []int64 {
	v, b := takeInts(n)
	l.buf = b
	return v
}
