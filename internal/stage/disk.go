// Disk tier: a persistent block store under the in-memory LRU, with its
// own byte budget and LRU sweep.
//
// Each resident entry is one decoded column block in the gio block
// encoding, stored as one record of a segment log (package seglog) under
// the tier's directory: byte for byte what a per-block file held, a
// 64-byte header (magic, kind, row count, source stamp, payload length and
// offset, CRC-32C of the payload), the source path and column name, zero
// padding to an 8-aligned offset, then the payload, whose manifest lines
// are a header and one entry line {"file":"trail.log","bytes":n} naming
// the whole record. A numeric write-through writes its payload straight
// from the cached vector's bytes (gio.VectorBlock); strings and big-endian
// hosts encode through gio.EncodeBlock. A restarted process rebuilds the
// index from the manifests and one header read per record, in LRU order
// by header time. Per-block files (*.blk) of older tiers are deleted at
// attach; they decode again.
//
// Promotion. Float and Int payloads are stored 8-byte little-endian, the
// in-memory layout on little-endian hosts (gio.NativeLayout), so promotion
// checks the payload's CRC-32C, maps the record from its page floor and
// casts the payload into the column vector (gio.CastBlock): no copy, no
// per-element decode. Strings and other hosts take a CRC-checked copy
// decode (gio.DecodeBlock). A cut or corrupt record fails header, size or
// CRC checks before any cast; the failed promotion evicts exactly that
// block and falls through to the decoder, whose write-through stores it
// whole again.
//
// Removal. A block that leaves the index is tombstoned at once, so no
// later scan indexes it. Its range is given back (seglog.Log.Free) when
// the last reference to its mapping drops, or at once if it has none: a
// hole punched under a live mapping would read zeros. Mappings are indexed
// per process by record (mapped), not per tier, so a tier attached to a
// dir after another (SetDiskTier again, or a second cache) defers the free
// of a record the first one mapped. A stage dir belongs to one process:
// attaching it holds it (seglog.Hold) until the process exits.
//
// Mapping lifetime. A promoted vector aliases the mapping it was cast
// from, which is refcounted: the index entry holds one reference, and
// each promotion cast from it gives one to its memory-tier entry and one
// to its column. The tier drops its reference when it stops indexing the
// block; a memory entry's is dropped by reader epoch (epoch.go); the
// column's by its finalizer, so a frame kept past its lease reads the
// block instead of faulting.
package stage

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/seglog"
)

// DefaultDiskBudgetBytes is the disk tier's block-store budget when a
// stage dir is attached without an explicit budget.
const DefaultDiskBudgetBytes = 1 << 30

// blkMagic starts every block record; the trailing byte versions the
// layout.
var blkMagic = [8]byte{'I', 'S', 'T', 'B', '\n', 0, 0, 1}

// blkHeaderSize is the fixed header prefix of every block record; the
// source path, column name and padding to the 8-aligned payload follow.
const blkHeaderSize = 64

var blkCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// blkHeader is the decoded fixed header of one block record.
type blkHeader struct {
	kind       dataframe.Kind
	rows       int64
	srcMtimeNS int64
	srcSize    int64
	payloadLen int64
	payloadOff int64
	crc        uint32
	pathLen    int
	colLen     int
}

func encodeBlkHeader(h blkHeader) []byte {
	b := make([]byte, blkHeaderSize)
	copy(b, blkMagic[:])
	binary.LittleEndian.PutUint32(b[8:], uint32(h.kind))
	binary.LittleEndian.PutUint32(b[12:], uint32(h.pathLen))
	binary.LittleEndian.PutUint32(b[16:], uint32(h.colLen))
	binary.LittleEndian.PutUint32(b[20:], h.crc)
	binary.LittleEndian.PutUint64(b[24:], uint64(h.rows))
	binary.LittleEndian.PutUint64(b[32:], uint64(h.srcMtimeNS))
	binary.LittleEndian.PutUint64(b[40:], uint64(h.srcSize))
	binary.LittleEndian.PutUint64(b[48:], uint64(h.payloadLen))
	binary.LittleEndian.PutUint64(b[56:], uint64(h.payloadOff))
	return b
}

func decodeBlkHeader(b []byte) (blkHeader, error) {
	if len(b) < blkHeaderSize {
		return blkHeader{}, fmt.Errorf("stage: block header truncated (%d bytes)", len(b))
	}
	if [8]byte(b[:8]) != blkMagic {
		return blkHeader{}, fmt.Errorf("stage: bad block magic")
	}
	h := blkHeader{
		kind:       dataframe.Kind(binary.LittleEndian.Uint32(b[8:])),
		pathLen:    int(binary.LittleEndian.Uint32(b[12:])),
		colLen:     int(binary.LittleEndian.Uint32(b[16:])),
		crc:        binary.LittleEndian.Uint32(b[20:]),
		rows:       int64(binary.LittleEndian.Uint64(b[24:])),
		srcMtimeNS: int64(binary.LittleEndian.Uint64(b[32:])),
		srcSize:    int64(binary.LittleEndian.Uint64(b[40:])),
		payloadLen: int64(binary.LittleEndian.Uint64(b[48:])),
		payloadOff: int64(binary.LittleEndian.Uint64(b[56:])),
	}
	if h.rows < 0 || h.payloadLen < 0 || h.pathLen < 0 || h.colLen < 0 ||
		h.pathLen > 1<<20 || h.colLen > 1<<20 ||
		h.payloadOff != align8(int64(blkHeaderSize+h.pathLen+h.colLen)) ||
		// payloadOff+payloadLen must not overflow: every size check adds them.
		h.payloadLen > math.MaxInt64-h.payloadOff {
		return blkHeader{}, fmt.Errorf("stage: block header fields out of range")
	}
	return h, nil
}

func align8(n int64) int64 { return (n + 7) &^ 7 }

// diskEntry is one resident block in the tier's index: the record at
// base of seg's log, and m, its mapping once a promotion made one.
type diskEntry struct {
	key        key
	stamp      stamp
	kind       dataframe.Kind
	rows       int64
	bytes      int64 // payload length — the budget accounting unit
	seg        *seglog.Segment
	base       int64
	m          *mapping
	payloadOff int64
}

// at names e's record.
func (e *diskEntry) at() recordAt { return recordAt{e.seg.Path(), e.base} }

// recordAt names a record by its segment log's path and its base.
type recordAt struct {
	log  string
	base int64
}

// mapped indexes the live mapping of every record the process has
// mapped, whichever tier mapped it; its lock guards each mapping's frees.
var mapped = struct {
	sync.Mutex
	m map[recordAt]*mapping
}{m: map[recordAt]*mapping{}}

// mapping is one record's promotion mmap, from the record's page floor to
// its payload's end, refcounted (see Mapping lifetime); the last holder
// unmaps it, then runs the frees of the tiers that dropped the record.
type mapping struct {
	region []byte
	at     recordAt
	refs   atomic.Int64
	live   *atomic.Int64 // the live mapping count of the cache that mapped it
	frees  []func()
}

// mapRecord returns the record's live mapping with a reference for the
// caller, unmapping region; with none, region (unless nil) becomes it.
func mapRecord(at recordAt, region []byte, live *atomic.Int64) *mapping {
	mapped.Lock()
	defer mapped.Unlock()
	if m := mapped.m[at]; m != nil {
		for r := m.refs.Load(); r > 0; r = m.refs.Load() {
			if m.refs.CompareAndSwap(r, r+1) {
				unmap(region)
				return m
			}
		}
	}
	if region == nil {
		return nil
	}
	m := &mapping{region: region, at: at, live: live}
	m.refs.Store(1)
	live.Add(1)
	mapped.m[at] = m
	return m
}

// ref takes one more reference for a caller that holds one, or that holds
// the tier's lock while an entry indexes m.
func (m *mapping) ref() *mapping {
	m.refs.Add(1)
	return m
}

// unref drops one reference, unmapping with the last; nil is no mapping.
func (m *mapping) unref() {
	if m == nil || m.refs.Add(-1) > 0 {
		return
	}
	mapped.Lock()
	if mapped.m[m.at] == m {
		delete(mapped.m, m.at)
	}
	frees := m.frees
	mapped.Unlock()
	unmap(m.region)
	m.live.Add(-1)
	for _, free := range frees {
		free()
	}
}

// diskStats are the tier-owned counters, merged into Stats snapshots.
type diskStats struct {
	writes        int64
	evictions     int64
	evictedBytes  int64
	invalidations int64
	usedBytes     int64
}

// diskTier is the persistent block store. File I/O happens outside its
// lock, so a promotion racing an eviction fails or misses, and decodes.
type diskTier struct {
	log     *seglog.Log
	mu      sync.Mutex
	budget  int64
	ll      *list.List // front = most recently used
	items   map[key]*list.Element
	stats   diskStats
	retired bool          // set by retire: the tier serves no more promotions
	live    *atomic.Int64 // the owning cache's mapping count, or the tier's own
}

// newDiskTier opens (creating if needed) and holds the block store at
// dir, and indexes the records its segments hold whole (readRecords) in
// LRU order by header time; of two records of one key, the later is kept.
func newDiskTier(dir string, budget int64) (*diskTier, error) {
	if budget <= 0 {
		budget = DefaultDiskBudgetBytes
	}
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := seglog.Hold(dir); err != nil {
		return nil, fmt.Errorf("stage: stage dir: %w", err)
	}
	removeBlockFiles(dir)
	var found []*diskEntry
	lg, _, err := seglog.Open(dir, func(blocks []*seglog.Block) (kept []*seglog.Block) {
		sort.SliceStable(blocks, func(i, j int) bool { return blocks[i].Time < blocks[j].Time })
		kept, found = readRecords(blocks)
		return kept
	})
	if err != nil {
		return nil, err
	}
	dt := &diskTier{log: lg, budget: budget, ll: list.New(), items: map[key]*list.Element{}, live: new(atomic.Int64)}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	for _, e := range found {
		if prev, ok := dt.items[e.key]; ok {
			dt.removeLocked(prev)
		}
		dt.items[e.key] = dt.ll.PushFront(e)
		dt.stats.usedBytes += e.bytes
	}
	dt.sweepLocked()
	return dt, nil
}

// readRecords reads the record header of each scanned block and returns
// the blocks that hold a whole record their entry line names, with their
// index entries.
func readRecords(blocks []*seglog.Block) (kept []*seglog.Block, found []*diskEntry) {
	var f *os.File
	for _, b := range blocks {
		if f == nil || f.Name() != b.Seg.Path()+".log" {
			f.Close()
			f, _ = os.Open(b.Seg.Path() + ".log")
		}
		if h, k, err := readBlkHeader(f, b.Base, b.Limit); err == nil && b.Claimed == h.payloadOff+h.payloadLen {
			kept = append(kept, b)
			found = append(found, newDiskEntry(h, k, b.Seg, b.Base))
		}
	}
	f.Close()
	return kept, found
}

// removeBlockFiles deletes the per-block files (*.blk) of older tiers
// whose header validates; they are a cache, and decode again.
func removeBlockFiles(dir string) {
	names, _ := filepath.Glob(filepath.Join(dir, "*.blk"))
	for _, name := range names {
		if f, err := os.Open(name); err == nil {
			if _, _, err := readBlkHeader(f, 0, math.MaxInt64); f.Close() == nil && err == nil {
				os.Remove(name)
			}
		}
	}
}

// readBlkHeader reads the header and key strings of the record at base of
// f, never its payload, and checks that the record lies within limit bytes
// and within the file, so a cut record fails before any mmap cast could
// fault past EOF.
func readBlkHeader(f *os.File, base, limit int64) (blkHeader, key, error) {
	hdr := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(hdr, base); err != nil {
		return blkHeader{}, key{}, err
	}
	h, err := decodeBlkHeader(hdr)
	if err != nil {
		return blkHeader{}, key{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return blkHeader{}, key{}, err
	}
	if end := h.payloadOff + h.payloadLen; end > limit || end > st.Size()-base {
		return blkHeader{}, key{}, fmt.Errorf("stage: block record at %d of %s cut: %d bytes, %d in its range", base, f.Name(), end, min(limit, st.Size()-base))
	}
	keyBuf := make([]byte, h.pathLen+h.colLen)
	if _, err := f.ReadAt(keyBuf, base+blkHeaderSize); err != nil {
		return blkHeader{}, key{}, err
	}
	return h, key{path: string(keyBuf[:h.pathLen]), col: string(keyBuf[h.pathLen:])}, nil
}

// newDiskEntry is the index entry of k's block h at base of seg's log.
func newDiskEntry(h blkHeader, k key, seg *seglog.Segment, base int64) *diskEntry {
	return &diskEntry{
		key:        k,
		stamp:      stamp{mtime: h.srcMtimeNS, size: h.srcSize},
		kind:       h.kind,
		rows:       h.rows,
		bytes:      h.payloadLen,
		seg:        seg,
		base:       base,
		payloadOff: h.payloadOff,
	}
}

// snapshot returns the tier counters, entry count and budget.
func (dt *diskTier) snapshot() (diskStats, int, int64) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.stats, dt.ll.Len(), dt.budget
}

// put persists one encoded payload for (k, st), replacing any prior
// generation, and sweeps the budget. payload is only read, so it may be a
// cached vector's own bytes. A payload alone over budget is not stored,
// and neither is one put to a retired tier.
func (dt *diskTier) put(k key, st stamp, kind dataframe.Kind, rows int, payload []byte) error {
	dt.mu.Lock()
	skip := int64(len(payload)) > dt.budget || dt.retired
	dt.mu.Unlock()
	if skip {
		return nil
	}
	h := blkHeader{kind: kind, rows: int64(rows), srcMtimeNS: st.mtime, srcSize: st.size, payloadLen: int64(len(payload)),
		crc: crc32.Checksum(payload, blkCastagnoli), pathLen: len(k.path), colLen: len(k.col),
		payloadOff: align8(int64(blkHeaderSize + len(k.path) + len(k.col)))}
	head := make([]byte, h.payloadOff)
	copy(head, encodeBlkHeader(h))
	copy(head[blkHeaderSize:], k.path)
	copy(head[blkHeaderSize+h.pathLen:], k.col)
	// The record's first 64 KB go out in their own writes, so the page
	// cache holds them in folios no larger than a fresh file's: a fault at
	// the payload's start maps those, not a large folio reaching far into a
	// payload the ask may never read. The payload is written as it was
	// handed in, so a vector's bytes are never copied.
	cut := min(max(64<<10-h.payloadOff, 0), h.payloadLen)
	seg, base, err := dt.log.Append(k.path+"#"+k.col, head, payload[:cut], payload[cut:])
	if err != nil {
		return err
	}
	e := newDiskEntry(h, k, seg, base)
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if prev, ok := dt.items[k]; ok {
		dt.removeLocked(prev)
	}
	dt.items[k] = dt.ll.PushFront(e)
	dt.stats.usedBytes += e.bytes
	dt.stats.writes++
	dt.sweepLocked()
	return nil
}

// promote serves (k, now) from the block store as a memory-tier entry
// and, for an mmap cast, a reference to its mapping. A nil entry with a
// nil error is a plain miss (absent, stale — which drops it — or dropped
// while this call mapped it); an error means the block could not be
// loaded and has been dropped, and the caller decodes.
func (dt *diskTier) promote(k key, now stamp) (*entry, error) {
	dt.mu.Lock()
	el, found := dt.items[k]
	if !found || dt.retired {
		dt.mu.Unlock()
		return nil, nil
	}
	e := el.Value.(*diskEntry)
	if e.stamp != now {
		dt.removeLocked(el)
		dt.stats.invalidations++
		dt.mu.Unlock()
		return nil, nil
	}
	dt.ll.MoveToFront(el)
	var m *mapping
	if e.m != nil {
		m = e.m.ref()
	}
	want := *e
	dt.mu.Unlock()

	var col *dataframe.Column
	if m == nil {
		region, copied, err := loadBlk(&want)
		if err != nil {
			dt.drop(k, now)
			return nil, err
		}
		if region == nil {
			col = copied
		} else if m = dt.adopt(el, region); m == nil {
			return nil, nil
		}
	}
	if m != nil {
		var err error
		at := want.base%pageSize + want.payloadOff
		col, err = gio.CastBlock(k.col, want.kind, m.region[at:at+want.bytes], int(want.rows))
		if err != nil {
			m.unref()
			dt.drop(k, now)
			return nil, err
		}
		m.ref()
		runtime.SetFinalizer(col, func(*dataframe.Column) { m.unref() })
	}
	return &entry{key: k, stamp: now, col: col.MarkShared(), bytes: want.bytes, m: m}, nil
}

// pageSize is the granule a record's mapping starts on.
var pageSize = int64(os.Getpagesize())

// adopt makes region, freshly mapped for the entry at el and cast from by
// no one yet, its mapping and returns it with a reference for the caller;
// if the record already has one (another promotion, in any tier, won),
// region is unmapped and that one returned, and if the entry left the
// index meanwhile, region is unmapped and nil returned.
func (dt *diskTier) adopt(el *list.Element, region []byte) *mapping {
	e := el.Value.(*diskEntry)
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if dt.retired || dt.items[e.key] != el {
		unmap(region)
		return nil
	}
	if e.m == nil {
		e.m = mapRecord(e.at(), region, dt.live)
	} else {
		unmap(region)
	}
	return e.m.ref()
}

// loadBlk opens and checks the record behind e (openBlk) and returns, for
// a kind the cast can serve, the mmap region from its page floor, or else
// a copy-decoded column. The payload's CRC is checked before it is
// mapped, by reading the file, so it faults in no mapped pages and a
// block whose bytes changed since (bit rot, a crash, a punched range) is
// never cast.
func loadBlk(e *diskEntry) ([]byte, *dataframe.Column, error) {
	f, h, err := openBlk(e)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	rec := io.NewSectionReader(f, e.base, h.payloadOff+h.payloadLen)
	if gio.NativeLayout(h.kind) && mmapSupported {
		crc := crc32.New(blkCastagnoli)
		if _, err := io.Copy(crc, io.NewSectionReader(rec, h.payloadOff, h.payloadLen)); err != nil {
			return nil, nil, err
		}
		if got := crc.Sum32(); got != h.crc {
			return nil, nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", e.key.path, e.key.col, got, h.crc)
		}
		// mmap can fail on exotic filesystems; fall back to copy-decode
		// rather than failing the promotion.
		floor := e.base - e.base%pageSize
		if region, err := mmapFile(f, floor, e.base-floor+h.payloadOff+h.payloadLen); err == nil {
			return region, nil, nil
		}
	}
	col, err := decodeCopy(rec, e.key, h)
	return nil, col, err
}

// openBlk opens the segment log behind e and checks, through
// readBlkHeader, that its record still backs e.
func openBlk(e *diskEntry) (*os.File, blkHeader, error) {
	f, err := os.Open(e.seg.Path() + ".log")
	if err != nil {
		return nil, blkHeader{}, err
	}
	h, k, err := readBlkHeader(f, e.base, e.payloadOff+e.bytes)
	if err == nil {
		want := *e
		want.m = nil
		if *newDiskEntry(h, k, e.seg, e.base) != want {
			err = fmt.Errorf("stage: block record at %d of %s keyed to another entry", e.base, f.Name())
		}
	}
	if err != nil {
		f.Close()
		return nil, blkHeader{}, err
	}
	return f, h, nil
}

// decodeCopy is the promotion fallback for strings, big-endian hosts and
// failed maps: read the payload, check its CRC, decode it.
func decodeCopy(rec io.ReaderAt, k key, h blkHeader) (*dataframe.Column, error) {
	payload := make([]byte, h.payloadLen)
	if _, err := rec.ReadAt(payload, h.payloadOff); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, blkCastagnoli); got != h.crc {
		return nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", k.path, k.col, got, h.crc)
	}
	return gio.DecodeBlock(k.col, h.kind, payload, int(h.rows))
}

// drop removes (k, now) from the index — promote's error path, scoped to
// the failing generation so a concurrent put of a fresh one survives.
func (dt *diskTier) drop(k key, now stamp) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if el, ok := dt.items[k]; ok && el.Value.(*diskEntry).stamp == now {
		dt.removeLocked(el)
	}
}

// invalidatePath drops every block decoded from path (watcher event or
// stamp-mismatch invalidation), returning how many were removed.
func (dt *diskTier) invalidatePath(path string) int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	n := 0
	for k, el := range dt.items {
		if k.path == path {
			dt.removeLocked(el)
			dt.stats.invalidations++
			n++
		}
	}
	return n
}

// sweepLocked enforces the byte budget, evicting least-recently-used
// blocks. Caller holds mu.
func (dt *diskTier) sweepLocked() {
	for dt.stats.usedBytes > dt.budget && dt.ll.Len() > 0 {
		oldest := dt.ll.Back()
		e := oldest.Value.(*diskEntry)
		dt.removeLocked(oldest)
		dt.stats.evictions++
		dt.stats.evictedBytes += e.bytes
	}
}

// removeLocked is the single exit from the index: it unlinks an entry,
// tombstones its record and gives the range back (see Removal). Caller
// holds mu.
func (dt *diskTier) removeLocked(el *list.Element) {
	e := el.Value.(*diskEntry)
	dt.ll.Remove(el)
	delete(dt.items, e.key)
	dt.stats.usedBytes -= e.bytes
	if dt.retired {
		return // a later tier over the directory owns the record
	}
	lg := dt.log
	lg.Lock()
	lg.Tombstone(e.seg, e.key.path+"#"+e.key.col, e.base)
	lg.Unlock()
	free := func() {
		lg.Lock()
		defer lg.Unlock()
		lg.Free(e.seg, e.base, e.payloadOff+e.bytes)
	}
	m := e.m
	if m == nil {
		m = mapRecord(e.at(), nil, nil)
	}
	if m == nil {
		free()
	} else {
		mapped.Lock()
		m.frees = append(m.frees, free) // run at the last unref: ours is not it
		mapped.Unlock()
		m.unref()
	}
	e.m = nil
}

// retire drops the tier's reference to every mapping it holds, stops it
// serving and changing its directory, and closes its pool; nil is no
// tier. The records stay for a later tier over the directory.
func (dt *diskTier) retire() {
	if dt == nil {
		return
	}
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.retired = true
	for el := dt.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*diskEntry)
		e.m.unref()
		e.m = nil
	}
	dt.log.Close()
}
