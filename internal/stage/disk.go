// Disk tier: a persistent block store under the in-memory LRU.
//
// Each resident entry is one decoded column block written back out in the
// gio block encoding — byte-identical to the source file's block — one
// file per (source path, column) under the tier's directory. A block file
// is a 64-byte header (magic, kind, row count, source stamp, payload
// length and offset, CRC-32C of the payload), the source path and column
// name, zero padding to an 8-aligned offset, then the payload. The
// write-through of a numeric column writes its payload straight from the
// cached vector's bytes (gio.VectorBlock): no encode and no copy, which is
// safe because cached vectors are immutable. Strings and big-endian hosts
// encode through gio.EncodeBlock. The store has its own byte budget and
// LRU sweep, so the memory budget stops being the residency ceiling:
// in-memory eviction demotes instead of discards, a memory miss promotes
// from disk without touching the gio decoder, and hot columns survive
// restarts — a fresh process over a populated stage dir rebuilds its index
// from block-file headers alone.
//
// Promotion is where the tier earns its latency budget. Float and Int
// payloads are stored 8-byte little-endian — the same bit layout as the
// in-memory vectors on little-endian hosts (gio.NativeLayout) — so
// promotion mmaps the block file and casts the (8-aligned) payload into
// the column vector directly (gio.CastBlock): no copy into the vector and
// no per-element decode, only a CRC-32C check of the payload before it is
// mapped, once per mapping, and pages fault in lazily as the column is
// actually scanned. String columns (variable-width) and non-little-endian
// hosts take a copy-decode fallback through gio.DecodeBlock, which checks
// the same CRC.
// Truncated or corrupt block files are detected by header validation, size
// bounds and the CRC before any cast; a failed promotion evicts exactly
// that block file and falls through to the real decoder (per-column error
// attribution, as in the memory tier), whose write-through stores the
// block whole again.
//
// Mapping lifetime. A promoted vector aliases the mapping it was cast
// from, so a mapping is unmapped only once nothing can read it. Each
// mapping is refcounted: the index entry holds one reference, and every
// promotion cast from it gives one to its memory-tier entry and one to its
// column. The tier drops its reference as soon as it stops indexing the
// block (invalidation, replacement by a new generation, budget sweep,
// failed promotion, tier retirement); a memory entry's reference is
// dropped by reader epoch, once no lease that could hold its vector is
// still running (epoch.go), which covers a reader that holds the vector
// but no longer the column; the column's is dropped by its finalizer, so
// a caller that keeps a frame past its lease (the benchmark replays an
// ask's staging database after the ask) reads the block instead of
// faulting. The last holder unmaps, which hands back the pages, the
// mapping and, for an unlinked block file, its disk blocks.
package stage

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/telemetry"
)

// DefaultDiskBudgetBytes is the disk tier's block-store budget when a
// stage dir is attached without an explicit budget.
const DefaultDiskBudgetBytes = 1 << 30

// blkMagic identifies a stage block-store file; the trailing byte versions
// the layout.
var blkMagic = [8]byte{'I', 'S', 'T', 'B', '\n', 0, 0, 1}

// blkHeaderSize is the fixed header prefix of every block file. The
// variable-length source path and column name follow it; the payload
// starts at the 8-aligned offset recorded in the header (alignment is
// what makes the mmap-cast promotion path legal).
const blkHeaderSize = 64

var blkCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// blkHeader is the decoded fixed header of one block file.
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

// blkFileName derives the tier-local filename of a (path, col) block. The
// fnv64a digest keeps names flat and filesystem-safe; collisions are
// healed at promote time by validating the key strings stored in the
// header.
func blkFileName(k key) string {
	h := fnv.New64a()
	h.Write([]byte(k.path))
	h.Write([]byte{0})
	h.Write([]byte(k.col))
	return fmt.Sprintf("%016x.blk", h.Sum64())
}

// diskEntry is one resident block in the tier's index. m is its
// promotion mapping once a promotion made one, so a later re-promotion
// (after the memory tier evicted the column again) is a pointer copy, not
// another open; the entry holds one reference to it.
type diskEntry struct {
	key        key
	stamp      stamp
	kind       dataframe.Kind
	rows       int64
	bytes      int64 // payload length — the budget accounting unit
	file       string
	m          *mapping
	payloadOff int64
}

// mapping is one block file's whole page-aligned promotion mmap. Every
// holder owns one reference — the index entry, and each memory-tier entry
// and column whose vector was cast from it — and the last to let go
// unmaps it.
type mapping struct {
	region []byte
	refs   atomic.Int64
	live   *liveMappings
}

func newMapping(region []byte, live *liveMappings) *mapping {
	m := &mapping{region: region, live: live}
	m.refs.Store(1)
	live.add(1)
	return m
}

// ref takes one more reference for a caller that holds one, or that holds
// the tier's lock while an entry indexes m.
func (m *mapping) ref() *mapping {
	m.refs.Add(1)
	return m
}

// unref drops one reference, unmapping the region with the last; nil is no
// mapping.
func (m *mapping) unref() {
	if m == nil || m.refs.Add(-1) > 0 {
		return
	}
	unmap(m.region)
	m.live.add(-1)
}

// liveMappings counts one cache's mappings that are not yet unmapped
// (Stats.DiskMappings, infera_stage_disk_mappings); every mapping its disk
// tiers create points to it.
type liveMappings struct {
	mu    sync.Mutex
	n     int64
	gauge *telemetry.Gauge
}

func (lm *liveMappings) add(d int64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.n += d
	lm.gauge.Set(lm.n)
}

func (lm *liveMappings) count() int64 {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.n
}

// setGauge points the count at g (nil for none), which reads it at once.
func (lm *liveMappings) setGauge(g *telemetry.Gauge) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	lm.gauge = g
	g.Set(lm.n)
}

// diskStats are the tier-owned counters, merged into Stats snapshots.
type diskStats struct {
	writes        int64
	evictions     int64
	evictedBytes  int64
	invalidations int64
	usedBytes     int64
}

// diskTier is the persistent block store. All methods are safe for
// concurrent use; file I/O happens outside the index lock, so a promotion
// racing an eviction resolves as a promote failure (open of a deleted
// file) or a plain miss, and falls through to the decoder.
type diskTier struct {
	dir     string
	mu      sync.Mutex
	budget  int64
	ll      *list.List // front = most recently used
	items   map[key]*list.Element
	stats   diskStats
	retired bool // set by retire: the tier serves no more promotions
	// live counts the tier's mappings: the owning cache's count, or the
	// tier's own when it is used alone.
	live *liveMappings
}

// newDiskTier opens (creating if needed) a block store rooted at dir and
// rebuilds its index from the resident block files' headers — header-only
// reads, so a large store reopens in milliseconds. Unreadable or foreign
// files are skipped, not deleted: a half-written temp file from a crashed
// process is invisible (put renames atomically) and anything else in the
// directory is not ours to remove. LRU order is seeded by block-file
// mtime, oldest first.
func newDiskTier(dir string, budget int64) (*diskTier, error) {
	if budget <= 0 {
		budget = DefaultDiskBudgetBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	dt := &diskTier{
		dir:    dir,
		budget: budget,
		ll:     list.New(),
		items:  map[key]*list.Element{},
		live:   &liveMappings{},
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type scanned struct {
		e     *diskEntry
		mtime int64
	}
	var found []scanned
	for _, de := range ents {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".blk") {
			continue
		}
		full := filepath.Join(dir, de.Name())
		e, err := readBlkEntry(full)
		if err != nil {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, scanned{e: e, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(found, func(i, j int) bool { return found[i].mtime < found[j].mtime })
	for _, s := range found {
		if prev, ok := dt.items[s.e.key]; ok {
			// Two files claiming one key (shouldn't happen — names are
			// deterministic — but a hand-copied store could): keep the newer.
			dt.removeLocked(prev, false)
		}
		dt.items[s.e.key] = dt.ll.PushFront(s.e)
		dt.stats.usedBytes += s.e.bytes
	}
	dt.mu.Lock()
	dt.sweepLocked()
	dt.mu.Unlock()
	return dt, nil
}

// readBlkEntry reads one block file's header (never its payload) into an
// index entry.
func readBlkEntry(full string) (*diskEntry, error) {
	f, err := os.Open(full)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h, k, err := readBlkHeader(f)
	if err != nil {
		return nil, err
	}
	return newDiskEntry(h, k, full), nil
}

// readBlkHeader reads an open block file's header and key strings, never
// its payload, and checks that the file holds the whole payload the header
// places (a truncated file must fail here, before any mmap cast could
// fault past EOF). The index scan and every promotion check a block file
// through it.
func readBlkHeader(f *os.File) (blkHeader, key, error) {
	hdr := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return blkHeader{}, key{}, err
	}
	h, err := decodeBlkHeader(hdr)
	if err != nil {
		return blkHeader{}, key{}, err
	}
	keyBuf := make([]byte, h.pathLen+h.colLen)
	if _, err := f.ReadAt(keyBuf, blkHeaderSize); err != nil {
		return blkHeader{}, key{}, err
	}
	st, err := f.Stat()
	if err != nil {
		return blkHeader{}, key{}, err
	}
	if st.Size() < h.payloadOff+h.payloadLen {
		return blkHeader{}, key{}, fmt.Errorf("stage: block file %s truncated: %d < %d", f.Name(), st.Size(), h.payloadOff+h.payloadLen)
	}
	return h, key{path: string(keyBuf[:h.pathLen]), col: string(keyBuf[h.pathLen:])}, nil
}

// newDiskEntry is the index entry for the block of key k, described by h,
// stored in file.
func newDiskEntry(h blkHeader, k key, file string) *diskEntry {
	return &diskEntry{
		key:        k,
		stamp:      stamp{mtime: h.srcMtimeNS, size: h.srcSize},
		kind:       h.kind,
		rows:       h.rows,
		bytes:      h.payloadLen,
		file:       file,
		payloadOff: h.payloadOff,
	}
}

// budgetBytes returns the tier's byte budget.
func (dt *diskTier) budgetBytes() int64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.budget
}

// snapshot returns the tier counters plus the resident entry count.
func (dt *diskTier) snapshot() (diskStats, int) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.stats, dt.ll.Len()
}

// put persists one encoded payload for (k, st), replacing any prior
// generation, and sweeps the budget. payload is only read, never kept, so
// it may be a cached vector's own bytes (gio.VectorBlock). The write is
// atomic (temp + rename), so a reader never observes a partial block and a
// crash leaves at worst an orphan temp file the next scan ignores. A
// payload alone over budget is not stored (mirrors the memory tier's
// oversized-entry rule).
func (dt *diskTier) put(k key, st stamp, kind dataframe.Kind, rows int, payload []byte) error {
	dt.mu.Lock()
	over := int64(len(payload)) > dt.budget
	dt.mu.Unlock()
	if over {
		return nil
	}
	full := filepath.Join(dt.dir, blkFileName(k))
	h := blkHeader{
		kind:       kind,
		rows:       int64(rows),
		srcMtimeNS: st.mtime,
		srcSize:    st.size,
		payloadLen: int64(len(payload)),
		crc:        crc32.Checksum(payload, blkCastagnoli),
		pathLen:    len(k.path),
		colLen:     len(k.col),
	}
	h.payloadOff = align8(int64(blkHeaderSize + h.pathLen + h.colLen))
	// The header, key strings and zero padding go first, then the payload
	// as it was handed in, so a vector's bytes are never copied.
	head := make([]byte, h.payloadOff)
	copy(head, encodeBlkHeader(h))
	copy(head[blkHeaderSize:], k.path)
	copy(head[blkHeaderSize+h.pathLen:], k.col)
	tmp, err := os.CreateTemp(dt.dir, ".blk-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(head)
	if err == nil {
		_, err = tmp.Write(payload)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), full); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	e := newDiskEntry(h, k, full)
	dt.mu.Lock()
	if prev, ok := dt.items[k]; ok {
		dt.removeLocked(prev, false)
	}
	dt.items[k] = dt.ll.PushFront(e)
	dt.stats.usedBytes += e.bytes
	dt.stats.writes++
	dt.sweepLocked()
	dt.mu.Unlock()
	return nil
}

// promote serves (k, now) from the block store as a memory-tier entry
// holding a ready-to-share column vector and, for an mmap cast, a
// reference to its mapping. A nil entry with a nil error is a plain miss
// (absent, resident for a different file generation — which also drops
// the stale block — or dropped from the index while this call mapped it).
// A non-nil err means the block was resident and claimed to match but
// could not be loaded (truncated, corrupt, raced with eviction); the bad
// block has been dropped and the caller should fall through to the real
// decoder.
func (dt *diskTier) promote(k key, now stamp) (*entry, error) {
	dt.mu.Lock()
	el, found := dt.items[k]
	if !found || dt.retired {
		dt.mu.Unlock()
		return nil, nil
	}
	e := el.Value.(*diskEntry)
	if e.stamp != now {
		dt.removeLocked(el, true)
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
		col, err = gio.CastBlock(k.col, want.kind, m.region[want.payloadOff:want.payloadOff+want.bytes], int(want.rows))
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

// adopt makes region, freshly mapped for the entry at el, that entry's one
// mapping and returns it with a reference for the caller. A promotion that
// lost a race keeps no second mapping: if another promotion installed one
// first, ours is unmapped and the winner's returned; if the entry left the
// index (or the tier retired) meanwhile, ours is unmapped and nil
// returned. Nothing has been cast from region yet, so unmapping it is
// safe.
func (dt *diskTier) adopt(el *list.Element, region []byte) *mapping {
	e := el.Value.(*diskEntry)
	dt.mu.Lock()
	defer dt.mu.Unlock()
	indexed := !dt.retired && dt.items[e.key] == el
	if indexed && e.m == nil {
		e.m = newMapping(region, dt.live)
		return e.m.ref()
	}
	unmap(region)
	if !indexed {
		return nil
	}
	return e.m.ref()
}

// loadBlk opens and checks the block file behind index entry e (openBlk)
// and serves its payload from that one open file. A kind eligible for the
// cast fast path comes back as the whole page-aligned mmap region; any
// other kind, a host without the native layout, or a failed mmap comes
// back copy-decoded. The payload's CRC is checked before it is mapped,
// once per mapping: a block whose bytes changed after it was written (bit
// rot, or pages lost in a crash) fails the promotion instead of being cast
// and served. The check reads the file rather than the mapping, so it
// faults in no mapped pages: a promoted column's resident pages stay the
// ones its readers touch.
func loadBlk(e *diskEntry) ([]byte, *dataframe.Column, error) {
	f, h, err := openBlk(e)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	if gio.NativeLayout(h.kind) && mmapSupported {
		crc := crc32.New(blkCastagnoli)
		if _, err := io.Copy(crc, io.NewSectionReader(f, h.payloadOff, h.payloadLen)); err != nil {
			return nil, nil, err
		}
		if got := crc.Sum32(); got != h.crc {
			return nil, nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", e.key.path, e.key.col, got, h.crc)
		}
		// mmap can fail on exotic filesystems; fall back to copy-decode
		// rather than failing the promotion.
		if region, err := mmapFile(f, h.payloadOff+h.payloadLen); err == nil {
			return region, nil, nil
		}
	}
	col, err := decodeCopy(f, e.key, h)
	return nil, col, err
}

// openBlk opens the block file behind index entry e and checks, through
// readBlkHeader, that it still backs e: same key strings (heals fnv
// filename collisions), source generation, kind, rows and payload place.
// The returned header is the one every later payload read trusts.
func openBlk(e *diskEntry) (*os.File, blkHeader, error) {
	f, err := os.Open(e.file)
	if err != nil {
		return nil, blkHeader{}, err
	}
	h, k, err := readBlkHeader(f)
	if err == nil {
		want := *e
		want.m = nil
		if *newDiskEntry(h, k, e.file) != want {
			err = fmt.Errorf("stage: block file %s keyed to another entry", e.file)
		}
	}
	if err != nil {
		f.Close()
		return nil, blkHeader{}, err
	}
	return f, h, nil
}

// decodeCopy is the promotion fallback: read the payload h places in f,
// verify its CRC, decode through the gio block decoder. Used for String
// columns (variable width — no cast possible), big-endian hosts, and mmap
// failures.
func decodeCopy(f *os.File, k key, h blkHeader) (*dataframe.Column, error) {
	payload := make([]byte, h.payloadLen)
	if _, err := f.ReadAt(payload, h.payloadOff); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, blkCastagnoli); got != h.crc {
		return nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", k.path, k.col, got, h.crc)
	}
	return gio.DecodeBlock(k.col, h.kind, payload, int(h.rows))
}

// drop removes (k, now) from the index and disk — promote's error path,
// scoped to exactly the failing generation so a concurrent put of a fresh
// block is not clobbered.
func (dt *diskTier) drop(k key, now stamp) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	if el, ok := dt.items[k]; ok && el.Value.(*diskEntry).stamp == now {
		dt.removeLocked(el, true)
	}
}

// invalidatePath drops every block decoded from path (watcher event or
// stamp-mismatch invalidation), returning how many were removed.
func (dt *diskTier) invalidatePath(path string) int {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	var doomed []*list.Element
	for k, el := range dt.items {
		if k.path == path {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		dt.removeLocked(el, true)
		dt.stats.invalidations++
	}
	return len(doomed)
}

// sweepLocked enforces the byte budget, evicting least-recently-used
// blocks. Caller holds mu.
func (dt *diskTier) sweepLocked() {
	for dt.stats.usedBytes > dt.budget && dt.ll.Len() > 0 {
		oldest := dt.ll.Back()
		e := oldest.Value.(*diskEntry)
		dt.removeLocked(oldest, true)
		dt.stats.evictions++
		dt.stats.evictedBytes += e.bytes
	}
}

// removeLocked is the single exit from the index: it unlinks an entry,
// drops the entry's reference to its mapping and (when unlink is set)
// deletes its block file. Caller holds mu. No reader can lose a vector to
// it: every vector a reader holds came through a memory-tier entry, whose
// own reference is dropped by reader epoch.
func (dt *diskTier) removeLocked(el *list.Element, unlink bool) {
	e := el.Value.(*diskEntry)
	dt.ll.Remove(el)
	delete(dt.items, e.key)
	dt.stats.usedBytes -= e.bytes
	e.m.unref()
	e.m = nil
	if unlink {
		os.Remove(e.file)
	}
}

// retire drops the tier's reference to every mapping it holds and stops
// it serving promotions, so no new mapping is created after it returns; nil
// is no tier. The index and the block files stay: a later tier over the
// same directory rescans them.
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
}
