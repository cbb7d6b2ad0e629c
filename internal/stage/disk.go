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
// Mapping lifetime. Promoted vectors alias their mapping from frames and
// SQL segments for as long as the asks that read them run, so a mapping a
// vector was cast from is never unmapped. Its touched pages count in the
// process's resident set, though, so every mapping the tier stops
// indexing — invalidation, replacement by a new generation, budget sweep,
// failed promotion, tier retirement — has its pages released
// (releaseMapping, Linux only). That is safe without tracking who still
// holds the vectors because block files are immutable: they are written
// only by temp file + rename, never in place, and a removed entry's inode
// is unlinked, so a vector that still aliases a released mapping
// re-faults bit-identical bytes.
//
// A reader that was already running when its mapping was dropped — an
// ask that promoted the column earlier — re-faults pages the first
// release handed back. So a drop that happens while readers are pinned
// (Cache.Pin) is released a second time, by epoch: once every reader
// pinned at or before the drop has unpinned (epoch.go). Both releases
// only release; neither unmaps. What they do not reclaim is the mapping
// itself (one VMA each, DiskMappings), the disk blocks of unlinked
// files, and pages re-faulted by readers pinned after the drop; all are
// held until process exit or a later release.
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
	"sort"
	"strings"
	"sync"

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

// diskEntry is one resident block in the tier's index. region retains the
// whole page-aligned promotion mapping and mapped the payload view into
// it, so a later re-promotion (after the memory tier evicted the column
// again) is a pointer copy, not another open.
type diskEntry struct {
	key        key
	stamp      stamp
	kind       dataframe.Kind
	rows       int64
	bytes      int64 // payload length — the budget accounting unit
	file       string
	region     []byte
	mapped     []byte
	payloadOff int64
}

// diskStats are the tier-owned counters, merged into Stats snapshots.
type diskStats struct {
	writes        int64
	evictions     int64
	evictedBytes  int64
	invalidations int64
	usedBytes     int64
	mappings      int64 // mappings created and not unmapped
	releasedBytes int64 // mapping bytes handed back by releaseMapping
}

// tierInstruments are the telemetry series the disk tier updates itself,
// because the events they count are decided inside it. All are nil-safe;
// the owning Cache's SetMetrics installs them.
type tierInstruments struct {
	mappings      *telemetry.Gauge
	releasedBytes *telemetry.Counter
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
	inst    tierInstruments
	// readers are the owning cache's pinned readers, told of every
	// released mapping so it is released again after them; nil for a
	// tier used on its own.
	readers *readerEpochs
}

// setInstruments installs (or, with the zero value, clears) the tier's
// telemetry instruments.
func (dt *diskTier) setInstruments(inst tierInstruments) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.inst = inst
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
	hdr := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	h, err := decodeBlkHeader(hdr)
	if err != nil {
		return nil, err
	}
	keyBuf := make([]byte, h.pathLen+h.colLen)
	if _, err := f.ReadAt(keyBuf, blkHeaderSize); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < h.payloadOff+h.payloadLen {
		return nil, fmt.Errorf("stage: block file truncated")
	}
	return &diskEntry{
		key:        key{path: string(keyBuf[:h.pathLen]), col: string(keyBuf[h.pathLen:])},
		stamp:      stamp{mtime: h.srcMtimeNS, size: h.srcSize},
		kind:       h.kind,
		rows:       h.rows,
		bytes:      h.payloadLen,
		file:       full,
		payloadOff: h.payloadOff,
	}, nil
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
	e := &diskEntry{
		key:        k,
		stamp:      st,
		kind:       kind,
		rows:       int64(rows),
		bytes:      h.payloadLen,
		file:       full,
		payloadOff: h.payloadOff,
	}
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

// promote serves (k, now) from the block store as a ready-to-share column
// vector. ok is false on a plain miss (absent, resident for a different
// file generation — which also drops the stale block — or dropped from the
// index while this call mapped it). A non-nil err means the block was
// resident and claimed to match but could not be loaded (truncated,
// corrupt, raced with eviction); the bad block has been dropped and the
// caller should fall through to the real decoder.
func (dt *diskTier) promote(k key, now stamp) (col *dataframe.Column, bytes int64, ok bool, err error) {
	dt.mu.Lock()
	el, found := dt.items[k]
	if !found || dt.retired {
		dt.mu.Unlock()
		return nil, 0, false, nil
	}
	e := el.Value.(*diskEntry)
	if e.stamp != now {
		dt.removeLocked(el, true)
		dt.stats.invalidations++
		dt.mu.Unlock()
		return nil, 0, false, nil
	}
	dt.ll.MoveToFront(el)
	mapped, payloadOff := e.mapped, e.payloadOff
	kind, rows, payloadLen := e.kind, e.rows, e.bytes
	file := e.file
	dt.mu.Unlock()

	if mapped == nil {
		var region []byte
		region, mapped, err = dt.load(k, file, payloadOff, payloadLen, kind)
		if err != nil {
			dt.drop(k, now)
			return nil, 0, false, err
		}
		if region != nil {
			if mapped = dt.adopt(el, region, mapped); mapped == nil {
				return nil, 0, false, nil
			}
		}
	}

	payload := mapped
	if payload != nil {
		col, err = gio.CastBlock(k.col, kind, payload, int(rows))
	} else {
		col, err = dt.decodeCopy(k, file, payloadOff, payloadLen, kind, int(rows))
	}
	if err != nil {
		dt.drop(k, now)
		return nil, 0, false, err
	}
	return col.MarkShared(), payloadLen, true, nil
}

// adopt makes region, freshly mapped for the entry at el, that entry's one
// mapping and returns the payload view to cast from. A promotion that lost
// a race keeps no second mapping: if another promotion installed one
// first, ours is unmapped and the winner's payload returned; if the entry
// left the index (or the tier retired) meanwhile, ours is unmapped and nil
// returned. Unmapping is safe in both cases because nothing has been cast
// from region yet — this is the only place the tier ever unmaps.
func (dt *diskTier) adopt(el *list.Element, region, payload []byte) []byte {
	e := el.Value.(*diskEntry)
	dt.mu.Lock()
	switch {
	case dt.retired || dt.items[e.key] != el:
		payload = nil
	case e.region == nil:
		e.region, e.mapped = region, payload
		dt.stats.mappings++
		dt.inst.mappings.Add(1)
		dt.mu.Unlock()
		return payload
	default:
		payload = e.mapped
	}
	dt.mu.Unlock()
	munmapFile(region)
	return payload
}

// load validates the block file and returns the whole page-aligned mmap
// region plus its payload view for kinds eligible for the cast fast path,
// or (nil, nil, nil) to request the copy-decode fallback. The payload's
// CRC is checked before it is mapped, once per mapping: a block whose
// bytes changed after it was written (bit rot, or pages lost in a crash)
// fails the promotion instead of being cast and served. The check reads
// the file rather than the mapping, so it faults in no mapped pages: a
// promoted column's resident pages stay the ones its readers touch.
func (dt *diskTier) load(k key, file string, payloadOff, payloadLen int64, kind dataframe.Kind) (region, payload []byte, err error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	h, err := validateBlk(f, k, payloadOff, payloadLen)
	if err != nil {
		return nil, nil, err
	}
	if !gio.NativeLayout(kind) || !mmapSupported {
		return nil, nil, nil
	}
	crc := crc32.New(blkCastagnoli)
	if _, err := io.Copy(crc, io.NewSectionReader(f, payloadOff, payloadLen)); err != nil {
		return nil, nil, err
	}
	if got := crc.Sum32(); got != h.crc {
		return nil, nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", k.path, k.col, got, h.crc)
	}
	region, err = mmapFile(f, payloadOff+payloadLen)
	if err != nil {
		// mmap can fail on exotic filesystems; fall back to copy-decode
		// rather than failing the promotion.
		return nil, nil, nil
	}
	return region, region[payloadOff : payloadOff+payloadLen], nil
}

// validateBlk re-checks a block file against the index entry it claims to
// back and returns its header: magic, key strings (heals fnv filename
// collisions), and size bounds (a truncated file must fail here, before
// any mmap cast could fault past EOF).
func validateBlk(f *os.File, k key, payloadOff, payloadLen int64) (blkHeader, error) {
	st, err := f.Stat()
	if err != nil {
		return blkHeader{}, err
	}
	if st.Size() < payloadOff+payloadLen {
		return blkHeader{}, fmt.Errorf("stage: block file %s truncated: %d < %d", f.Name(), st.Size(), payloadOff+payloadLen)
	}
	hdr := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return blkHeader{}, err
	}
	h, err := decodeBlkHeader(hdr)
	if err != nil {
		return blkHeader{}, err
	}
	if h.pathLen != len(k.path) || h.colLen != len(k.col) {
		return blkHeader{}, fmt.Errorf("stage: block file %s keyed to another entry", f.Name())
	}
	keyBuf := make([]byte, h.pathLen+h.colLen)
	if _, err := f.ReadAt(keyBuf, blkHeaderSize); err != nil {
		return blkHeader{}, err
	}
	if string(keyBuf[:h.pathLen]) != k.path || string(keyBuf[h.pathLen:]) != k.col {
		return blkHeader{}, fmt.Errorf("stage: block file %s keyed to another entry", f.Name())
	}
	return h, nil
}

// decodeCopy is the promotion fallback: read the payload, verify its CRC,
// decode through the gio block decoder. Used for String columns (variable
// width — no cast possible), big-endian hosts, and mmap failures.
func (dt *diskTier) decodeCopy(k key, file string, payloadOff, payloadLen int64, kind dataframe.Kind, rows int) (*dataframe.Column, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	hdr := make([]byte, blkHeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, err
	}
	h, err := decodeBlkHeader(hdr)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadLen)
	if _, err := f.ReadAt(payload, payloadOff); err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, blkCastagnoli); got != h.crc {
		return nil, fmt.Errorf("stage: block %s/%s CRC mismatch: got %08x want %08x", k.path, k.col, got, h.crc)
	}
	return gio.DecodeBlock(k.col, kind, payload, rows)
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
// releases the pages of its mapping and (when unlink is set) deletes its
// block file. Caller holds mu. It never unmaps: promoted vectors may alias
// the mapping with unbounded lifetime. On POSIX the mapping stays valid
// after the file is unlinked or renamed over, and since block files are
// never written in place, a vector that reads released pages again
// re-faults the bytes it was cast from.
func (dt *diskTier) removeLocked(el *list.Element, unlink bool) {
	e := el.Value.(*diskEntry)
	dt.ll.Remove(el)
	delete(dt.items, e.key)
	dt.stats.usedBytes -= e.bytes
	dt.releaseLocked(e)
	if unlink {
		os.Remove(e.file)
	}
}

// releaseLocked returns the resident pages of e's mapping, if it has one,
// and forgets the mapping, so the tier releases it once; the pinned
// readers (readerEpochs) release it once more after they finish. Caller
// holds mu.
func (dt *diskTier) releaseLocked(e *diskEntry) {
	if e.region == nil {
		return
	}
	n := releaseMapping(e.region)
	dt.stats.releasedBytes += n
	dt.inst.releasedBytes.Add(n)
	if dt.readers != nil {
		dt.readers.dropped(e.region)
	}
	e.region, e.mapped = nil, nil
}

// retire releases the pages of every mapping the tier holds and stops it
// serving promotions, so no new mapping is created after it returns. The
// index and the block files stay: a later tier over the same directory
// rescans them. It returns the tier's final mapping counters.
func (dt *diskTier) retire() (mappings, releasedBytes int64) {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	dt.retired = true
	for el := dt.ll.Front(); el != nil; el = el.Next() {
		dt.releaseLocked(el.Value.(*diskEntry))
	}
	return dt.stats.mappings, dt.stats.releasedBytes
}
