// Package seglog keeps write-once records in pooled, append-only segment
// files: the one on-disk layout under the provenance trail and the
// staging cache's disk tier. A segment is a pair of files under a root:
//
//	seg-<unique>.log    the blocks' bytes, back to back
//	seg-<unique>.jsonl  per block, a header line and its entry lines
//
// A block is one contiguous range of the log and a run of manifest lines:
// a header {"session":id,"base":b,"time":t}, then its user's entry lines;
// an entry whose "file" is Trail names [offset, offset+bytes) of the
// range. A tombstone line {"tombstone":id,"base":b} ends block id at base.
//
// An entry whose "file" is a segment's log name (seg-<unique>.log, bare,
// under the same root) is a reference: it names [offset, offset+bytes)
// of that log, a span of another block's range, and adds no bytes to its
// own block. The Log counts the live referrers of each span (Ref, Unref).
// Dropping a block tombstones it at once, but a span in it that has
// referrers is held: its bytes stay, counted in HeldBytes, until the last
// referrer goes, and only the rest of the range is freed.
//
// A Log pools open segments per process, each created O_EXCL and locked
// shared (flock(2)) while pooled, so no other Log or process appends to it
// or deletes it, and retires one once its log reaches RotateBytes. Drop
// ends a block: a tombstone, then Free, which punches its range out of the
// log (Linux; elsewhere its bytes stay), or empties or deletes the segment
// once it holds no block or held span. Where flock is missing (off unix,
// AIX, Solaris) a segment no Log holds open is never deleted.
//
// Open reads every manifest into blocks. A header whose range would start
// inside the range an earlier block's entries claim is ignored with its
// entries, a line that does not parse ends its block, and a last line
// without its newline is a torn write. A block's range runs to the next
// header's base, or to the log's end for a segment's last block (Tail),
// whose last record a crash may have cut; new blocks go only to segments
// this process made. Open counts the references of the blocks it keeps,
// holds the spans they name in blocks it does not keep, and deletes every
// segment left holding no block and no held span, where no other process
// holds it. It punches nothing: a tombstoned block's bytes may still be
// mapped (the stage tier frees a record only after its last mapping), so
// a user whose records are never mapped calls PunchDead after Open.
package seglog

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// RotateBytes retires a segment once its log reaches this size: the
	// block that crossed it keeps its whole range there.
	RotateBytes = 64 << 20
	// PoolSegments is how many open segments a Log keeps.
	PoolSegments = 16
	// Trail is the "file" of an entry line whose bytes lie in its block's
	// range.
	Trail = "trail.log"
)

// line is any manifest line: a header, a tombstone or an entry.
type line struct {
	Session   *string   `json:"session"`
	Tombstone *string   `json:"tombstone"`
	Base      int64     `json:"base"`
	Time      time.Time `json:"time"`
	File      string    `json:"file"`
	Offset    int64     `json:"offset"`
	Bytes     int64     `json:"bytes"`
}

// Header returns the header line of block id at base, started at.
func Header(id string, base int64, at time.Time) []byte {
	q, _ := json.Marshal(id)
	t, _ := at.UTC().MarshalJSON()
	return fmt.Appendf(nil, "{\"session\":%s,\"base\":%d,\"time\":%s}\n", q, base, t)
}

// Segment is one pair of segment files. Owner appends to it, if anyone
// does, Busy while inside a record. Its Log's lock guards it: live counts
// the blocks its users index in it and its held spans, end is its log's
// length, tailID and tailBase name the last block placed, to carry on in
// place, and spans counts the referrers of each referenced span.
type Segment struct {
	path          string // without extension
	Owner         any
	Busy          bool
	live          int
	end, tailBase int64
	tailID        string
	spans         map[[2]int64]*referrers // by offset and length
	log, man      *os.File                // open while pooled
	used          uint64                  // the pool clock at its last record
	mu            sync.Mutex              // serialises appends to man
	manEnd        int64
}

// referrers counts a span's live referrers; held: the block that holds it
// was dropped, so the span is freed with its last referrer.
type referrers struct {
	n    int
	held bool
}

// Span is a range of a segment's log that references name: N bytes at Off.
type Span struct {
	Seg    *Segment
	Off, N int64
}

// Path returns the segment's path without extension.
func (g *Segment) Path() string { return g.path }

// Name returns the segment's log's name, which a reference's "file" is.
func (g *Segment) Name() string { return filepath.Base(g.path) + ".log" }

// RefName reports whether name has the form of a reference's "file": a
// segment's log name, bare, with no separator.
func RefName(name string) bool {
	return strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".log") &&
		!strings.ContainsAny(name, `/\`) && filepath.IsLocal(name)
}

// End returns where the segment's log ends, as its records left it.
// Caller holds the Log's lock.
func (g *Segment) End() int64 { return g.end }

// Open reports whether the segment is pooled, its files open.
func (g *Segment) Open() bool { return g.log != nil }

// File returns the open log, which appends.
func (g *Segment) File() *os.File { return g.log }

// AppendMan appends lines to the segment's manifest and returns where they
// end, read back from the file: another process may have appended a
// tombstone since.
func (g *Segment) AppendMan(b []byte) (int64, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, err := g.man.Write(b); err != nil {
		return 0, err
	}
	end, err := g.man.Seek(0, io.SeekCurrent)
	if err == nil {
		g.manEnd = end
	}
	return end, err
}

// Log is one root's pool of open segments. Its lock guards the pool and
// its segments; callers hold it around every method but Open, Append and
// Close.
type Log struct {
	sync.Mutex
	amu    sync.Mutex // serialises Append
	root   string
	closed bool
	pool   []*Segment          // open segments, owned or free
	free   []*Segment          // open segments without an owner
	segs   map[string]*Segment // every segment on disk it knows, by Name
	held   int64               // the bytes of held spans
	dead   []Span              // tombstoned ranges Open found, until PunchDead
	clock  uint64              // counts records
	made   int                 // counts segments created
}

// Block is one block as Open finds it: its range is Limit bytes at Base
// of Seg's log, to the next block's base or the log's end; its Trail
// entries claim the first Claimed; its manifest lines are [HdrOff, MEnd);
// Refs are the spans its references name, counted as referrers, one per
// line.
type Block struct {
	ID           string
	Seg          *Segment
	Base, Limit  int64
	Claimed      int64
	HdrOff, MEnd int64
	Entries      int
	Time         int64 // from its header, in Unix ns
	Tail         bool  // it is its segment's last block
	Refs         []Span
	dead, kept   bool
}

var (
	errHeld   = errors.New("seglog: held by another process")
	errClosed = errors.New("seglog: append to a closed log")
	heldMu    sync.Mutex
	held      = map[string]*os.File{}
)

// Hold locks root, a directory, exclusively until this process's Unhold
// of it, or its exit: another process's Hold of it fails meanwhile, and
// this process's succeeds again.
func Hold(root string) error {
	heldMu.Lock()
	defer heldMu.Unlock()
	if held[root] != nil {
		return nil
	}
	f, err := os.Open(root)
	if err != nil {
		return err
	}
	if err := lockExclusive(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", root, err)
	}
	held[root] = f
	return nil
}

// Unhold ends this process's Hold of root, if it has one.
func Unhold(root string) {
	heldMu.Lock()
	defer heldMu.Unlock()
	if f := held[root]; f != nil {
		f.Close()
		delete(held, root)
	}
}

// Open scans every segment under root and returns a Log over it with the
// blocks keep chooses to index; a segment that does not scan is skipped.
// The kept blocks' references are counted (see the package doc).
func Open(root string, keep func([]*Block) []*Block) (*Log, []*Block, error) {
	names, err := filepath.Glob(filepath.Join(root, "seg-*.jsonl"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	l := &Log{root: root, segs: map[string]*Segment{}}
	var segs []*Segment
	blocks := map[*Segment][]*Block{}
	sizes := map[*Segment]int64{}
	refs := map[*Block][]line{}
	var live []*Block
	for _, name := range names {
		g := &Segment{path: strings.TrimSuffix(name, ".jsonl")}
		bs, size, err := scanSegment(g, refs)
		if err != nil {
			log.Printf("seglog: skipping segment %s: %v", g.path, err)
			continue
		}
		segs = append(segs, g)
		l.segs[g.Name()] = g
		blocks[g], sizes[g] = bs, size
		for _, b := range bs {
			if !b.dead {
				live = append(live, b)
			}
		}
	}
	kept := keep(live)
	for _, b := range kept {
		b.Seg.live++
		b.kept = true
	}
	for _, b := range kept {
		l.countRefs(b, refs[b], sizes)
	}
	for _, g := range segs {
		l.settle(g, blocks[g])
	}
	return l, kept, nil
}

// countRefs counts kept block b's reference lines refs to spans inside
// logs this Log knows, as its Refs; a reference past its log's end counts
// for none.
func (l *Log) countRefs(b *Block, refs []line, sizes map[*Segment]int64) {
	for _, r := range refs {
		if g := l.segs[r.File]; g != nil && r.Bytes <= sizes[g]-r.Offset {
			sp := Span{Seg: g, Off: r.Offset, N: r.Bytes}
			b.Refs = append(b.Refs, sp)
			l.Ref(sp)
		}
	}
}

// settle holds g's referenced spans that lie inside a block no one keeps,
// then deletes g if it holds no kept block and no held span and no other
// process holds it, or else notes its tombstoned blocks' ranges for
// PunchDead.
func (l *Log) settle(g *Segment, bs []*Block) {
	for k, r := range g.spans {
		i := sort.Search(len(bs), func(i int) bool { return bs[i].Base > k[0] }) - 1
		if i >= 0 && !bs[i].kept && k[1] <= bs[i].Base+bs[i].Limit-k[0] {
			r.held = true
			g.live++
			l.held += k[1]
		}
	}
	if g.live == 0 && unused(g.path+".log") {
		l.remove(g)
		return
	}
	for _, b := range bs {
		if b.dead {
			l.dead = append(l.dead, Span{Seg: g, Off: b.Base, N: b.Limit})
		}
	}
}

// PunchDead punches the ranges of the tombstoned blocks Open found out of
// their logs, but for the spans that have referrers then, in segments
// that no other process holds and the Log still knows. Only a user none
// of whose records is mapped may call it: a mapping of a punched range
// reads zeros. Caller holds the Log's lock.
func (l *Log) PunchDead() {
	var lf *os.File
	for i, d := range l.dead {
		g := d.Seg
		if l.segs[g.Name()] != g {
			continue
		}
		if i == 0 || l.dead[i-1].Seg != g {
			lf.Close()
			lf = nil
			if unused(g.path + ".log") {
				lf, _ = os.OpenFile(g.path+".log", os.O_WRONLY, 0)
			}
		}
		if lf != nil {
			g.punch(lf, d.Off, d.Off+d.N)
		}
	}
	lf.Close()
	l.dead = nil
}

// scanSegment reads g's manifest into its blocks, in file order, dead or
// live, adding each block's reference lines to refs, and returns its
// log's size.
func scanSegment(g *Segment, refs map[*Block][]line) ([]*Block, int64, error) {
	mf, err := os.Open(g.path + ".jsonl")
	if err != nil {
		return nil, 0, err
	}
	defer mf.Close()
	lst, err := os.Stat(g.path + ".log")
	if err != nil {
		return nil, 0, err
	}
	var blocks []*Block
	var cur *Block // the block entry lines belong to
	var off int64
	r := bufio.NewReader(mf)
	for {
		raw, err := r.ReadBytes('\n')
		if err != nil {
			break // EOF, or a torn last line
		}
		n := int64(len(raw))
		var l line
		if json.Unmarshal(raw, &l) != nil {
			l, cur = line{}, nil // a line that does not parse ends its block
		}
		switch {
		case l.Session != nil:
			cur = nil
			if l.Base >= 0 && (len(blocks) == 0 || l.Base >= blocks[len(blocks)-1].end()) {
				cur = &Block{ID: *l.Session, Seg: g, Base: l.Base, HdrOff: off, MEnd: off + n, Time: l.Time.UnixNano()}
				blocks = append(blocks, cur)
			}
		case l.Tombstone != nil:
			for _, b := range blocks {
				if b.ID == *l.Tombstone && b.Base == l.Base {
					b.dead = true
				}
			}
		case cur != nil:
			cur.Entries++
			cur.MEnd = off + n
			ok := l.Offset >= 0 && l.Bytes >= 0 && l.Offset+l.Bytes >= l.Offset
			if l.File == Trail && ok && l.Offset+l.Bytes > cur.Claimed {
				cur.Claimed = l.Offset + l.Bytes
			} else if ok && l.Bytes > 0 && RefName(l.File) {
				refs[cur] = append(refs[cur], l)
			}
		}
		off += n
	}
	for i, b := range blocks {
		end := lst.Size()
		if i+1 < len(blocks) {
			end = blocks[i+1].Base
		}
		b.Limit = max(end-b.Base, 0)
		b.Tail = i == len(blocks)-1
	}
	return blocks, lst.Size(), nil
}

// Lines reads the block's entry lines: its manifest lines but the header
// and any tombstone. A block without a segment has none (fs.ErrNotExist).
func (b *Block) Lines() ([]byte, error) {
	if b.Seg == nil {
		return nil, fs.ErrNotExist
	}
	mf, err := os.Open(b.Seg.path + ".jsonl")
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	data := make([]byte, b.MEnd-b.HdrOff)
	if _, err := mf.ReadAt(data, b.HdrOff); err != nil {
		return nil, err
	}
	var out []byte
	for _, l := range bytes.SplitAfter(data[bytes.IndexByte(data, '\n')+1:], []byte("\n")) {
		if !bytes.HasPrefix(l, []byte(`{"tombstone":`)) {
			out = append(out, l...)
		}
	}
	return out, nil
}

// end is where the block's entries claim its range ends, at most
// math.MaxInt64.
func (b *Block) end() int64 {
	if e := b.Base + b.Claimed; e >= b.Base {
		return e
	}
	return math.MaxInt64
}

// Close retires the pool's free segments, deleting those that hold no
// block; a segment still owned is retired at its Release.
func (l *Log) Close() error {
	l.Lock()
	defer l.Unlock()
	l.closed = true
	var errs []error
	for _, g := range append([]*Segment(nil), l.free...) {
		errs = append(errs, l.Retire(g))
		if g.live == 0 {
			l.remove(g)
		}
	}
	return errors.Join(errs...)
}

// remove deletes a segment's two files; the Log no longer knows it.
func (l *Log) remove(g *Segment) error {
	delete(l.segs, g.Name())
	return errors.Join(os.Remove(g.path+".log"), os.Remove(g.path+".jsonl"))
}

// create makes a new open segment.
func (l *Log) create() (*Segment, error) {
	for tries := 0; ; tries++ {
		l.made++
		path := filepath.Join(l.root, fmt.Sprintf("seg-%016x-%d-%d", time.Now().UnixNano(), os.Getpid(), l.made))
		lf, err := os.OpenFile(path+".log", os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) && tries < 8 {
			continue
		}
		if err != nil {
			return nil, err
		}
		// Locked before its manifest exists, so no Open sees it unheld.
		lockShared(lf)
		mf, err := os.OpenFile(path+".jsonl", os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			lf.Close()
			os.Remove(path + ".log")
			return nil, err
		}
		g := &Segment{path: path, log: lf, man: mf}
		l.pool = append(l.pool, g)
		l.segs[g.Name()] = g
		return g, nil
	}
}

// Take gives owner a segment, inside a record: a free one, a new one while
// the pool has room or every segment is inside a record, or else the one
// whose owner has gone longest without a record.
func (l *Log) Take(owner any) (*Segment, error) {
	var g *Segment
	if n := len(l.free); n > 0 {
		g, l.free = l.free[n-1], l.free[:n-1]
	} else if len(l.pool) >= PoolSegments {
		for _, c := range l.pool {
			if !c.Busy && c.Owner != nil && (g == nil || c.used < g.used) {
				g = c
			}
		}
	}
	if g == nil {
		var err error
		if g, err = l.create(); err != nil {
			return nil, err
		}
	}
	g.Owner, g.Busy = owner, true
	return g, nil
}

// Resume gives owner g inside a record, as Take does, if g is pooled and
// free and its log ends with block id, placed at base, n bytes long, so
// that the block carries on in place; it reports whether it did.
func (l *Log) Resume(g *Segment, owner any, id string, base, n int64) bool {
	if g == nil || !g.Open() || g.Owner != nil || g.tailID != id || g.tailBase != base || g.end != base+n {
		return false
	}
	l.free = without(l.free, g)
	g.Owner, g.Busy = owner, true
	return true
}

// Placed counts block id, now starting at base of g, among g's blocks;
// g's log ends n bytes past base, and the block may carry on in place.
func (l *Log) Placed(g *Segment, id string, base, n int64) {
	g.live++
	g.end = base + n
	g.tailID, g.tailBase = id, base
}

// Pool returns the open segments.
func (l *Log) Pool() []*Segment { return l.pool }

// Used ends a record in g, whose log now ends at end: its owner is no
// longer inside one.
func (l *Log) Used(g *Segment, end int64) {
	l.clock++
	g.Busy, g.used, g.end = false, l.clock, end
}

// without returns segs without g.
func without(segs []*Segment, g *Segment) []*Segment {
	return slices.DeleteFunc(segs, func(c *Segment) bool { return c == g })
}

// Retire closes an open segment and drops it from the pool; its files stay
// while they hold blocks.
func (l *Log) Retire(g *Segment) error {
	if !g.Open() {
		return nil
	}
	l.free, l.pool = without(l.free, g), without(l.pool, g)
	err := errors.Join(g.log.Close(), g.man.Close())
	g.log, g.man, g.Owner = nil, nil, nil
	return err
}

// Release takes g from its owner: to the free list, or retired once it is
// full, the pool is over its size or the log is closed.
func (l *Log) Release(g *Segment) error {
	g.Owner, g.Busy = nil, false
	if l.closed || g.end >= RotateBytes || len(l.pool) > PoolSegments {
		return l.Retire(g)
	}
	l.free = append(l.free, g)
	return l.emptyIfUnused(g)
}

// emptyIfUnused truncates an open, ownerless segment that holds no block
// so the next owner starts it afresh instead of creating another.
func (l *Log) emptyIfUnused(g *Segment) error {
	if !g.Open() || g.Owner != nil || g.live > 0 || (g.end == 0 && g.manEnd == 0) {
		return nil
	}
	if errors.Join(g.log.Truncate(0), g.man.Truncate(0)) != nil {
		return l.Retire(g)
	}
	g.end, g.manEnd, g.tailID, g.tailBase = 0, 0, "", 0
	return nil
}

// Append appends block id, one record, at the next 8-aligned offset of a
// segment's log, each part of rec in its own write, then its header line
// and one Trail entry line naming the whole record, and returns the
// segment and the base. A failed write cuts the log back or retires the
// segment. Appends are serialised, so one segment takes them all while
// nothing else takes from the pool. Append takes the Log's lock itself.
func (l *Log) Append(id string, rec ...[]byte) (*Segment, int64, error) {
	l.amu.Lock()
	defer l.amu.Unlock()
	l.Lock()
	g, err := (*Segment)(nil), errClosed
	if !l.closed {
		g, err = l.Take(l)
	}
	l.Unlock()
	if err != nil {
		return nil, 0, err
	}
	// The log's end is read, not taken from End: a file cut behind the
	// pool's back must not misplace the record. Padding is a cheap extend.
	end, err := g.log.Seek(0, io.SeekEnd)
	base, n, atEnd := (end+7)&^7, int64(0), err == nil
	if err == nil && base > end {
		err = g.log.Truncate(base)
	}
	for _, b := range rec {
		if n += int64(len(b)); err == nil && len(b) > 0 {
			_, err = g.log.Write(b)
		}
	}
	manFailed := false
	if err == nil {
		_, err = g.AppendMan(fmt.Appendf(Header(id, base, time.Now()), "{\"file\":%q,\"bytes\":%d}\n", Trail, n))
		manFailed = err != nil
	}
	retire := err != nil && (!atEnd || manFailed || g.log.Truncate(end) != nil)
	l.Lock()
	defer l.Unlock()
	if err == nil {
		g.live++
		end = base + n
	}
	l.Used(g, end)
	l.Release(g)
	if retire {
		l.Retire(g)
	}
	return g, base, err
}

// Drop ends the block id at [base, base+limit) in g: Tombstone, then
// Free, which keeps the spans in the range that have referrers, held
// until their last referrer goes.
func (l *Log) Drop(g *Segment, id string, base, limit int64) error {
	if err := l.Tombstone(g, id, base); err != nil {
		return err
	}
	for k, r := range g.spans {
		if !r.held && k[0] >= base && k[1] <= base+limit-k[0] {
			r.held = true
			g.live++
			l.held += k[1]
		}
	}
	return l.Free(g, base, limit)
}

// Tombstone appends the line that ends block id at base to g's manifest,
// so no later scan indexes it; its bytes stay until Free.
func (l *Log) Tombstone(g *Segment, id string, base int64) error {
	q, _ := json.Marshal(id)
	t := fmt.Appendf(nil, "{\"tombstone\":%s,\"base\":%d}\n", q, base)
	if g.Open() {
		_, err := g.AppendMan(t)
		return err
	}
	return appendLine(g.path+".jsonl", t)
}

// Free gives back the range [base, base+limit) of a block or span g no
// longer holds: a pooled segment it leaves holding nothing is emptied, a
// segment on disk it leaves so is deleted unless another process holds
// it, and otherwise the range is punched out of the log, but for the
// spans in it that have referrers.
func (l *Log) Free(g *Segment, base, limit int64) error {
	g.live--
	switch {
	case g.live == 0 && g.Open() && g.Owner == nil:
		return l.emptyIfUnused(g)
	case g.live == 0 && !g.Open() && unused(g.path+".log"):
		return l.remove(g)
	case g.Open():
		g.punch(g.log, base, base+limit)
	default:
		if lf, err := os.OpenFile(g.path+".log", os.O_WRONLY, 0); err == nil {
			g.punch(lf, base, base+limit)
			lf.Close()
		}
	}
	return nil
}

// punch punches [from, to) out of f, g's log, but for g's referenced
// spans.
func (g *Segment) punch(f *os.File, from, to int64) {
	var keep [][2]int64
	for k := range g.spans {
		if k[0] < to && k[0]+k[1] > from {
			keep = append(keep, k)
		}
	}
	slices.SortFunc(keep, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	for _, k := range keep {
		if k[0] > from {
			punchHole(f, from, k[0]-from)
		}
		from = max(from, k[0]+k[1])
	}
	if to > from {
		punchHole(f, from, to-from)
	}
}

// Ref counts a referrer of sp, a span of a block's range.
func (l *Log) Ref(sp Span) {
	g := sp.Seg
	if g.spans == nil {
		g.spans = map[[2]int64]*referrers{}
	}
	k := [2]int64{sp.Off, sp.N}
	if g.spans[k] == nil {
		g.spans[k] = &referrers{}
	}
	g.spans[k].n++
}

// Unref drops a referrer of sp; the last of a held span frees it.
func (l *Log) Unref(sp Span) error {
	g, k := sp.Seg, [2]int64{sp.Off, sp.N}
	r := g.spans[k]
	if r == nil {
		return nil
	}
	if r.n--; r.n > 0 {
		return nil
	}
	delete(g.spans, k)
	if !r.held {
		return nil
	}
	l.held -= sp.N
	return l.Free(g, sp.Off, sp.N)
}

// Held reports whether sp's block was dropped while sp had referrers, so
// that its bytes stay until they go.
func (l *Log) Held(sp Span) bool {
	r := sp.Seg.spans[[2]int64{sp.Off, sp.N}]
	return r != nil && r.held
}

// HeldBytes returns the bytes of held spans: ranges of dropped blocks
// kept for their referrers.
func (l *Log) HeldBytes() int64 { return l.held }

// Named returns the segment whose log's name is name, if the Log knows
// it: a bare seg-<unique>.log name; any other name, a path included,
// names none.
func (l *Log) Named(name string) *Segment { return l.segs[name] }

// appendLine appends a line to a manifest this process does not hold
// open, after a newline if the file ends in a torn line.
func appendLine(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if st, err := f.Stat(); err == nil && st.Size() > 0 {
		last := make([]byte, 1)
		if _, err := f.ReadAt(last, st.Size()-1); err == nil && last[0] != '\n' {
			b = append([]byte{'\n'}, b...)
		}
	}
	_, err = f.Write(b)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
