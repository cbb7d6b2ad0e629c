package provenance

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// rotateBytes retires a segment once its log reaches this size: the
	// session that crossed it keeps its whole range there, and the next
	// session takes another segment.
	rotateBytes = 64 << 20
	// poolSegments is how many open segments a store keeps. Past it, a
	// session that needs one takes the segment whose owner has gone
	// longest without a record (in practice a session that never closed),
	// and that owner moves its trail if it records again. Records in
	// progress on every pooled segment still open more.
	poolSegments = 16
)

// header starts a session's block of manifest lines in a segment.
type header struct {
	Session string    `json:"session"`
	Base    int64     `json:"base"`
	Time    time.Time `json:"time"`
}

// tombstone ends the block of session Tombstone that starts at Base.
type tombstone struct {
	Tombstone string `json:"tombstone"`
	Base      int64  `json:"base"`
}

// line is any segment manifest line: a header, a tombstone or an Entry.
type line struct {
	Session   *string   `json:"session"`
	Tombstone *string   `json:"tombstone"`
	Base      int64     `json:"base"`
	Time      time.Time `json:"time"`
	File      string    `json:"file"`
	Offset    int64     `json:"offset"`
	Bytes     int64     `json:"bytes"`
}

// slot is the index's record of one session: where its block is, not its
// entries.
type slot struct {
	seg    *segment // holds the session's block; nil until its first record
	base   int64    // where its range starts in seg's log
	limit  int64    // its range's length
	hdrOff int64    // where its header line starts in seg's manifest
	mEnd   int64    // where its last line ends
	unix   int64    // when its block was started (until then, when it was claimed), in Unix ns
	// tail: the block is the last of a segment this process found on
	// disk, so its last record may be torn.
	tail bool
	// removed: the session has left the index and takes no more records.
	removed bool
}

// segment is one pair of trail files, seg-<unique>.log and .jsonl.
type segment struct {
	path string // without extension
	live int    // slots whose block it holds

	// log and man are open while the segment is in this process's pool;
	// nil for segments found on disk and for retired ones.
	log, man *os.File
	owner    *Session // the session appending to it, if any
	busy     bool     // owner is inside a record
	used     uint64   // the pool clock at its last record
	logEnd   int64    // log length
	// tailID and tailBase name the last header written, so a session
	// whose block ends the log can carry on in place.
	tailID   string
	tailBase int64

	mu     sync.Mutex // serialises appends to man
	manEnd int64
}

func (g *segment) open() bool { return g.log != nil }

// appendMan appends lines to the segment's manifest and returns where they
// end, read back from the file: another process may have appended a
// tombstone since.
func (g *segment) appendMan(b []byte) (int64, error) {
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

// state is the per-process view of one store root, shared by every Store
// opened over it: the ID index and the pool of open segments. It is
// process-wide, not per Store, so that two Stores over one root in one
// process claim each ID once.
type state struct {
	root string
	refs int // guarded by statesMu

	mu     sync.Mutex
	closed bool
	index  map[string]*slot
	pool   []*segment // open segments, owned or free
	free   []*segment // open segments without an owner
	clock  uint64
	made   int
}

var (
	statesMu sync.Mutex
	states   = map[string]*state{}
)

// openState returns root's shared state. The first time, it scans the
// root and converts the older trail directories there into blocks.
func openState(root string) (*state, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	statesMu.Lock()
	defer statesMu.Unlock()
	st := states[abs]
	if st == nil {
		if st, err = scan(abs); err != nil {
			return nil, err
		}
		if err := st.importAll(abs); err != nil {
			log.Print(err)
		}
		states[abs] = st
	}
	st.refs++
	return st, nil
}

// closeState drops one reference; the last closes the pool.
func closeState(st *state) error {
	statesMu.Lock()
	defer statesMu.Unlock()
	if st.refs--; st.refs > 0 {
		return nil
	}
	delete(states, st.root)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.closed = true
	var first error
	for _, g := range append([]*segment(nil), st.free...) {
		if err := st.retire(g); err != nil && first == nil {
			first = err
		}
		if g.live == 0 {
			os.Remove(g.path + ".log")
			os.Remove(g.path + ".jsonl")
		}
	}
	return first
}

// block is one session's block as a scan finds it.
type block struct {
	id                   string
	seg                  *segment
	base, limit, claimed int64
	hdrOff, mEnd         int64
	entries              int
	unix                 int64
	tail, dead           bool
}

// scan indexes every segment under root.
func scan(root string) (*state, error) {
	st := &state{root: root, index: map[string]*slot{}}
	names, err := filepath.Glob(filepath.Join(root, "seg-*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var blocks []*block
	for _, name := range names {
		g := &segment{path: strings.TrimSuffix(name, ".jsonl")}
		bs, err := scanSegment(g)
		if err != nil {
			log.Printf("provenance: skipping segment %s: %v", g.path, err)
			continue
		}
		blocks = append(blocks, bs...)
	}
	won := map[string]*block{}
	for _, b := range blocks {
		if b.dead {
			continue
		}
		if w := won[b.id]; w != nil {
			keep := b
			if w.entries > b.entries {
				keep = w
			}
			log.Printf("provenance: session %q has blocks in %s (base %d) and %s (base %d); keeping the one with more entries, or the later on a tie: %s base %d",
				b.id, w.seg.path, w.base, b.seg.path, b.base, keep.seg.path, keep.base)
			won[b.id] = keep
			continue
		}
		won[b.id] = b
	}
	for id, b := range won {
		b.seg.live++
		st.index[id] = &slot{seg: b.seg, base: b.base, limit: b.limit, hdrOff: b.hdrOff,
			mEnd: b.mEnd, unix: b.unix, tail: b.tail}
	}
	return st, nil
}

// scanSegment reads one segment's manifest into blocks, in file order.
// Headers must not start a range inside the range an earlier block's
// entries claim; one that does is ignored with its entries, so every
// block's range, [base, next accepted base) or to the log's end, is its
// own; an entry that names a file other than the trail claims no range.
// A line that does not parse ends the block it is in, and a last line
// without its newline is a torn write; both are ignored.
func scanSegment(g *segment) ([]*block, error) {
	mf, err := os.Open(g.path + ".jsonl")
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	lst, err := os.Stat(g.path + ".log")
	if err != nil {
		return nil, err
	}
	var blocks []*block
	var cur *block // the block entry lines belong to
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
			cur = nil
			off += n
			continue
		}
		switch {
		case l.Session != nil:
			cur = nil
			if l.Base >= 0 && (len(blocks) == 0 || l.Base >= blocks[len(blocks)-1].end()) {
				cur = &block{id: *l.Session, seg: g, base: l.Base, hdrOff: off, mEnd: off + n, unix: l.Time.UnixNano()}
				blocks = append(blocks, cur)
			}
		case l.Tombstone != nil:
			for _, b := range blocks {
				if b.id == *l.Tombstone && b.base == l.Base {
					b.dead = true
				}
			}
		case cur != nil:
			cur.entries++
			cur.mEnd = off + n
			if l.File == logName && l.Offset >= 0 && l.Bytes >= 0 && l.Offset+l.Bytes >= l.Offset && l.Offset+l.Bytes > cur.claimed {
				cur.claimed = l.Offset + l.Bytes
			}
		}
		off += n
	}
	for i, b := range blocks {
		end := lst.Size()
		if i+1 < len(blocks) {
			end = blocks[i+1].base
		}
		b.limit = max(end-b.base, 0)
		b.tail = i == len(blocks)-1
	}
	return blocks, nil
}

// end is where the block's entries claim its range ends, at most
// math.MaxInt64.
func (b *block) end() int64 {
	if e := b.base + b.claimed; e >= b.base {
		return e
	}
	return math.MaxInt64
}

// create makes a new open segment, O_EXCL so no other store or process
// shares it. Caller holds st.mu.
func (st *state) create() (*segment, error) {
	for tries := 0; ; tries++ {
		st.made++
		path := filepath.Join(st.root, fmt.Sprintf("seg-%016x-%d-%d", time.Now().UnixNano(), os.Getpid(), st.made))
		lf, err := os.OpenFile(path+".log", os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) && tries < 8 {
			continue
		}
		if err != nil {
			return nil, err
		}
		mf, err := os.OpenFile(path+".jsonl", os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			lf.Close()
			os.Remove(path + ".log")
			return nil, err
		}
		lockShared(lf)
		g := &segment{path: path, log: lf, man: mf}
		st.pool = append(st.pool, g)
		return g, nil
	}
}

// take gives s a segment: a free one, a new one while the pool has room or
// every segment is inside a record, or else the one whose owner has gone
// longest without a record. Caller holds st.mu.
func (st *state) take(s *Session) (*segment, error) {
	var g *segment
	if n := len(st.free); n > 0 {
		g, st.free = st.free[n-1], st.free[:n-1]
	} else if len(st.pool) >= poolSegments {
		for _, c := range st.pool {
			if !c.busy && c.owner != nil && (g == nil || c.used < g.used) {
				g = c
			}
		}
		if g != nil {
			g.owner.seg = nil
		}
	}
	if g == nil {
		var err error
		if g, err = st.create(); err != nil {
			return nil, err
		}
	}
	g.owner, g.busy = s, true
	s.seg = g
	return g, nil
}

// unfree removes g from the free list. Caller holds st.mu.
func (st *state) unfree(g *segment) {
	for i, c := range st.free {
		if c == g {
			st.free = append(st.free[:i], st.free[i+1:]...)
			return
		}
	}
}

// retire closes an open segment and drops it from the pool; its files stay
// while they hold sessions. Caller holds st.mu.
func (st *state) retire(g *segment) error {
	if !g.open() {
		return nil
	}
	st.unfree(g)
	for i, c := range st.pool {
		if c == g {
			st.pool = append(st.pool[:i], st.pool[i+1:]...)
			break
		}
	}
	err := g.log.Close()
	if merr := g.man.Close(); err == nil {
		err = merr
	}
	g.log, g.man, g.owner = nil, nil, nil
	return err
}

// release gives s's segment back: to the free list, or retired once it is
// full, the pool is over its size or the store is closed. Caller holds
// st.mu.
func (st *state) release(s *Session) error {
	g := s.seg
	s.seg = nil
	if g == nil || g.owner != s {
		return nil
	}
	g.owner, g.busy = nil, false
	if st.closed || g.logEnd >= rotateBytes || len(st.pool) > poolSegments {
		return st.retire(g)
	}
	st.free = append(st.free, g)
	return st.emptyIfUnused(g)
}

// emptyIfUnused truncates an open, ownerless segment that holds no session
// so the next session starts it afresh instead of creating another.
// Caller holds st.mu.
func (st *state) emptyIfUnused(g *segment) error {
	if !g.open() || g.owner != nil || g.live > 0 || (g.logEnd == 0 && g.manEnd == 0) {
		return nil
	}
	err := g.log.Truncate(0)
	if merr := g.man.Truncate(0); err == nil {
		err = merr
	}
	if err != nil {
		return st.retire(g)
	}
	g.logEnd, g.manEnd, g.tailID, g.tailBase = 0, 0, "", 0
	return nil
}

// dropBlock forgets the block of session id at [base, base+limit) in g:
// an open segment it leaves empty is truncated, a segment on disk it
// leaves empty is deleted unless another process holds it, and otherwise
// a tombstone line ends the block and its bytes are punched out of the
// log. Caller holds st.mu.
func (st *state) dropBlock(g *segment, id string, base, limit int64) error {
	g.live--
	switch {
	case g.live == 0 && g.open() && g.owner == nil:
		return st.emptyIfUnused(g)
	case g.live == 0 && !g.open() && unused(g.path+".log"):
		err := os.Remove(g.path + ".log")
		if merr := os.Remove(g.path + ".jsonl"); err == nil {
			err = merr
		}
		return err
	}
	t, err := json.Marshal(tombstone{Tombstone: id, Base: base})
	if err != nil {
		return err
	}
	t = append(t, '\n')
	if g.open() {
		if _, err := g.appendMan(t); err != nil {
			return err
		}
		punchHole(g.log, base, limit)
		return nil
	}
	if err := appendLine(g.path+".jsonl", t); err != nil {
		return err
	}
	if lf, err := os.OpenFile(g.path+".log", os.O_WRONLY, 0); err == nil {
		punchHole(lf, base, limit)
		lf.Close()
	}
	return nil
}

// remove drops session id from the index, giving back a segment it still
// holds, and drops its block. Caller holds st.mu.
func (st *state) remove(id string) error {
	sl, ok := st.index[id]
	if !ok {
		return nil
	}
	for _, g := range st.pool {
		if w := g.owner; w != nil && w.slot == sl {
			if g.busy {
				return fmt.Errorf("provenance: remove session %q: a record is in progress", id)
			}
			if err := st.release(w); err != nil {
				return err
			}
			break
		}
	}
	delete(st.index, id)
	sl.removed = true
	if sl.seg == nil {
		return nil
	}
	return st.dropBlock(sl.seg, id, sl.base, sl.limit)
}

// lines reads the slot's entry lines: its block's lines but the header and
// any tombstone. A slot without a block has none (fs.ErrNotExist).
func (sl *slot) lines() ([]byte, error) {
	if sl.seg == nil {
		return nil, fs.ErrNotExist
	}
	mf, err := os.Open(sl.seg.path + ".jsonl")
	if err != nil {
		return nil, err
	}
	defer mf.Close()
	data := make([]byte, sl.mEnd-sl.hdrOff)
	if _, err := mf.ReadAt(data, sl.hdrOff); err != nil {
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

// claim makes s the owner of a segment whose log ends with s's trail, and
// marks it inside a record. A session that holds none takes one, carrying
// on in place when its block still ends its own free segment, and moving
// its trail into the new one otherwise.
func (st *state) claim(s *Session) (*segment, error) {
	st.mu.Lock()
	if s.slot.removed {
		st.mu.Unlock()
		return nil, fmt.Errorf("provenance: session %q was removed", s.ID)
	}
	if g := s.seg; g != nil && g.owner == s {
		g.busy = true
		st.mu.Unlock()
		return g, nil
	}
	sl := s.slot
	if g := sl.seg; g != nil && g.open() && g.owner == nil && g.tailID == s.ID && g.tailBase == sl.base && g.logEnd == sl.base+s.end {
		st.unfree(g)
		g.owner, g.busy = s, true
		s.seg, s.base, s.path = g, sl.base, g.path+".log"
		st.mu.Unlock()
		return g, nil
	}
	g, err := st.take(s)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	old := *sl
	s.base, s.path = g.logEnd, g.path+".log"
	s.hdr = newHeader(s.ID, s.base, time.Now())
	st.mu.Unlock()
	if old.seg == nil {
		return g, nil // the header goes out with the first entry line
	}
	if err := st.move(s, g, old); err != nil {
		st.mu.Lock()
		st.release(s)
		st.retire(g) // its files may end in a partial copy
		st.mu.Unlock()
		return nil, err
	}
	return g, nil
}

// newHeader returns the header line of session id's block at base,
// started at.
func newHeader(id string, base int64, at time.Time) []byte {
	h, _ := json.Marshal(header{Session: id, Base: base, Time: at.UTC()})
	return append(h, '\n')
}

// move copies s's trail, bytes and manifest lines, from its old block to
// the end of g, then drops the old block.
func (st *state) move(s *Session, g *segment, old slot) error {
	if s.end > old.limit {
		return fmt.Errorf("provenance: session %q: trail of %d bytes overruns its %d-byte range", s.ID, s.end, old.limit)
	}
	src, err := os.Open(old.seg.path + ".log")
	if err != nil {
		return err
	}
	defer src.Close()
	if _, err := io.Copy(g.log, io.NewSectionReader(src, old.base, s.end)); err != nil {
		g.log.Truncate(s.base)
		return err
	}
	lines := bytes.NewBuffer(s.hdr)
	for _, e := range s.entries {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		lines.Write(append(b, '\n'))
	}
	mEnd, err := g.appendMan(lines.Bytes())
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		g.log.Truncate(s.base)
		return err
	}
	s.hdr = nil
	st.placed(s, g, mEnd-int64(lines.Len()), mEnd)
	return st.dropBlock(old.seg, s.ID, old.base, old.limit)
}

// placed points s's slot at its new block in g, whose lines are
// [hdrOff, mEnd). Caller holds st.mu.
func (st *state) placed(s *Session, g *segment, hdrOff, mEnd int64) {
	*s.slot = slot{seg: g, base: s.base, limit: s.end, hdrOff: hdrOff, mEnd: mEnd, unix: time.Now().UnixNano()}
	g.live++
	g.logEnd = s.base + s.end
	g.tailID, g.tailBase = s.ID, s.base
}

// done ends a record that claim began. When ok, the session's end has
// moved past the artifact and its manifest lines (the header too, if it
// was pending) end at mEnd. retire drops a segment whose files are no
// longer known to end where the records left them.
func (st *state) done(s *Session, g *segment, ok, retire bool, lineBytes, mEnd int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.clock++
	g.busy, g.used = false, st.clock
	if ok {
		if s.hdr != nil {
			s.hdr = nil
			st.placed(s, g, mEnd-lineBytes, mEnd)
		}
		sl := s.slot
		sl.limit, sl.mEnd = s.end, mEnd
		g.logEnd = s.base + s.end
	}
	if retire {
		st.release(s)
		st.retire(g)
	}
}
