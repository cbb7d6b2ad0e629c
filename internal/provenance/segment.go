package provenance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"path/filepath"
	"sync"
	"time"

	"infera/internal/seglog"
)

// slot is the index's record of one session: where its block is, not its
// entries. Seg is nil until its first record, and Time is when its block
// was started (until then, when it was claimed). removed: the session has
// left the index and takes no more records.
type slot struct {
	seglog.Block
	removed bool
}

// state is the per-process view of one store root, shared by every Store
// over it so that each ID is claimed once: the ID index over the root's
// segment pool, whose lock guards both, and the repeated tables' map.
type state struct {
	*seglog.Log
	root    string
	refs    int // guarded by statesMu
	index   map[string]*slot
	repeats map[string]repeat
	stats   Stats
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
		// One process at a time: referrer counts live in this process only.
		if err := seglog.Hold(abs); err != nil {
			return nil, fmt.Errorf("provenance: store: %w", err)
		}
		if st, err = scan(abs); err != nil {
			seglog.Unhold(abs)
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
	defer seglog.Unhold(st.root)
	return st.Close()
}

// scan indexes every segment under root, one block per session: when two
// segments (say, another process's and this one's) hold a live block of
// one ID, the block with more entries wins, the later one (by segment
// name, then base) on a tie, and the choice is logged.
func scan(root string) (*state, error) {
	lg, blocks, err := seglog.Open(root, func(blocks []*seglog.Block) []*seglog.Block {
		won := map[string]*seglog.Block{}
		for _, b := range blocks {
			if w := won[b.ID]; w != nil {
				log.Printf("provenance: session %q has blocks in %s (base %d, %d entries) and %s (base %d, %d entries); keeping the one with more entries, or the later on a tie",
					b.ID, w.Seg.Path(), w.Base, w.Entries, b.Seg.Path(), b.Base, b.Entries)
				if w.Entries > b.Entries {
					continue
				}
			}
			won[b.ID] = b
		}
		kept := make([]*seglog.Block, 0, len(won))
		for _, b := range won {
			kept = append(kept, b)
		}
		return kept
	})
	if err != nil {
		return nil, err
	}
	st := &state{Log: lg, root: root, index: map[string]*slot{}, repeats: map[string]repeat{}}
	for _, b := range blocks {
		sl := &slot{Block: *b}
		st.index[b.ID] = sl
		if sl.Tail && len(sl.Refs) > 0 {
			st.uncut(sl)
		}
	}
	st.PunchDead()
	return st, nil
}

// uncut drops the references that sl, a segment's last block, loses to
// OpenSession's tail cut from its Refs, which Open counted: the last
// span of Refs is a dropped reference's when it names the same range.
func (st *state) uncut(sl *slot) {
	es, err := sl.entries()
	if err != nil {
		return
	}
	for i, cut := len(es)-1, tailCut(es, sl.Limit); i >= cut; i-- {
		e, n := es[i], len(sl.Refs)
		if n == 0 {
			return
		}
		if sp := sl.Refs[n-1]; e.File != logName && sp.Seg.Name() == e.File && sp.Off == e.Offset && sp.N == e.Bytes {
			st.Unref(sp)
			sl.Refs = sl.Refs[:n-1]
		}
	}
}

// release gives s's segment back to the pool, if s still holds it. Caller
// holds st's lock.
func (st *state) release(s *Session) error {
	g := s.seg
	s.seg = nil
	if g == nil || g.Owner != s {
		return nil
	}
	return st.Release(g)
}

// remove drops session id from the index, giving back a segment it still
// holds, and drops its block, then its references. Caller holds st's
// lock.
func (st *state) remove(id string) error {
	sl, ok := st.index[id]
	if !ok {
		return nil
	}
	for _, g := range st.Pool() {
		if w, ok := g.Owner.(*Session); ok && w.slot == sl {
			if g.Busy {
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
	if sl.Seg == nil {
		return nil
	}
	if err := st.Drop(sl.Seg, id, sl.Base, sl.Limit); err != nil {
		return err
	}
	var errs []error
	for _, sp := range sl.Refs {
		errs = append(errs, st.Unref(sp))
	}
	sl.Refs = nil
	return errors.Join(errs...)
}

// claim makes s the owner of a segment whose log ends with s's trail, and
// marks it inside a record. A session that holds none takes one, carrying
// on in place when its block still ends its own free segment, and moving
// its trail into the new one otherwise.
func (st *state) claim(s *Session) (*seglog.Segment, error) {
	st.Lock()
	if s.slot.removed {
		st.Unlock()
		return nil, fmt.Errorf("provenance: session %q was removed", s.ID)
	}
	if g := s.seg; g != nil && g.Owner == s {
		g.Busy = true
		st.Unlock()
		return g, nil
	}
	sl := s.slot
	if g := sl.Seg; st.Resume(g, s, s.ID, sl.Base, s.end) {
		s.seg, s.base, s.path = g, sl.Base, g.Path()+".log"
		st.Unlock()
		return g, nil
	}
	g, err := st.Take(s)
	if err != nil {
		st.Unlock()
		return nil, err
	}
	old := *sl
	s.seg, s.base, s.path = g, g.End(), g.Path()+".log"
	s.hdr = seglog.Header(s.ID, s.base, time.Now())
	st.Unlock()
	if old.Seg == nil {
		return g, nil // the header goes out with the first entry line
	}
	if err := st.move(s, g, old); err != nil {
		st.Lock()
		st.release(s)
		st.Retire(g) // its files may end in a partial copy
		st.Unlock()
		return nil, err
	}
	return g, nil
}

// move copies s's trail, its own bytes and its manifest lines, from its
// old block to the end of g, then drops the old block: the spans of it
// that others reference stay, and s's references move with its lines.
func (st *state) move(s *Session, g *seglog.Segment, old slot) error {
	if s.end > old.Limit {
		return fmt.Errorf("provenance: session %q: trail of %d bytes overruns its %d-byte range", s.ID, s.end, old.Limit)
	}
	if err := g.CopyIn(old.Seg.Path()+".log", old.Base, s.end, s.base); err != nil {
		g.File().Truncate(s.base)
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
	mEnd, err := g.AppendMan(lines.Bytes())
	st.Lock()
	defer st.Unlock()
	if err != nil {
		g.File().Truncate(s.base)
		return err
	}
	s.hdr = nil
	st.placed(s, g, mEnd-int64(lines.Len()), mEnd)
	return st.Drop(old.Seg, s.ID, old.Base, old.Limit)
}

// placed points s's slot at its new block in g, whose lines are
// [hdrOff, mEnd). Caller holds st's lock.
func (st *state) placed(s *Session, g *seglog.Segment, hdrOff, mEnd int64) {
	s.slot.Block = seglog.Block{ID: s.ID, Seg: g, Base: s.base, Limit: s.end, HdrOff: hdrOff, MEnd: mEnd, Time: time.Now().UnixNano(), Refs: s.slot.Refs}
	st.Placed(g, s.ID, s.base, s.end)
}

// done ends a record that claim began. When ok, the session's end has
// moved past the artifact and its manifest lines (the header too, if it
// was pending) end at mEnd; otherwise the references the record counted
// are dropped. retire drops a segment whose files are no longer known to
// end where the records left them.
func (st *state) done(s *Session, g *seglog.Segment, ok, retire bool, lineBytes, mEnd int64) {
	st.Lock()
	defer st.Unlock()
	for ; !ok && s.pending > 0; s.pending-- {
		refs := s.slot.Refs
		st.Unref(refs[len(refs)-1])
		s.slot.Refs = refs[:len(refs)-1]
	}
	s.pending = 0
	end := g.End()
	if ok {
		if s.hdr != nil {
			s.hdr = nil
			st.placed(s, g, mEnd-lineBytes, mEnd)
		}
		sl := s.slot
		sl.Limit, sl.MEnd = s.end, mEnd
		end = s.base + s.end
	}
	st.Used(g, end)
	if retire {
		st.release(s)
		st.Retire(g)
	}
}

// locate returns the log of the segment reference e names: one the
// root's Log knows, named bare. Read checks the range against the file.
func (st *state) locate(e Entry) (string, int64, error) {
	st.Lock()
	g := st.Named(e.File)
	st.Unlock()
	if g == nil {
		return "", 0, fmt.Errorf("provenance: seq %d: %q is not the session's trail or a segment of the store", e.Seq, e.File)
	}
	return g.Path() + ".log", e.Offset, nil
}

// branchRef counts s as a referrer of the span that holds from's artifact
// e, and returns it: a range of from's block, or the span e references.
// An empty artifact has no span to count. A span past its log's end is
// counted as named: the branch then fails Read and Verify there, as its
// source does. Caller holds s.mu, inside a record.
func (st *state) branchRef(s, from *Session, e Entry) (seglog.Span, error) {
	st.Lock()
	defer st.Unlock()
	sp, sl := seglog.Span{Seg: st.Named(e.File), Off: e.Offset, N: e.Bytes}, from.slot
	if e.File == logName && !sl.removed && within(e, sl.Limit) {
		sp.Seg, sp.Off = sl.Seg, sl.Base+e.Offset
	}
	if sp.Seg == nil || !within(Entry{Offset: sp.Off, Bytes: sp.N}, math.MaxInt64) {
		return sp, fmt.Errorf("seq %d of %q: %q [%d, +%d) is not a range of the session's trail or a segment of the store", e.Seq, from.ID, e.File, e.Offset, e.Bytes)
	}
	if sp.N > 0 {
		s.ref(sp)
	}
	return sp, nil
}
