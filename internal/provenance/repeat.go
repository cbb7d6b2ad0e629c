package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"sync/atomic"

	"infera/internal/seglog"
	"infera/internal/telemetry"
)

// maxRepeats bounds a root's map of repeated tables.
const maxRepeats = 1024

// repeat is where a keyed table went: entry e of session id's trail.
type repeat struct {
	id string
	e  Entry
}

// Stats counts how a root's artifacts were written in this process: bytes
// hashed as written, bytes copied, and keyed tables copied or formatted.
type Stats struct {
	EncodedBytes int64
	CopiedBytes  int64
	OriginHits   int64
	OriginMisses int64
}

// Stats returns the counts of the store's root.
func (s *Store) Stats() Stats {
	s.st.Lock()
	defer s.st.Unlock()
	return s.st.stats
}

// SetMetrics exports the root's counts into r (if not nil) with labels.
func (s *Store) SetMetrics(r *telemetry.Registry, labels ...telemetry.Label) {
	if r == nil {
		return
	}
	series := func(name, key, value string, v func(Stats) int64) {
		r.CounterFunc(name, func() int64 { return v(s.Stats()) }, append(labels[:len(labels):len(labels)], telemetry.L(key, value))...)
	}
	r.SetHelp("infera_provenance_artifact_bytes_total", "Bytes of provenance artifacts recorded, by how: encoded (formatted and hashed) or copied (a repeated table copied from the trail).")
	series("infera_provenance_artifact_bytes_total", "how", "encoded", func(st Stats) int64 { return st.EncodedBytes })
	series("infera_provenance_artifact_bytes_total", "how", "copied", func(st Stats) int64 { return st.CopiedBytes })
	r.SetHelp("infera_provenance_origin_lookups_total", "Tables with an origin key recorded, by result: hit (copied from the trail) or miss (formatted).")
	series("infera_provenance_origin_lookups_total", "result", "hit", func(st Stats) int64 { return st.OriginHits })
	series("infera_provenance_origin_lookups_total", "result", "miss", func(st Stats) int64 { return st.OriginMisses })
}

var verifyRepeats atomic.Bool // VerifyRepeats' switch
var copyStarting func()       // set by tests: runs between a hit's lookup and copy

// VerifyRepeats is a test hook: while on, every table copied from the
// trail is also formatted and hashed, and the record fails when the
// copy's bytes or digest differ. It doubles the cost of a hit.
func VerifyRepeats(on bool) { verifyRepeats.Store(on) }

// resolve returns the slot of r's session and the block it had, if the
// session still holds r's range. Caller holds st's lock.
func (st *state) resolve(r repeat) (*slot, seglog.Block, bool) {
	sl := st.index[r.id]
	if sl == nil || sl.removed || sl.Seg == nil || !within(r.e, sl.Limit) {
		return nil, seglog.Block{}, false
	}
	return sl, sl.Block, true
}

// copyRepeat copies the table key names to the end of g's log, where e's
// bytes go, and fills in e's size and digest. It reports false, the log
// as it was, when key names none or its session's block did not stay put
// (removed, moved) for the whole copy. Caller holds s.mu, inside a record.
func (s *Session) copyRepeat(g *seglog.Segment, key string, e *Entry, write func(io.Writer) error) (bool, error) {
	st, at := s.st, s.base+s.end
	st.Lock()
	r, ok := st.repeats[key]
	sl, b, held := st.resolve(r)
	st.Unlock()
	if !ok || !held {
		return false, nil
	}
	if copyStarting != nil {
		copyStarting()
	}
	err := g.CopyIn(b.Seg.Path()+".log", b.Base+r.e.Offset, r.e.Bytes, at)
	st.Lock()
	now, nb, held := st.resolve(r)
	if intact := held && now == sl && nb.Seg == b.Seg && nb.Base == b.Base; !intact || err != nil {
		if st.repeats[key] == r {
			delete(st.repeats, key)
		}
		st.Unlock()
		return false, g.File().Truncate(at)
	}
	st.Unlock()
	if verifyRepeats.Load() {
		var want bytes.Buffer
		got := make([]byte, r.e.Bytes)
		if err := write(&want); err != nil {
			return false, err
		}
		if _, err := g.File().ReadAt(got, at); err != nil {
			return false, err
		}
		if sum := sha256.Sum256(want.Bytes()); !bytes.Equal(got, want.Bytes()) || hex.EncodeToString(sum[:]) != r.e.SHA256 {
			return false, errors.New("provenance: a repeated table's copy differs from its encoding")
		}
	}
	e.Bytes, e.SHA256 = r.e.Bytes, r.e.SHA256
	return true, nil
}

// counted counts session id's record e and remembers a formatted table.
func (st *state) counted(id, key string, e Entry, copied bool) {
	st.Lock()
	defer st.Unlock()
	switch {
	case copied:
		st.stats.CopiedBytes += e.Bytes
		st.stats.OriginHits++
		return
	case key != "":
		st.stats.OriginMisses++
		if _, ok := st.repeats[key]; !ok && len(st.repeats) >= maxRepeats {
			for k := range st.repeats {
				delete(st.repeats, k)
				break
			}
		}
		st.repeats[key] = repeat{id: id, e: e}
	}
	st.stats.EncodedBytes += e.Bytes
}
