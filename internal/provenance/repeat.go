package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"sync/atomic"

	"infera/internal/seglog"
	"infera/internal/telemetry"
)

// maxRepeats bounds a root's map of repeated tables.
const maxRepeats = 1024

// repeat is where a keyed table went: entry e of the session whose index
// record is sl.
type repeat struct {
	sl *slot
	e  Entry
}

// Stats counts how a root's artifacts were written in this process: bytes
// hashed as written, bytes of repeated tables recorded as references, and
// keyed tables referenced or formatted.
type Stats struct {
	EncodedBytes    int64
	ReferencedBytes int64
	OriginHits      int64
	OriginMisses    int64
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
	r.SetHelp("infera_provenance_artifact_bytes_total", "Bytes of provenance artifacts recorded, by how: encoded (formatted and hashed) or referenced (an entry naming bytes the trail already holds).")
	series("infera_provenance_artifact_bytes_total", "how", "encoded", func(st Stats) int64 { return st.EncodedBytes })
	series("infera_provenance_artifact_bytes_total", "how", "referenced", func(st Stats) int64 { return st.ReferencedBytes })
	r.SetHelp("infera_provenance_origin_lookups_total", "Tables with an origin key recorded, by result: hit (a reference to the trail's earlier copy) or miss (formatted).")
	series("infera_provenance_origin_lookups_total", "result", "hit", func(st Stats) int64 { return st.OriginHits })
	series("infera_provenance_origin_lookups_total", "result", "miss", func(st Stats) int64 { return st.OriginMisses })
}

var verifyRepeats atomic.Bool // VerifyRepeats' switch

// VerifyRepeats is a test hook: while on, every table recorded as a
// reference is also formatted and hashed, and the record fails when the
// bytes it names or their digest differ.
func VerifyRepeats(on bool) { verifyRepeats.Store(on) }

// source returns the span holding r's bytes: in its session's block, or,
// once the session was removed, in a span of it held for referrers.
// Caller holds st's lock.
func (st *state) source(r repeat) (seglog.Span, bool) {
	sl := r.sl
	if sl.Seg == nil || !within(r.e, sl.Limit) {
		return seglog.Span{}, false
	}
	sp := seglog.Span{Seg: sl.Seg, Off: sl.Base + r.e.Offset, N: r.e.Bytes}
	return sp, !sl.removed || st.Held(sp)
}

// reference points e at the bytes of the table key names, if this process
// formatted it and its bytes are still held, and counts s as their
// referrer until the record ends (see done). Caller holds s.mu, inside a
// record.
func (s *Session) reference(key string, e *Entry) bool {
	st := s.st
	st.Lock()
	defer st.Unlock()
	r, ok := st.repeats[key]
	if !ok {
		return false
	}
	sp, held := st.source(r)
	if !held {
		delete(st.repeats, key)
		return false
	}
	s.ref(sp)
	e.File, e.Offset, e.Bytes, e.SHA256 = sp.Seg.Name(), sp.Off, sp.N, r.e.SHA256
	return true
}

// ref counts s as a referrer of sp, pending until its record ends. Caller
// holds st's lock.
func (s *Session) ref(sp seglog.Span) {
	s.st.Ref(sp)
	s.slot.Refs = append(s.slot.Refs, sp)
	s.pending++
}

// checkReference formats the table e references with write and fails
// unless its bytes and digest are the ones e names.
func checkReference(e Entry, path string, write func(io.Writer) error) error {
	var want bytes.Buffer
	if err := write(&want); err != nil {
		return err
	}
	got, err := readRange(path, e.Offset, e.Bytes)
	if err != nil {
		return err
	}
	if sum := sha256.Sum256(want.Bytes()); !bytes.Equal(got, want.Bytes()) || hex.EncodeToString(sum[:]) != e.SHA256 {
		return errors.New("provenance: a repeated table's reference differs from its encoding")
	}
	return nil
}

// readRange reads n bytes at off of the file at path, checking the range
// against the file's size before it allocates.
func readRange(path string, off, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if n < 0 || off < 0 || n > info.Size() || off > info.Size()-n {
		return nil, errors.New("past the end")
	}
	data := make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
	}
	return data, nil
}

// counted counts the record e of the session whose index record is sl,
// and remembers a formatted table.
func (st *state) counted(sl *slot, key string, e Entry) {
	st.Lock()
	defer st.Unlock()
	switch {
	case e.File != logName:
		st.stats.ReferencedBytes += e.Bytes
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
		st.repeats[key] = repeat{sl: sl, e: e}
	}
	st.stats.EncodedBytes += e.Bytes
}
