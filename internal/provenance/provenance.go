// Package provenance implements InferA's audit trail (§4.2.1): every
// intermediate CSV, generated code text, plot, scene and summary is
// recorded as a sequentially numbered artifact with a SHA-256 hash in an
// append-only manifest, and every node transition can checkpoint the full
// workflow state, enabling verification, replay and branch-from-checkpoint
// exploration.
//
// # Layout
//
// A store's directory holds trail segments (package seglog): pairs of
// append-only files, seg-<unique>.log and seg-<unique>.jsonl, that many
// sessions share one after another. A session's trail is one block: a
// contiguous range of one segment's log, and in its manifest a header
// {"session":id,"base":b,"time":t} then one JSON Entry per artifact in
// seq order. Entry lines are the ones a per-session manifest.jsonl holds:
// File is "trail.log" and [Offset, Offset+Bytes) is relative to the
// session's range, so a session reads the same whichever segment holds it.
// A reference entry names bytes the store already holds instead: File is
// a segment's log, seg-<unique>.log, and Offset is absolute in it.
//
// A new session claims its ID in the store's in-memory index, takes a
// segment from the pool at its first record and gives it back at Close, so
// an ask creates no file once the pool is warm. A session whose segment
// another took while it was idle moves its trail if it records again.
// Removing a session drops its block (a tombstone, then a punched range,
// but for the spans references hold) and its references.
// Opening a store indexes every segment, one block per session (see
// scan); an entry at a segment's tail whose bytes a crash cut is dropped.
//
// Older daemons kept each trail in a directory, <root>/<id>/. The first
// open of a store in a process converts each such directory into a block
// and removes it (see Import), so a store reads only segments.
//
// A failed record truncates the log back to where it started, so a range
// only ever holds the ranges its entries name, contiguously and in seq
// order. One Session value at a time may record into a session.
//
// # Repeated tables
//
// A table whose origin key this process formatted is recorded as a
// reference to the bytes it wrote then, with their known digest: nothing
// is formatted, hashed or written but the entry line (repeat.go). A
// reference always names a formatted original, never another reference,
// and Branch references its source's artifacts the same way. The segment
// log counts each span's referrers: removing or moving the session that
// holds a referenced span tombstones its block at once, but the span's
// bytes stay until the last referrer is removed (HeldBytes). Opening a
// store counts the references again, but for those a crash cut drops, and
// punches the tombstoned ranges no reference holds. The counts live in
// one process, so a root belongs to one: the first Store over it holds it
// (seglog.Hold) until the last one closes, and another process's
// NewStore fails meanwhile.
package provenance

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"infera/internal/dataframe"
	"infera/internal/seglog"
)

// Entry is one manifest line.
type Entry struct {
	Seq    int    `json:"seq"`
	Agent  string `json:"agent"` // which agent produced the artifact
	Kind   string `json:"kind"`  // "data" | "code" | "plot" | "scene" | "summary" | "checkpoint" | ...
	Name   string `json:"name"`
	File   string `json:"file"` // "trail.log", the session's trail, or a segment's log for a reference
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	// Offset is where the artifact's Bytes start: in the session's range,
	// or in File for a reference.
	Offset int64 `json:"offset,omitempty"`
}

// Store manages sessions under a root directory. Every Store over one root
// in a process shares that root's index and segment pool.
type Store struct {
	Root string
	st   *state

	closeOnce sync.Once
}

// NewStore creates (if needed) and returns a store rooted at dir, reading
// the segments already there unless another open Store in this process
// has. It fails while another process holds dir (see Repeated tables).
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := openState(dir)
	if err != nil {
		return nil, err
	}
	return &Store{Root: dir, st: st}, nil
}

// Close releases the store. When it is the last open Store over its root
// in this process, the pool's free segments are closed (and deleted if
// they hold no session); a session still recording closes its own segment
// at its Close. Close the store after its sessions.
func (s *Store) Close() error {
	var err error
	s.closeOnce.Do(func() { err = closeState(s.st) })
	return err
}

// Session is one workflow's provenance record.
type Session struct {
	ID string
	st *state

	mu      sync.Mutex
	seq     int
	entries []Entry
	end     int64 // the trail's length: where the next artifact goes

	// Its trail is limit bytes at base of the log at path.
	slot        *slot
	path        string
	base, limit int64
	seg         *seglog.Segment // the segment it appends to while it holds one; guarded by st's lock
	hdr         []byte          // its header line, until a record writes it
	pending     int             // the references its record in progress counted
}

// logName is the File of every entry but a reference: the session's
// trail.
const logName = seglog.Trail

// NewSession claims a fresh session ID. Concurrent callers racing on one
// ID, through any Store over this root in this process, get exactly one
// winner.
func (s *Store) NewSession(id string) (*Session, error) {
	if id == "" || id == "." || id == ".." || strings.ContainsAny(id, `/\`) {
		return nil, fmt.Errorf("provenance: bad session id %q", id)
	}
	st := s.st
	st.Lock()
	defer st.Unlock()
	if _, ok := st.index[id]; ok {
		return nil, fmt.Errorf("provenance: session %q already exists", id)
	}
	sl := &slot{Block: seglog.Block{Time: time.Now().UnixNano()}}
	st.index[id] = sl
	return &Session{ID: id, st: st, slot: sl}, nil
}

// OpenSession loads an existing session and its manifest. A session that
// is claimed but has recorded nothing does not exist yet (fs.ErrNotExist).
func (s *Store) OpenSession(id string) (*Session, error) {
	st := s.st
	st.Lock()
	var snap slot
	sl := st.index[id]
	if sl != nil {
		snap = *sl
	}
	st.Unlock()
	es, err := snap.entries()
	if err != nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, err)
	}
	if snap.Tail {
		es = es[:tailCut(es, snap.Limit)]
	}
	sess := &Session{ID: id, st: st, slot: sl, path: snap.Seg.Path() + ".log", base: snap.Base, limit: snap.Limit}
	for _, e := range es {
		sess.add(e)
	}
	return sess, nil
}

// entries parses the block's entry lines.
func (sl *slot) entries() ([]Entry, error) {
	lines, err := sl.Lines()
	if err != nil {
		return nil, err
	}
	var es []Entry
	for _, l := range bytes.Split(lines, []byte("\n")) {
		e, ok, err := parseLine(l)
		if err != nil {
			return nil, err
		}
		if ok {
			es = append(es, e)
		}
	}
	return es, nil
}

// tailCut returns how many of es, a segment's last block's entries, a
// crash left whole: it may have cut the log inside the last entries, so
// those whose bytes run past the block's limit bytes are dropped, with
// the references recorded after them.
func tailCut(es []Entry, limit int64) int {
	cut := len(es)
	for i := len(es) - 1; i >= 0 && (es[i].File != logName || !within(es[i], limit)); i-- {
		if es[i].File == logName {
			cut = i
		}
	}
	return cut
}

// parseLine parses one manifest line; a blank line holds no entry.
func parseLine(l []byte) (e Entry, ok bool, err error) {
	if len(bytes.TrimSpace(l)) == 0 {
		return Entry{}, false, nil
	}
	if err := json.Unmarshal(l, &e); err != nil {
		return Entry{}, false, fmt.Errorf("provenance: manifest line: %w", err)
	}
	return e, true, nil
}

// add appends a loaded entry and moves the next seq, and the trail's end
// unless it is a reference, past it.
func (s *Session) add(e Entry) {
	s.entries = append(s.entries, e)
	if e.Seq >= s.seq {
		s.seq = e.Seq + 1
	}
	if end := e.Offset + e.Bytes; e.File == logName && e.Offset >= 0 && e.Bytes >= 0 && end > s.end {
		s.end = end
	}
}

// within reports whether e's range lies in the first n bytes of a file.
func within(e Entry, n int64) bool {
	return e.Offset >= 0 && e.Bytes >= 0 && e.Bytes <= n && e.Offset <= n-e.Bytes
}

// Sessions lists the IDs of every claimed or recorded session, sorted.
func (s *Store) Sessions() ([]string, error) {
	st := s.st
	st.Lock()
	out := make([]string, 0, len(st.index))
	for id := range st.index {
		out = append(out, id)
	}
	st.Unlock()
	sort.Strings(out)
	return out, nil
}

// SessionStat reports a session trail's on-disk footprint and its age —
// the inputs retention sweeps rank trails by. The size is its range and
// its manifest lines (a reference adds only its line; see HeldBytes), and
// the time is when its block was started (when it
// was claimed, before its first record; for a converted directory, when
// its manifest was last written).
func (s *Store) SessionStat(id string) (bytes int64, newest time.Time, err error) {
	st := s.st
	st.Lock()
	defer st.Unlock()
	sl, ok := st.index[id]
	if !ok {
		return 0, time.Time{}, fmt.Errorf("provenance: session %q: %w", id, fs.ErrNotExist)
	}
	return sl.Limit + sl.MEnd - sl.HdrOff, time.Unix(0, sl.Time), nil
}

// HeldBytes returns the bytes on disk of removed sessions' ranges that
// references keep (see Repeated tables): no session's SessionStat counts
// them, and they are freed when their last referrer is removed. The
// bytes on disk of a store's trails are the sum of every session's
// SessionStat size and HeldBytes.
func (s *Store) HeldBytes() int64 {
	s.st.Lock()
	defer s.st.Unlock()
	return s.st.HeldBytes()
}

// RemoveSession deletes a session's trail — the retention sweep's disposal
// primitive. The session leaves the index, and its block is tombstoned and
// its range punched out (see Layout); a Session value of it that is still
// open gives its segment back and records no more. Removing a nonexistent
// session is not an error; removing one while it records is.
func (s *Store) RemoveSession(id string) error {
	s.st.Lock()
	defer s.st.Unlock()
	return s.st.remove(id)
}

// Locate returns the file holding e's bytes and where they start in it.
// A reference names a segment this root's Log knows, by its bare log
// name; an entry of the session's trail a range of its own. Locate does
// not check the range against the file: Read does.
func (s *Session) Locate(e Entry) (path string, offset int64, err error) {
	if e.File != logName {
		return s.st.locate(e)
	}
	s.mu.Lock()
	path, base, limit := s.path, s.base, s.limit
	s.mu.Unlock()
	if !within(e, limit) {
		return "", 0, fmt.Errorf("provenance: seq %d: range [%d, +%d) outside the session's %d bytes", e.Seq, e.Offset, e.Bytes, limit)
	}
	return path, base + e.Offset, nil
}

// Record stores data as the next sequentially numbered artifact.
func (s *Session) Record(agent, kind, name string, data []byte) (Entry, error) {
	return s.record(agent, kind, name, "", func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// RecordFrame stores a dataframe as a CSV artifact of kind "data". The
// encoding streams into the log and the hash together, so the artifact is
// never held whole in memory; a frame whose origin key this process has
// formatted is recorded as a reference instead (see Repeated tables).
func (s *Session) RecordFrame(agent, name string, f *dataframe.Frame) (Entry, error) {
	if !strings.HasSuffix(name, ".csv") {
		name += ".csv"
	}
	key, _ := f.OriginKey()
	return s.record(agent, "data", name, key, f.WriteCSV)
}

// record appends the next sequentially numbered artifact to the session's
// log with write, hashing and counting the bytes on their way, or records
// a reference to the table key names, and appends its manifest line. A
// key that was formatted is remembered.
func (s *Session) record(agent, kind, name, key string, write func(io.Writer) error) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	var e Entry
	err := s.appendTrail(func(g *seglog.Segment) (int64, []Entry, []byte, error) {
		e = Entry{Seq: seq, Agent: agent, Kind: kind, Name: name, File: logName, Offset: s.end}
		var err error
		n := int64(0)
		if key != "" && s.reference(key, &e) {
			if verifyRepeats.Load() {
				err = checkReference(e, filepath.Join(s.st.root, e.File), write)
			}
		} else {
			sum := hashCounter{Hash: sha256.New()}
			err = write(io.MultiWriter(g.File(), &sum))
			e.SHA256, e.Bytes = hex.EncodeToString(sum.Sum(nil)), sum.n
			n = e.Bytes
		}
		if err != nil {
			return 0, nil, nil, err
		}
		line, err := json.Marshal(e)
		return n, []Entry{e}, append(line, '\n'), err
	})
	if err != nil {
		return Entry{}, err
	}
	s.st.counted(s.slot, key, e)
	return e, nil
}

// appendTrail appends to the session's trail: fill writes bytes at the end
// of g's log and returns their count, and the entries and manifest lines
// that name them, which follow the bytes. Caller holds s.mu.
func (s *Session) appendTrail(fill func(g *seglog.Segment) (int64, []Entry, []byte, error)) error {
	g, err := s.st.claim(s)
	if err != nil {
		return err
	}
	start := s.base + s.end
	n, es, lines, err := fill(g)
	var mEnd int64
	manFailed := false
	if err == nil {
		if s.hdr != nil {
			lines = append(s.hdr, lines...)
		}
		mEnd, err = g.AppendMan(lines)
		manFailed = err != nil
	}
	// A failed append leaves the log where it started; a segment whose
	// log or manifest may now end in a partial write is retired.
	retire := err != nil && (g.File().Truncate(start) != nil || manFailed)
	if err == nil {
		s.end += n
		s.limit = s.end
		s.entries = append(s.entries, es...)
	}
	s.st.done(s, g, err == nil, retire, int64(len(lines)), mEnd)
	return err
}

// Close gives the session's segment back to the pool. The session stays
// usable: its next record takes a segment again.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Lock()
	defer s.st.Unlock()
	return s.st.release(s)
}

// hashCounter is a hash that also counts the bytes written to it.
type hashCounter struct {
	hash.Hash
	n int64
}

func (h *hashCounter) Write(p []byte) (int, error) {
	h.n += int64(len(p))
	return h.Hash.Write(p)
}

// Checkpoint stores a JSON-marshaled workflow state snapshot, enabling the
// stateful branch-and-explore workflow of §4.2.1.
func (s *Session) Checkpoint(label string, state any) (Entry, error) {
	data, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return Entry{}, err
	}
	return s.Record("system", "checkpoint", label+".json", data)
}

// Manifest returns the recorded entries in order.
func (s *Session) Manifest() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Entry(nil), s.entries...)
}

// Read returns an artifact's bytes by manifest entry. The range is checked
// against the session's trail and the file before anything is allocated,
// so a corrupt or hostile manifest line (a negative offset or size, a
// range past the end, a file other than the trail or a known segment,
// bytes outside the session's range of its segment) fails cleanly, as
// does a reference whose segment is gone or cut short.
func (s *Session) Read(e Entry) ([]byte, error) {
	path, off, err := s.Locate(e)
	if err != nil {
		return nil, err
	}
	data, err := readRange(path, off, e.Bytes)
	if err != nil {
		return nil, fmt.Errorf("provenance: seq %d: range [%d, +%d) of %s: %w", e.Seq, e.Offset, e.Bytes, e.File, err)
	}
	return data, nil
}

// LastCheckpoint returns the most recent checkpoint entry, if any.
func (s *Session) LastCheckpoint() (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].Kind == "checkpoint" {
			return s.entries[i], true
		}
	}
	return Entry{}, false
}

// Verify re-hashes every artifact against the manifest, returning the
// entries that fail (missing, out of range or modified bytes). An empty
// slice means the audit trail is intact.
func (s *Session) Verify() ([]Entry, error) {
	var bad []Entry
	for _, e := range s.Manifest() {
		data, err := s.Read(e)
		if err != nil {
			bad = append(bad, e)
			continue
		}
		sum := sha256.Sum256(data)
		if hex.EncodeToString(sum[:]) != e.SHA256 {
			bad = append(bad, e)
		}
	}
	return bad, nil
}

// SizeBytes sums recorded artifact sizes — the storage-overhead numerator
// alongside the staging database.
func (s *Session) SizeBytes() int64 {
	var total int64
	for _, e := range s.Manifest() {
		total += e.Bytes
	}
	return total
}

// Branch creates a new session seeded with this session's artifacts up to
// and including seq upTo, so alternative follow-up steps can run from an
// established processing stage without recomputing it. Each artifact
// becomes a reference to the bytes its entry names (an entry that is a
// reference is copied as one), with its digest: no byte is copied, and
// the branch verifies exactly where the source does. An artifact that
// does not locate fails the branch. The new session has given its
// segment back when it returns.
func (s *Store) Branch(from *Session, newID string, upTo int) (*Session, error) {
	dst, err := s.NewSession(newID)
	if err != nil {
		return nil, err
	}
	defer dst.Close() // error paths; the success path checks its own Close
	var es []Entry
	for _, e := range from.Manifest() {
		if e.Seq > upTo {
			break
		}
		es = append(es, e)
	}
	if len(es) > 0 {
		dst.mu.Lock()
		err = dst.appendTrail(func(*seglog.Segment) (int64, []Entry, []byte, error) {
			return dst.branchEntries(from, es)
		})
		dst.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("provenance: branch: %w", err)
		}
	}
	if err := dst.Close(); err != nil {
		return nil, fmt.Errorf("provenance: branch: %w", err)
	}
	return dst, nil
}

// branchEntries returns the entries and lines that reference es, from's
// artifacts, in s, numbered from s's next seq; an empty artifact is an
// empty entry of s's own. Caller holds s.mu, inside a record.
func (s *Session) branchEntries(from *Session, es []Entry) (int64, []Entry, []byte, error) {
	var out []Entry
	var lines []byte
	for _, e := range es {
		sp, err := s.st.branchRef(s, from, e)
		if err != nil {
			return 0, nil, nil, err
		}
		b := Entry{Seq: s.seq, Agent: e.Agent, Kind: e.Kind, Name: e.Name, File: logName, Offset: s.end, SHA256: e.SHA256}
		if sp.N > 0 {
			b.File, b.Offset, b.Bytes = sp.Seg.Name(), sp.Off, sp.N
		}
		s.seq++
		line, _ := json.Marshal(b) // an Entry always marshals
		out, lines = append(out, b), append(append(lines, line...), '\n')
	}
	return 0, out, lines, nil
}
