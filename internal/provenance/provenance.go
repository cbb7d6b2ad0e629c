// Package provenance implements InferA's audit trail (§4.2.1): every
// intermediate CSV, generated code text, plot, scene and summary is
// recorded as a sequentially numbered artifact with a SHA-256 hash in an
// append-only manifest, and every node transition can checkpoint the full
// workflow state, enabling verification, replay and branch-from-checkpoint
// exploration.
//
// # Layout
//
// A store's directory holds trail segments. A segment is a pair of
// append-only files that many sessions share, one after another:
//
//	seg-<unique>.log    the sessions' artifact bytes, back to back
//	seg-<unique>.jsonl  per session, a header line and its manifest lines
//
// A session's trail is one contiguous range of one segment's log and one
// block of lines in its manifest: a header {"session":id,"base":b,"time":t}
// naming where the range starts, then one JSON Entry per artifact in seq
// order. Entry lines are the ones a per-session manifest.jsonl holds: File
// is "trail.log" and [Offset, Offset+Bytes) is relative to the session's
// range, so a session reads the same whichever segment holds it.
//
// A store keeps a per-process pool of open segments. A new session claims
// its ID in the store's in-memory index, takes a free segment at its first
// record and gives it back at Close; a new segment (created O_EXCL, so no
// other process shares it) is made only when every open one is in use,
// and one is retired once its log passes a fixed size. An ask therefore
// creates no file once the pool is warm. A session that never closes
// keeps its segment until the pool is full; the session that then needs
// one takes it, and the first session moves its trail into another
// segment if it records again.
//
// Removing a session drops it from the index, appends a tombstone line
// {"tombstone":id,"base":b} to its segment's manifest and punches its
// range out of the log (Linux; elsewhere the bytes stay until the segment
// empties). A segment whose sessions are all gone is deleted, or emptied
// in place while it is in the pool.
//
// Opening a store reads every segment's manifest into the index, one
// record per session. A header whose range would start inside an earlier
// block's is ignored, so no session reads another's bytes, and a last
// line without its newline is a torn write and is ignored. The tail of a
// segment left by a crash may hold an entry whose bytes were cut short;
// it is dropped. New sessions always go to segments this process made, so
// nothing is appended after a torn tail. When two segments (say, another
// process's and this one's) hold a live block of one ID, the block with
// more entries wins, the later one (by segment name, then base) on a tie,
// and the choice is logged.
//
// Older trails are per-session directories, <root>/<id>/, holding
// manifest.jsonl and trail.log, or one file per artifact under
// artifacts/ with Offset 0. They are found on disk, and stay readable,
// verifiable, branchable, removable, and recordable into.
//
// A failed record truncates the log back to where it started, so a range
// only ever holds the ranges its entries name, contiguously and in seq
// order. One Session value at a time may record into a session.
package provenance

import (
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
)

// Entry is one manifest line.
type Entry struct {
	Seq    int    `json:"seq"`
	Agent  string `json:"agent"` // which agent produced the artifact
	Kind   string `json:"kind"`  // "data" | "code" | "plot" | "scene" | "summary" | "checkpoint" | ...
	Name   string `json:"name"`
	File   string `json:"file"` // session-relative path of the file holding the bytes
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
	// Offset is where the artifact's Bytes start inside File.
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
// has.
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
	// dir is a per-session directory's path; "" for a segment session.
	dir string

	mu      sync.Mutex
	seq     int
	entries []Entry
	end     int64 // the trail's length: where the next artifact goes

	// A segment session's trail is limit bytes at base of the log at path.
	slot        *slot
	path        string
	base, limit int64
	seg         *segment // the segment it appends to while it holds one; guarded by st.mu
	hdr         []byte   // its header line, until a record writes it

	// log and manifest are a directory session's open files, nil until
	// its first record and after Close.
	log, manifest *os.File
}

const (
	manifestName = "manifest.jsonl"
	logName      = "trail.log"
)

// NewSession claims a fresh session ID. Concurrent callers racing on one
// ID, through any Store over this root in this process, get exactly one
// winner; an ID an older per-session directory holds is taken too.
func (s *Store) NewSession(id string) (*Session, error) {
	if !validID(id) {
		return nil, fmt.Errorf("provenance: bad session id %q", id)
	}
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.index[id]; ok {
		return nil, fmt.Errorf("provenance: session %q already exists", id)
	}
	if _, err := os.Lstat(filepath.Join(s.Root, id)); err == nil {
		return nil, fmt.Errorf("provenance: session %q already exists", id)
	}
	sl := &slot{unix: time.Now().UnixNano()}
	st.index[id] = sl
	return &Session{ID: id, st: st, slot: sl}, nil
}

// OpenSession loads an existing session and its manifest. A session that
// is claimed but has recorded nothing does not exist yet (fs.ErrNotExist).
func (s *Store) OpenSession(id string) (*Session, error) {
	st := s.st
	st.mu.Lock()
	sl, ok := st.index[id]
	var snap slot
	if ok {
		snap = *sl
	}
	st.mu.Unlock()
	if !ok {
		return s.openDir(id)
	}
	if snap.seg == nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, fs.ErrNotExist)
	}
	mf, err := os.Open(snap.seg.path + ".jsonl")
	if err != nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, err)
	}
	defer mf.Close()
	data := make([]byte, snap.mEnd-snap.hdrOff)
	if _, err := mf.ReadAt(data, snap.hdrOff); err != nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, err)
	}
	sess := &Session{ID: id, st: st, slot: sl, path: snap.seg.path + ".log", base: snap.base, limit: snap.limit}
	first := true
	for _, l := range strings.Split(string(data), "\n") {
		if first || strings.HasPrefix(l, `{"tombstone":`) {
			first = false // the header
			continue
		}
		if err := sess.addLine(l); err != nil {
			return nil, err
		}
	}
	if snap.tail {
		sess.dropTorn()
	}
	return sess, nil
}

// validID reports whether id names one entry of the store's directory.
func validID(id string) bool {
	return id != "" && id != "." && id != ".." && !strings.ContainsAny(id, `/\`)
}

// openDir loads a per-session directory.
func (s *Store) openDir(id string) (*Session, error) {
	if !validID(id) {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, fs.ErrNotExist)
	}
	dir := filepath.Join(s.Root, id)
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, err)
	}
	sess := &Session{ID: id, dir: dir}
	for _, l := range strings.Split(string(data), "\n") {
		if err := sess.addLine(l); err != nil {
			return nil, err
		}
	}
	return sess, nil
}

// addLine appends one manifest line's entry, if it has one.
func (s *Session) addLine(l string) error {
	if strings.TrimSpace(l) == "" {
		return nil
	}
	var e Entry
	if err := json.Unmarshal([]byte(l), &e); err != nil {
		return fmt.Errorf("provenance: manifest line: %w", err)
	}
	s.add(e)
	return nil
}

// add appends a loaded entry and moves the next seq and the trail's end
// past it.
func (s *Session) add(e Entry) {
	s.entries = append(s.entries, e)
	if e.Seq >= s.seq {
		s.seq = e.Seq + 1
	}
	if end := e.Offset + e.Bytes; e.File == logName && e.Offset >= 0 && e.Bytes >= 0 && end > s.end {
		s.end = end
	}
}

// dropTorn drops the trailing entries whose bytes run past the session's
// range: a crash cut the log inside them.
func (s *Session) dropTorn() {
	n := len(s.entries)
	for ; n > 0; n-- {
		if e := s.entries[n-1]; e.Offset >= 0 && e.Bytes >= 0 && e.Bytes <= s.limit && e.Offset <= s.limit-e.Bytes {
			break
		}
	}
	if n == len(s.entries) {
		return
	}
	kept := s.entries[:n]
	s.entries, s.seq, s.end = nil, 0, 0
	for _, e := range kept {
		s.add(e)
	}
}

// Sessions lists session IDs in the store: every claimed or recorded
// segment session and every per-session directory.
func (s *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(s.Root)
	if err != nil {
		return nil, err
	}
	st := s.st
	st.mu.Lock()
	out := make([]string, 0, len(st.index))
	for id := range st.index {
		out = append(out, id)
	}
	for _, e := range entries {
		if _, ok := st.index[e.Name()]; e.IsDir() && !ok {
			out = append(out, e.Name())
		}
	}
	st.mu.Unlock()
	sort.Strings(out)
	return out, nil
}

// SessionStat reports a session trail's on-disk footprint and its age —
// the inputs retention sweeps rank trails by. For a segment session the
// size is its range and its manifest lines, and the time is when its
// block was started (when it was claimed, before its first record). For a
// per-session directory it counts every file under it and the time is the
// newest modification.
func (s *Store) SessionStat(id string) (bytes int64, newest time.Time, err error) {
	st := s.st
	st.mu.Lock()
	if sl, ok := st.index[id]; ok {
		defer st.mu.Unlock()
		return sl.limit + sl.mEnd - sl.hdrOff, time.Unix(0, sl.unix), nil
	}
	st.mu.Unlock()
	root := filepath.Join(s.Root, id)
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		if d.IsDir() {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return ierr
		}
		bytes += info.Size()
		if info.ModTime().After(newest) {
			newest = info.ModTime()
		}
		return nil
	})
	return bytes, newest, err
}

// RemoveSession deletes a session's trail — the retention sweep's disposal
// primitive. A segment session leaves the index, and its block is
// tombstoned and its range punched out (see Layout); a Session value of it
// that is still open gives its segment back and records no more. A
// per-session directory is deleted with everything in it. Removing a
// nonexistent session is not an error; removing one while it records is.
func (s *Store) RemoveSession(id string) error {
	st := s.st
	st.mu.Lock()
	defer st.mu.Unlock()
	sl, ok := st.index[id]
	if !ok {
		if !validID(id) {
			return nil
		}
		return os.RemoveAll(filepath.Join(s.Root, id))
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

// Locate returns the file holding e's bytes and where they start in it,
// without checking that the file holds them.
func (s *Session) Locate(e Entry) (path string, offset int64, err error) {
	if e.Offset < 0 || e.Bytes < 0 {
		return "", 0, fmt.Errorf("provenance: seq %d: negative range (offset %d, bytes %d)", e.Seq, e.Offset, e.Bytes)
	}
	if s.dir != "" {
		if !filepath.IsLocal(e.File) {
			return "", 0, fmt.Errorf("provenance: seq %d: file %q is outside the session", e.Seq, e.File)
		}
		return filepath.Join(s.dir, e.File), e.Offset, nil
	}
	if e.File != logName {
		return "", 0, fmt.Errorf("provenance: seq %d: file %q is not the session's trail", e.Seq, e.File)
	}
	s.mu.Lock()
	path, base, limit := s.path, s.base, s.limit
	s.mu.Unlock()
	if e.Bytes > limit || e.Offset > limit-e.Bytes {
		return "", 0, fmt.Errorf("provenance: seq %d: range [%d, +%d) past the end of the session's %d bytes", e.Seq, e.Offset, e.Bytes, limit)
	}
	return path, base + e.Offset, nil
}

// Record stores data as the next sequentially numbered artifact.
func (s *Session) Record(agent, kind, name string, data []byte) (Entry, error) {
	return s.record(agent, kind, name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// RecordFrame stores a dataframe as a CSV artifact of kind "data". The
// encoding streams into the log and the hash together, so the artifact is
// never held whole in memory.
func (s *Session) RecordFrame(agent, name string, f *dataframe.Frame) (Entry, error) {
	if !strings.HasSuffix(name, ".csv") {
		name += ".csv"
	}
	return s.record(agent, "data", name, f.WriteCSV)
}

// record appends the next sequentially numbered artifact to the session's
// log with write, hashing and counting the bytes on their way, and appends
// its manifest line.
func (s *Session) record(agent, kind, name string, write func(io.Writer) error) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	if s.dir != "" {
		return s.recordDir(seq, agent, kind, name, write)
	}
	g, err := s.st.claim(s)
	if err != nil {
		return Entry{}, err
	}
	start := s.base + s.end
	e, line, err := s.write(g.log, seq, agent, kind, name, write)
	var mEnd int64
	manFailed := false
	if err == nil {
		if s.hdr != nil {
			line = append(s.hdr, line...)
		}
		mEnd, err = g.appendMan(line)
		manFailed = err != nil
	}
	// A failed record leaves the log where it started; a segment whose
	// log or manifest may now end in a partial write is retired.
	retire := err != nil && (g.log.Truncate(start) != nil || manFailed)
	if err == nil {
		s.end += e.Bytes
		s.limit = s.end
		s.entries = append(s.entries, e)
	}
	s.st.done(s, g, err == nil, retire, int64(len(line)), mEnd)
	return e, err
}

// write streams one artifact into w and returns its entry, at the
// session's end, and manifest line.
func (s *Session) write(w io.Writer, seq int, agent, kind, name string, write func(io.Writer) error) (Entry, []byte, error) {
	sum := hashCounter{Hash: sha256.New()}
	if err := write(io.MultiWriter(w, &sum)); err != nil {
		return Entry{}, nil, err
	}
	e := Entry{
		Seq:    seq,
		Agent:  agent,
		Kind:   kind,
		Name:   name,
		File:   logName,
		SHA256: hex.EncodeToString(sum.Sum(nil)),
		Bytes:  sum.n,
		Offset: s.end,
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, nil, err
	}
	return e, append(line, '\n'), nil
}

// recordDir is record for a per-session directory: it appends to the
// directory's own log and manifest, truncating the log back on failure.
func (s *Session) recordDir(seq int, agent, kind, name string, write func(io.Writer) error) (_ Entry, err error) {
	if err := s.openDirLocked(); err != nil {
		return Entry{}, err
	}
	offset := s.end
	defer func() {
		if err != nil && s.log.Truncate(offset) != nil {
			s.closeDirLocked() // the next record finds the log's end again
		}
	}()
	e, line, err := s.write(s.log, seq, agent, kind, name, write)
	if err != nil {
		return Entry{}, err
	}
	if _, err := s.manifest.Write(line); err != nil {
		return Entry{}, err
	}
	s.end = offset + e.Bytes
	s.entries = append(s.entries, e)
	return e, nil
}

// openDirLocked opens a per-session directory's log and manifest for
// appending, unless they are open, and finds where the log ends. Caller
// holds mu.
func (s *Session) openDirLocked() error {
	if s.log != nil {
		return nil
	}
	lf, err := os.OpenFile(filepath.Join(s.dir, logName), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	end, err := lf.Seek(0, io.SeekEnd)
	if err != nil {
		lf.Close()
		return err
	}
	mf, err := os.OpenFile(filepath.Join(s.dir, manifestName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		lf.Close()
		return err
	}
	s.log, s.manifest, s.end = lf, mf, end
	return nil
}

// Close ends the session's use of its files: a segment session gives its
// segment back to the pool, a per-session directory closes its log and
// manifest. The session stays usable: its next record takes a segment (or
// opens the files) again.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir != "" {
		return s.closeDirLocked()
	}
	s.st.mu.Lock()
	defer s.st.mu.Unlock()
	return s.st.release(s)
}

func (s *Session) closeDirLocked() error {
	if s.log == nil {
		return nil
	}
	err := s.log.Close()
	if merr := s.manifest.Close(); err == nil {
		err = merr
	}
	s.log, s.manifest = nil, nil
	return err
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
// range past the end, a path outside the session, bytes outside the
// session's range of its segment) fails cleanly.
func (s *Session) Read(e Entry) ([]byte, error) {
	path, off, err := s.Locate(e)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("provenance: seq %d: %s is not a regular file", e.Seq, e.File)
	}
	if e.Bytes > st.Size() || off > st.Size()-e.Bytes {
		return nil, fmt.Errorf("provenance: seq %d: range [%d, +%d) past the end of %s (%d bytes)", e.Seq, e.Offset, e.Bytes, e.File, st.Size())
	}
	data := make([]byte, e.Bytes)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, err
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
// and including seq upTo (copying their bytes and manifest prefix), so
// alternative follow-up steps can run from an established processing stage
// without recomputing it. The new session has given its segment back when
// it returns.
func (s *Store) Branch(from *Session, newID string, upTo int) (*Session, error) {
	dst, err := s.NewSession(newID)
	if err != nil {
		return nil, err
	}
	defer dst.Close() // error paths; the success path checks its own Close
	for _, e := range from.Manifest() {
		if e.Seq > upTo {
			break
		}
		data, err := from.Read(e)
		if err != nil {
			return nil, fmt.Errorf("provenance: branch: %w", err)
		}
		if _, err := dst.Record(e.Agent, e.Kind, e.Name, data); err != nil {
			return nil, err
		}
	}
	if err := dst.Close(); err != nil {
		return nil, fmt.Errorf("provenance: branch: %w", err)
	}
	return dst, nil
}
