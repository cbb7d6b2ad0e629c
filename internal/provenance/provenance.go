// Package provenance implements InferA's audit trail (§4.2.1): every
// intermediate CSV, generated code text, plot, scene and summary is
// recorded as a sequentially numbered artifact with a SHA-256 hash in an
// append-only manifest, and every node transition can checkpoint the full
// workflow state, enabling verification, replay and branch-from-checkpoint
// exploration.
//
// # Layout
//
// A session is one directory holding two append-only files:
//
//	manifest.jsonl  one JSON Entry per artifact, in seq order
//	trail.log       the artifacts' bytes, back to back
//
// An entry names its bytes as the range [Offset, Offset+Bytes) of File,
// which is trail.log for every artifact recorded by this package. Trails
// written when each artifact was a file of its own ("artifacts/000_...")
// carry Offset 0 and Bytes equal to that file's size, so the same range
// read serves them too. Recording an artifact therefore creates no file
// after the first record of a session: an ask costs three inodes (the
// directory, the manifest and the log) however many artifacts it keeps.
//
// A failed record truncates the log back to where it started, so the log
// only ever holds the ranges the manifest names, contiguously and in seq
// order.
//
// A session keeps both files open from its first record until Close, and
// knows where the log ends, so a record makes no open, seek or close; a
// record after Close opens them again. One Session value at a time may
// record into a directory.
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

// Store manages sessions under a root directory.
type Store struct {
	Root string
}

// NewStore creates (if needed) and returns a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{Root: dir}, nil
}

// Session is one workflow's provenance record.
type Session struct {
	ID  string
	dir string

	mu      sync.Mutex
	seq     int
	entries []Entry
	// log and manifest are the open files, nil until the first record and
	// after Close; end is the log's length, where the next artifact goes.
	log, manifest *os.File
	end           int64
}

const (
	manifestName = "manifest.jsonl"
	logName      = "trail.log"
)

// NewSession creates a fresh session directory. Creation is atomic — the
// exclusive os.Mkdir claims the ID — so concurrent callers racing on the
// same ID get exactly one winner instead of two sessions sharing a
// directory.
func (s *Store) NewSession(id string) (*Session, error) {
	dir := filepath.Join(s.Root, id)
	if err := os.Mkdir(dir, 0o755); err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("provenance: session %q already exists", id)
		}
		return nil, err
	}
	return &Session{ID: id, dir: dir}, nil
}

// OpenSession loads an existing session and its manifest.
func (s *Store) OpenSession(id string) (*Session, error) {
	dir := filepath.Join(s.Root, id)
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("provenance: open session %q: %w", id, err)
	}
	sess := &Session{ID: id, dir: dir}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var e Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			return nil, fmt.Errorf("provenance: manifest line: %w", err)
		}
		sess.entries = append(sess.entries, e)
		if e.Seq >= sess.seq {
			sess.seq = e.Seq + 1
		}
	}
	return sess, nil
}

// Sessions lists session IDs in the store.
func (s *Store) Sessions() ([]string, error) {
	entries, err := os.ReadDir(s.Root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// SessionStat reports a session trail's total on-disk footprint and its
// most recent modification time — the inputs retention sweeps rank trails
// by. The size counts every file under the session directory (log,
// manifest, and the artifact files of legacy trails), not just
// manifest-recorded bytes.
func (s *Store) SessionStat(id string) (bytes int64, newest time.Time, err error) {
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

// RemoveSession deletes a session's directory and everything in it — the
// retention sweep's disposal primitive. Removing a nonexistent session is
// not an error.
func (s *Store) RemoveSession(id string) error {
	return os.RemoveAll(filepath.Join(s.Root, id))
}

// Dir returns the session directory.
func (s *Session) Dir() string { return s.dir }

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
// its manifest line. On any failure the log is truncated back to the
// offset the artifact started at, so the next record lands there.
func (s *Session) record(agent, kind, name string, write func(io.Writer) error) (_ Entry, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	if err := s.openLocked(); err != nil {
		return Entry{}, err
	}
	offset := s.end
	defer func() {
		if err != nil && s.log.Truncate(offset) != nil {
			s.closeLocked() // the next record finds the log's end again
		}
	}()
	sum := hashCounter{Hash: sha256.New()}
	if err := write(io.MultiWriter(s.log, &sum)); err != nil {
		return Entry{}, err
	}
	e := Entry{
		Seq:    seq,
		Agent:  agent,
		Kind:   kind,
		Name:   name,
		File:   logName,
		SHA256: hex.EncodeToString(sum.Sum(nil)),
		Bytes:  sum.n,
		Offset: offset,
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, err
	}
	if _, err := s.manifest.Write(append(line, '\n')); err != nil {
		return Entry{}, err
	}
	s.end = offset + sum.n
	s.entries = append(s.entries, e)
	return e, nil
}

// openLocked opens the log and the manifest for appending, unless they
// are open, and finds where the log ends. Caller holds mu.
func (s *Session) openLocked() error {
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

// Close closes the session's log and manifest, if a record opened them,
// and reports the first error. The session stays usable: its next record
// opens them again.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *Session) closeLocked() error {
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

// Read returns an artifact's bytes by manifest entry: Bytes bytes at
// Offset of File. The range is checked against the file before anything
// is allocated, so a corrupt or hostile manifest line (a negative offset
// or size, a range past the end, a path outside the session) fails
// cleanly.
func (s *Session) Read(e Entry) ([]byte, error) {
	if e.Offset < 0 || e.Bytes < 0 {
		return nil, fmt.Errorf("provenance: seq %d: negative range (offset %d, bytes %d)", e.Seq, e.Offset, e.Bytes)
	}
	if !filepath.IsLocal(e.File) {
		return nil, fmt.Errorf("provenance: seq %d: file %q is outside the session", e.Seq, e.File)
	}
	f, err := os.Open(filepath.Join(s.dir, e.File))
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
	if e.Bytes > st.Size() || e.Offset > st.Size()-e.Bytes {
		return nil, fmt.Errorf("provenance: seq %d: range [%d, +%d) past the end of %s (%d bytes)", e.Seq, e.Offset, e.Bytes, e.File, st.Size())
	}
	data := make([]byte, e.Bytes)
	if _, err := f.ReadAt(data, e.Offset); err != nil {
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
// without recomputing it. The new session's files are closed when it
// returns.
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
