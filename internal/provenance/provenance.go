// Package provenance implements InferA's audit trail (§4.2.1): every
// intermediate CSV, generated code text, plot, scene and summary is
// recorded as a sequentially numbered artifact with a SHA-256 hash in an
// append-only manifest, and every node transition can checkpoint the full
// workflow state, enabling verification, replay and branch-from-checkpoint
// exploration.
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
	File   string `json:"file"` // session-relative path
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
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
}

const manifestName = "manifest.jsonl"

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
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
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
// by. The size counts every file under the session directory (artifacts,
// manifest, checkpoints), not just manifest-recorded bytes.
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
// encoding streams into the artifact file and the hash together, so the
// artifact is never held whole in memory.
func (s *Session) RecordFrame(agent, name string, f *dataframe.Frame) (Entry, error) {
	if !strings.HasSuffix(name, ".csv") {
		name += ".csv"
	}
	return s.record(agent, "data", name, f.WriteCSV)
}

// record writes the next sequentially numbered artifact with write, hashing
// and counting the bytes on their way to the file, and appends its manifest
// line.
func (s *Session) record(agent, kind, name string, write func(io.Writer) error) (Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.seq
	s.seq++
	file := filepath.Join("artifacts", fmt.Sprintf("%03d_%s_%s_%s", seq, sanitize(agent), sanitize(kind), sanitize(name)))
	af, err := os.OpenFile(filepath.Join(s.dir, file), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Entry{}, err
	}
	sum := hashCounter{Hash: sha256.New()}
	err = write(io.MultiWriter(af, &sum))
	if cerr := af.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Entry{}, err
	}
	e := Entry{
		Seq:    seq,
		Agent:  agent,
		Kind:   kind,
		Name:   name,
		File:   file,
		SHA256: hex.EncodeToString(sum.Sum(nil)),
		Bytes:  sum.n,
	}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, err
	}
	mf, err := os.OpenFile(filepath.Join(s.dir, manifestName), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return Entry{}, err
	}
	defer mf.Close()
	if _, err := mf.Write(append(line, '\n')); err != nil {
		return Entry{}, err
	}
	s.entries = append(s.entries, e)
	return e, nil
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

// Read returns an artifact's bytes by manifest entry.
func (s *Session) Read(e Entry) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.dir, e.File))
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
// entries that fail (missing or modified files). An empty slice means the
// audit trail is intact.
func (s *Session) Verify() ([]Entry, error) {
	var bad []Entry
	for _, e := range s.Manifest() {
		data, err := os.ReadFile(filepath.Join(s.dir, e.File))
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
// and including seq upTo (copying files and manifest prefix), so
// alternative follow-up steps can run from an established processing stage
// without recomputing it.
func (s *Store) Branch(from *Session, newID string, upTo int) (*Session, error) {
	dst, err := s.NewSession(newID)
	if err != nil {
		return nil, err
	}
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
	return dst, nil
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '-', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}
