package provenance

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"infera/internal/seglog"
)

// manifestName is a trail directory's manifest.
const manifestName = "manifest.jsonl"

// missingName is the File of a converted entry whose range lay outside
// its directory's trail.log.
const missingName = "missing"

// Import converts each trail directory <dir>/<id>/ that older daemons
// left (manifest.jsonl with trail.log, artifacts/ files, or both) into a
// block of session id and removes it, as the first open of a store in a
// process does in its root. The block holds trail.log, then each
// artifacts/ entry's bytes, which that entry's File and Offset then name.
// Digests are copied, never computed, and an entry that does not read in
// the directory fails Read in the block: it names missingName instead of
// trail.log or a segment's log, or keeps its File. A held block of the ID
// whose entry lines are a prefix of the directory's, a conversion a crash
// cut short, is dropped first. A directory whose ID names another trail, or whose
// manifest does not read or parse, stays, and the error names it.
func (s *Store) Import(dir string) error {
	return s.st.importAll(dir)
}

// importAll converts every trail directory in dir (see Import).
func (st *state) importAll(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var errs []error
	for _, e := range ents {
		if path := filepath.Join(dir, e.Name()); e.IsDir() {
			if err := st.importDir(e.Name(), path); err != nil {
				errs = append(errs, fmt.Errorf("provenance: left trail %s in place: %w", path, err))
			}
		}
	}
	return errors.Join(errs...)
}

// importDir converts the trail directory dir into session id's block,
// dated by its manifest's modification time, then removes dir, manifest
// first: a directory a crash left half removed never converts.
func (st *state) importDir(id, dir string) error {
	lines, data, at, err := readDirTrail(dir)
	if err != nil {
		return err
	}
	s := &Session{ID: id, st: st, slot: &slot{}}
	if err := st.claimID(s, lines); err != nil {
		return err
	}
	err = s.appendTrail(func(g *seglog.Segment) (int64, []Entry, []byte, error) {
		s.hdr = seglog.Header(id, s.base, at) // dated by the manifest, not by claim
		n, err := g.File().Write(data)
		return int64(n), nil, lines, err
	})
	st.Lock()
	s.slot.Time = at.UnixNano()
	if err == nil {
		err = st.release(s)
	} else {
		st.remove(id) // the append's error is the one to report
	}
	st.Unlock()
	if err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

// claimID indexes s for a conversion whose entry lines are lines,
// dropping a block of its ID whose entry lines are a prefix of them. Any
// other session of its ID is an error.
func (st *state) claimID(s *Session, lines []byte) error {
	st.Lock()
	defer st.Unlock()
	if held, ok := st.index[s.ID]; ok {
		if have, err := held.Lines(); err != nil || !bytes.HasPrefix(lines, have) {
			return fmt.Errorf("the store holds another trail %q", s.ID)
		}
		if err := st.remove(s.ID); err != nil {
			return err
		}
	}
	st.index[s.ID] = s.slot
	return nil
}

// readDirTrail reads the trail directory dir: its block's entry lines and
// bytes, and when its manifest was last written.
func readDirTrail(dir string) (lines, data []byte, at time.Time, err error) {
	manifest, at, err := readRegular(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, at, err
	}
	data, _, logErr := readRegular(filepath.Join(dir, logName))
	logLen := int64(len(data))
	for _, l := range bytes.Split(manifest, []byte("\n")) {
		e, ok, err := parseLine(l)
		if err != nil {
			return nil, nil, at, err
		}
		if !ok {
			continue
		}
		if e.File == logName && (logErr != nil || !within(e, logLen)) || seglog.RefName(e.File) {
			e.File = missingName // a directory holds no reference
		} else if e.File != logName && filepath.IsLocal(e.File) && strings.HasPrefix(filepath.ToSlash(filepath.Clean(e.File)), "artifacts/") {
			if b, _, err := readRegular(filepath.Join(dir, e.File)); err == nil && within(e, int64(len(b))) {
				e.File, e.Offset, data = logName, int64(len(data)), append(data, b[e.Offset:e.Offset+e.Bytes]...)
			}
		}
		line, _ := json.Marshal(e) // an Entry always marshals
		lines = append(append(lines, line...), '\n')
	}
	return lines, data, at, nil
}

// readRegular reads the regular file at path and returns when it was last
// written.
func readRegular(path string) ([]byte, time.Time, error) {
	info, err := os.Stat(path)
	if err == nil && !info.Mode().IsRegular() {
		err = fmt.Errorf("%s is not a regular file", path)
	}
	if err != nil {
		return nil, time.Time{}, err
	}
	data, err := os.ReadFile(path)
	return data, info.ModTime(), err
}
