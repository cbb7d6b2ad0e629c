package service

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Fingerprint hashes an ensemble directory's structure — every file's
// relative path, size and modification time — into a stable hex digest.
// It is the cache-key component that invalidates answers when the
// underlying data changes: touching, replacing or adding any file under
// the ensemble root yields a different fingerprint without reading file
// contents, so the per-request cost stays at a stat walk. A file or
// subdirectory that vanishes between being listed and being examined is
// left out, as if the walk had started a moment later; only a missing dir
// itself is an error.
func Fingerprint(dir string) (string, error) {
	type stamp struct {
		rel   string
		size  int64
		mtime int64
	}
	var stamps []stamp
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path != dir && errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		stamps = append(stamps, stamp{rel: rel, size: info.Size(), mtime: info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("service: fingerprint %s: %w", dir, err)
	}
	sort.Slice(stamps, func(a, b int) bool { return stamps[a].rel < stamps[b].rel })
	h := sha256.New()
	for _, s := range stamps {
		fmt.Fprintf(h, "%s\x00%d\x00%d\x00", s.rel, s.size, s.mtime)
	}
	return hex.EncodeToString(h.Sum(nil)[:16]), nil
}

// DefaultFingerprintTTL is the memoization window CachedFingerprint (and
// the service, by default) uses. It bounds how long a changed ensemble can
// keep serving stale cached answers, so it stays deliberately short — the
// point is only to take the stat-walk off every request on the cached-path
// floor, not to stop re-validating.
const DefaultFingerprintTTL = 250 * time.Millisecond

type fpMemoEntry struct {
	fp string
	at time.Time
}

var fpMemo = struct {
	mu       sync.Mutex
	entries  map[string]fpMemoEntry
	inflight map[string]chan struct{}
	// gens invalidates walks that were already in flight when
	// InvalidateFingerprint ran: a walk only memoizes its result if the
	// dir's generation is unchanged since the walk started.
	gens map[string]uint64
}{entries: map[string]fpMemoEntry{}, inflight: map[string]chan struct{}{}, gens: map[string]uint64{}}

// CachedFingerprint is Fingerprint memoized per ensemble directory for
// ttl (<= 0 uses DefaultFingerprintTTL). Concurrent refreshes of one dir
// single-flight into a single walk; errors are never memoized.
func CachedFingerprint(dir string, ttl time.Duration) (string, error) {
	if ttl <= 0 {
		ttl = DefaultFingerprintTTL
	}
	for {
		fpMemo.mu.Lock()
		if e, ok := fpMemo.entries[dir]; ok && time.Since(e.at) < ttl {
			fpMemo.mu.Unlock()
			return e.fp, nil
		}
		if wait := fpMemo.inflight[dir]; wait != nil {
			fpMemo.mu.Unlock()
			<-wait
			// The walk that just finished refreshed the entry (or failed);
			// loop to pick its result up under the lock.
			continue
		}
		done := make(chan struct{})
		fpMemo.inflight[dir] = done
		gen := fpMemo.gens[dir]
		fpMemo.mu.Unlock()

		fp, err := Fingerprint(dir)
		fpMemo.mu.Lock()
		delete(fpMemo.inflight, dir)
		switch {
		case err != nil:
			delete(fpMemo.entries, dir)
		case fpMemo.gens[dir] == gen:
			fpMemo.entries[dir] = fpMemoEntry{fp: fp, at: time.Now()}
		default:
			// InvalidateFingerprint ran mid-walk: this result may predate the
			// change, so return it without memoizing — the next lookup
			// re-walks.
		}
		fpMemo.mu.Unlock()
		close(done)
		return fp, err
	}
}

// InvalidateFingerprint drops dir's memoized fingerprint so the next
// lookup re-walks immediately — for callers that know they just changed
// the ensemble. A walk already in flight is invalidated too: its result is
// returned to its waiters but not memoized.
func InvalidateFingerprint(dir string) {
	fpMemo.mu.Lock()
	delete(fpMemo.entries, dir)
	fpMemo.gens[dir]++
	fpMemo.mu.Unlock()
}
