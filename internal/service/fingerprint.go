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

// DefaultFingerprintTTL is CachedFingerprint's default memoization
// window.
const DefaultFingerprintTTL = 250 * time.Millisecond

type fpMemoEntry struct {
	fp string
	at time.Time
}

var fpMemo = struct {
	mu      sync.Mutex
	entries map[string]fpMemoEntry
}{entries: map[string]fpMemoEntry{}}

// CachedFingerprint is Fingerprint memoized per ensemble directory for
// ttl (<= 0 uses DefaultFingerprintTTL); errors are never memoized.
//
// Deprecated: the service keys its fingerprint on the stage watch
// generation instead; only the benchmark's fingerprint probe still calls
// this.
func CachedFingerprint(dir string, ttl time.Duration) (string, error) {
	if ttl <= 0 {
		ttl = DefaultFingerprintTTL
	}
	fpMemo.mu.Lock()
	e, ok := fpMemo.entries[dir]
	fpMemo.mu.Unlock()
	if ok && time.Since(e.at) < ttl {
		return e.fp, nil
	}
	fp, err := Fingerprint(dir)
	fpMemo.mu.Lock()
	if err != nil {
		delete(fpMemo.entries, dir)
	} else {
		fpMemo.entries[dir] = fpMemoEntry{fp: fp, at: time.Now()}
	}
	fpMemo.mu.Unlock()
	return fp, err
}
