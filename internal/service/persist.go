package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"
)

// Answer-cache persistence stub (ROADMAP "Answer-cache persistence"): a
// service whose WorkDir is stable serializes its LRU entries to
// WorkDir/cache.json on Close and reloads them on New, so daemon restarts
// and shard close/reopen cycles (registry.go) keep their hit rate. Entries
// are keyed by ensemble fingerprint, so reloading re-validates against the
// live directory and silently drops answers computed against stale data.

// CacheFileName is the answer-cache serialization file inside a service's
// WorkDir.
const CacheFileName = "cache.json"

// cacheFileVersion guards the on-disk schema; unknown versions are ignored
// rather than mis-parsed.
const cacheFileVersion = 1

// cacheFile is the on-disk form of a persisted answer cache.
type cacheFile struct {
	Version int `json:"version"`
	// Fingerprint is the ensemble fingerprint at save time (informational;
	// validation is per entry, since entries may span fingerprints).
	Fingerprint string           `json:"fingerprint,omitempty"`
	SavedAt     time.Time        `json:"saved_at"`
	Entries     []PersistedEntry `json:"entries"`
	// LastID is the number of the last "q-NNNN" request ID the service
	// issued, written at Close. A cache hit or a rejected ask takes an ID
	// but leaves no trail, so the trail scan alone would issue it again
	// after a restart; the next incarnation resumes past both. A process
	// that dies before Close writes no mark, and may reuse the IDs of
	// hits served since the last one.
	LastID int `json:"last_id,omitempty"`
}

// SaveCacheFile snapshots c into dir/cache.json (atomically, via a rename).
// fingerprint annotates the file; it may be empty.
func SaveCacheFile(dir string, c *Cache, fingerprint string) error {
	return saveCacheFile(dir, c, fingerprint, 0)
}

// saveCacheFile is SaveCacheFile that also records the last request ID.
func saveCacheFile(dir string, c *Cache, fingerprint string, lastID int) error {
	f := cacheFile{
		Version:     cacheFileVersion,
		Fingerprint: fingerprint,
		SavedAt:     time.Now(),
		Entries:     c.Snapshot(),
		LastID:      lastID,
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("service: marshal cache: %w", err)
	}
	tmp := filepath.Join(dir, CacheFileName+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: write cache file: %w", err)
	}
	return os.Rename(tmp, filepath.Join(dir, CacheFileName))
}

// LoadCacheFile reads dir/cache.json. A missing file is not an error: it
// returns (nil, nil).
func LoadCacheFile(dir string) (*cacheFile, error) {
	data, err := os.ReadFile(filepath.Join(dir, CacheFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("service: read cache file: %w", err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("service: parse cache file: %w", err)
	}
	if f.Version != cacheFileVersion {
		return nil, nil
	}
	return &f, nil
}

// CacheFileInfo summarizes a persisted cache without loading it into an
// LRU — the registry uses it to describe cold shards.
type CacheFileInfo struct {
	Entries     int
	Fingerprint string
	SavedAt     time.Time
}

// ReadCacheFileInfo returns the persisted-cache summary for dir, or ok=false
// when no (readable, current-version) cache file exists.
func ReadCacheFileInfo(dir string) (CacheFileInfo, bool) {
	f, err := LoadCacheFile(dir)
	if err != nil || f == nil {
		return CacheFileInfo{}, false
	}
	return CacheFileInfo{Entries: len(f.Entries), Fingerprint: f.Fingerprint, SavedAt: f.SavedAt}, true
}

// persistCache serializes the answer cache, with the last request ID
// issued, to WorkDir/cache.json. No-op without a stable WorkDir (temp-dir
// services have nowhere durable to put it).
func (s *Service) persistCache() error {
	if s.cfg.WorkDir == "" {
		return nil
	}
	fp, _, _ := s.fingerprint()
	s.mu.Lock()
	lastID := s.nextID
	s.mu.Unlock()
	return saveCacheFile(s.cfg.WorkDir, s.cache, fp, lastID)
}

// loadPersistedCache restores WorkDir/cache.json into the fresh cache,
// keeping only entries whose fingerprint matches the ensemble directory as
// it stands now — the re-validation step that makes a stale snapshot safe.
// It resumes the request ID sequence past the file's last_id, whatever the
// entries' fate, and returns how many entries were revived.
func (s *Service) loadPersistedCache() int {
	if s.cfg.WorkDir == "" {
		return 0
	}
	f, err := LoadCacheFile(s.cfg.WorkDir)
	if err != nil {
		s.logf("service: ignoring persisted cache: %v", err)
		return 0
	}
	if f == nil {
		return 0
	}
	s.nextID = max(s.nextID, f.LastID)
	if len(f.Entries) == 0 {
		return 0
	}
	// The service's first fingerprint walks: it sees the directory as is.
	fp, _, err := s.fingerprint()
	if err != nil {
		return 0
	}
	kept := s.cache.Restore(f.Entries, func(k CacheKey) bool { return k.Fingerprint == fp })
	if kept > 0 {
		s.logf("service: revived %d/%d persisted cache entries", kept, len(f.Entries))
	}
	return kept
}
