package service

import (
	"sort"
	"time"
)

// sweepProvenance garbage-collects on-disk session artifact trails per the
// ProvenanceMaxAge / ProvenanceMaxBytes retention policy. It runs at Close
// — shard close or daemon shutdown — after the answer cache has been
// persisted, so the spare set is exactly the sessions a revived shard can
// still serve provenance for. Trails referenced by resident cache entries
// are never removed; among the rest, anything older than MaxAge goes, then
// the oldest go until the total fits MaxBytes. The total counts each byte
// on disk once: every session's own range and manifest lines
// (SessionStat), plus the ranges of removed sessions that references still
// hold (Store.HeldBytes). A removal frees its session's bytes less the
// spans of them that others' references now hold, plus the held spans it
// was the last referrer of, so the sweep re-reads HeldBytes after each
// one. The
// daemon's live request path never pays for this walk.
func (s *Service) sweepProvenance() (removed int, freed int64) {
	maxAge, maxBytes := s.cfg.ProvenanceMaxAge, s.cfg.ProvenanceMaxBytes
	if maxAge <= 0 && maxBytes <= 0 {
		return 0, 0
	}
	spare := map[string]bool{}
	for _, e := range s.cache.Snapshot() {
		if e.Result != nil {
			spare[e.Result.SessionID] = true
		}
	}

	type trail struct {
		id     string
		bytes  int64
		newest time.Time
	}
	store := s.assistant.Store()
	ids, _ := store.Sessions()
	var trails []trail
	total := store.HeldBytes()
	for _, id := range ids {
		bytes, newest, err := store.SessionStat(id)
		if err != nil {
			continue
		}
		total += bytes
		if spare[id] {
			continue // referenced by the persisted answer cache
		}
		trails = append(trails, trail{id: id, bytes: bytes, newest: newest})
	}

	drop := func(t trail) {
		held := store.HeldBytes()
		if err := store.RemoveSession(t.id); err != nil {
			s.logf("service: provenance sweep: remove %s: %v", t.id, err)
			return
		}
		removed++
		gone := t.bytes + held - store.HeldBytes()
		freed += gone
		total -= gone
	}

	// Age rule first: everything past MaxAge goes regardless of budget.
	remaining := trails[:0]
	now := time.Now()
	for _, t := range trails {
		if maxAge > 0 && now.Sub(t.newest) > maxAge {
			drop(t)
			continue
		}
		remaining = append(remaining, t)
	}
	// Size rule: oldest unreferenced trails leave until the total fits.
	// Note total still counts spared trails — the budget bounds the whole
	// directory, and spared sessions simply cannot be chosen.
	if maxBytes > 0 && total > maxBytes {
		sort.Slice(remaining, func(i, j int) bool { return remaining[i].newest.Before(remaining[j].newest) })
		for _, t := range remaining {
			if total <= maxBytes {
				break
			}
			drop(t)
		}
	}
	return removed, freed
}
