package service

import (
	"path/filepath"
	"testing"
	"time"

	"infera/internal/llm"
	"infera/internal/provenance"
)

// retentionService builds a service with a stable WorkDir, a 1-entry
// answer cache (so earlier answers become unreferenced) and the given
// retention policy.
func retentionService(t *testing.T, dir, work string, maxAge time.Duration, maxBytes int64) *Service {
	t.Helper()
	svc, err := New(Config{
		EnsembleDir:        dir,
		WorkDir:            work,
		Workers:            1,
		CacheSize:          1,
		Seed:               1,
		ProvenanceMaxAge:   maxAge,
		ProvenanceMaxBytes: maxBytes,
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// sessionDirs lists the provenance sessions of the work dir's store.
func sessionDirs(t *testing.T, work string) map[string]bool {
	t.Helper()
	store, err := provenance.NewStore(filepath.Join(work, "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ids, err := store.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// TestProvenanceRetentionSweep: closing a service with an age-based
// retention policy removes old unreferenced session trails but spares the
// sessions the persisted answer cache still references.
func TestProvenanceRetentionSweep(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	// MaxAge 1ns: at close, every trail is "old"; only cache references
	// protect a trail.
	svc := retentionService(t, dir, work, time.Nanosecond, 0)

	q1 := "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"
	q2 := "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	r1, err := svc.Ask(AskRequest{Question: q1})
	if err != nil || r1.Error != "" {
		t.Fatalf("ask 1: %v %+v", err, r1)
	}
	// The 1-entry cache evicts q1's answer when q2 lands, leaving q1's
	// session trail unreferenced.
	r2, err := svc.Ask(AskRequest{Question: q2})
	if err != nil || r2.Error != "" {
		t.Fatalf("ask 2: %v %+v", err, r2)
	}
	before := sessionDirs(t, work)
	if !before[r1.SessionID] || !before[r2.SessionID] {
		t.Fatalf("expected both trails on disk before close: %v", before)
	}
	if segs, _ := filepath.Glob(filepath.Join(work, "sessions", "seg-*.log")); len(segs) != 1 {
		t.Fatalf("the two trails are in segments %v, want one shared segment", segs)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	after := sessionDirs(t, work)
	if after[r1.SessionID] {
		t.Fatalf("unreferenced old trail %s must be swept", r1.SessionID)
	}
	if !after[r2.SessionID] {
		t.Fatalf("cache-referenced trail %s must be spared", r2.SessionID)
	}

	// The spared trail still resolves provenance after revival.
	svc2 := retentionService(t, dir, work, time.Nanosecond, 0)
	defer svc2.Close()
	if svc2.CacheLen() != 1 {
		t.Fatalf("revived cache entries = %d, want 1", svc2.CacheLen())
	}
	r3, err := svc2.Ask(AskRequest{Question: q2})
	if err != nil || !r3.Cached {
		t.Fatalf("revived ask: %v %+v", err, r3)
	}
	if _, err := svc2.Provenance(r3.RequestID); err != nil {
		t.Fatalf("provenance behind spared trail: %v", err)
	}
}

// TestProvenanceRetentionByBytes: a byte budget removes oldest
// unreferenced trails until the directory fits.
func TestProvenanceRetentionByBytes(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	// 1-byte budget: nothing unreferenced can stay.
	svc := retentionService(t, dir, work, 0, 1)

	questions := []string{
		"Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
		"Can you find me the top 10 largest friends-of-friends halos from timestep 498 in simulation 1?",
	}
	var last string
	for _, q := range questions {
		r, err := svc.Ask(AskRequest{Question: q})
		if err != nil || r.Error != "" {
			t.Fatalf("ask %q: %v %+v", q, err, r)
		}
		last = r.SessionID
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	after := sessionDirs(t, work)
	if len(after) != 1 || !after[last] {
		t.Fatalf("byte budget must keep only the cache-referenced trail %s, got %v", last, after)
	}
}
