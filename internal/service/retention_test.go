package service

import (
	"os"
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
	return retentionServiceCache(t, dir, work, 1, maxAge, maxBytes)
}

// retentionServiceCache is retentionService with an answer cache of the
// given size.
func retentionServiceCache(t *testing.T, dir, work string, cache int, maxAge time.Duration, maxBytes int64) *Service {
	t.Helper()
	svc, err := New(Config{
		EnsembleDir:        dir,
		WorkDir:            work,
		Workers:            1,
		CacheSize:          cache,
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

// The question whose SQL step's table a repeat with another seed records
// as a reference, and another to evict it from the answer cache.
const (
	refQuestion   = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	otherQuestion = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"
)

// askSession asks q with seed and returns the session that answered it.
func askSession(t *testing.T, svc *Service, q string, seed int64) string {
	t.Helper()
	r, err := svc.Ask(AskRequest{Question: q, Seed: seed})
	if err != nil || r.Error != "" {
		t.Fatalf("ask %q seed %d: %v %+v", q, seed, err, r)
	}
	return r.SessionID
}

// trailBytes opens the work dir's store and returns its sessions, their
// bytes on disk (every SessionStat size and HeldBytes), and HeldBytes,
// checking that every session verifies.
func trailBytes(t *testing.T, root string) (ids map[string]bool, total, held int64) {
	t.Helper()
	store, err := provenance.NewStore(root)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	list, _ := store.Sessions()
	ids, held = map[string]bool{}, store.HeldBytes()
	total = held
	for _, id := range list {
		ids[id] = true
		n, _, err := store.SessionStat(id)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		sess, err := store.OpenSession(id)
		if err != nil {
			t.Fatal(err)
		}
		if bad, err := sess.Verify(); err != nil || len(bad) > 0 {
			t.Fatalf("%s does not verify: %v %v", id, bad, err)
		}
	}
	return ids, total, held
}

// TestProvenanceRetentionKeepsReferencedBytes: a repeat of a question with
// another seed references the first ask's table. Swept in either order,
// the source's range stays while a referrer does: removing the source
// first holds the table's bytes, and the referrer still verifies; they go
// with the last referrer. Removing the referrer first leaves the source
// whole and holds nothing.
func TestProvenanceRetentionKeepsReferencedBytes(t *testing.T) {
	dir := testEnsemble(t)
	t.Run("source first", func(t *testing.T) {
		work := t.TempDir()
		root := filepath.Join(work, "sessions")
		svc := retentionService(t, dir, work, time.Nanosecond, 0)
		src := askSession(t, svc, refQuestion, 1)
		ref := askSession(t, svc, refQuestion, 2)
		if st := svc.assistant.Store().Stats(); st.OriginHits == 0 || st.ReferencedBytes == 0 {
			t.Fatalf("the repeat referenced nothing: %+v", st)
		}
		if err := svc.Close(); err != nil { // the 1-entry cache spares ref only
			t.Fatal(err)
		}
		ids, _, held := trailBytes(t, root)
		if ids[src] || !ids[ref] || held == 0 {
			t.Fatalf("after the source's sweep: sessions %v, %d bytes held", ids, held)
		}
		svc = retentionService(t, dir, work, time.Nanosecond, 0)
		askSession(t, svc, otherQuestion, 1) // evicts ref's answer
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if ids, _, held := trailBytes(t, root); ids[ref] || held != 0 {
			t.Fatalf("after the referrer's sweep: sessions %v, %d bytes held", ids, held)
		}
	})
	t.Run("referrer first", func(t *testing.T) {
		work := t.TempDir()
		root := filepath.Join(work, "sessions")
		svc := retentionServiceCache(t, dir, work, 2, time.Nanosecond, 0)
		src := askSession(t, svc, refQuestion, 1)
		ref := askSession(t, svc, refQuestion, 2)
		askSession(t, svc, refQuestion, 1)   // cached: src's answer is the most recent
		askSession(t, svc, otherQuestion, 1) // evicts ref's answer
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		ids, _, held := trailBytes(t, root)
		if !ids[src] || ids[ref] || held != 0 {
			t.Fatalf("after the referrer's sweep: sessions %v, %d bytes held", ids, held)
		}
		svc = retentionServiceCache(t, dir, work, 2, time.Nanosecond, 0)
		askSession(t, svc, otherQuestion, 2)
		askSession(t, svc, otherQuestion, 3) // evict src's answer
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		if ids, _, held := trailBytes(t, root); ids[src] || held != 0 {
			t.Fatalf("after the source's sweep: sessions %v, %d bytes held", ids, held)
		}
	})
}

// TestProvenanceRetentionByBytesCountsHeldRanges: the source of a table
// and three referrers, the last spared by the answer cache, under a byte
// budget one byte below the store's bytes on disk with the source
// removed. Removing the source frees only what its references do not
// hold, so the sweep goes on to the oldest referrer, then stops: it ends
// at or under the budget with the two newest referrers left.
func TestProvenanceRetentionByBytesCountsHeldRanges(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	root := filepath.Join(work, "sessions")
	svc := retentionService(t, dir, work, 0, 0)
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		ids = append(ids, askSession(t, svc, refQuestion, seed))
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// The bytes on disk once the source is gone, measured on a copy.
	scratch := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(root, "seg-*"))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(scratch, filepath.Base(f)), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	store, err := provenance.NewStore(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.RemoveSession(ids[0]); err != nil {
		t.Fatal(err)
	}
	store.Close()
	_, without, held := trailBytes(t, scratch)
	if held == 0 {
		t.Fatal("removing the source held nothing")
	}
	budget := without - 1

	svc = retentionService(t, dir, work, 0, budget)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	left, total, _ := trailBytes(t, root)
	if total > budget || len(left) != 2 || !left[ids[2]] || !left[ids[3]] {
		t.Fatalf("sweep left %v, %d bytes on disk, budget %d; want %s and %s", left, total, budget, ids[2], ids[3])
	}
}
