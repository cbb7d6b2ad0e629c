package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/stage"
)

func testEnsemble(t *testing.T) string {
	t.Helper()
	return testEnsembleSeeded(t, 3)
}

// testEnsembleSeeded generates a small ensemble whose data differs by seed,
// so multi-shard tests can tell answers from different ensembles apart.
func testEnsembleSeeded(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 350, 498, 624},
		HalosPerRun:      100,
		ParticlesPerStep: 100,
		BoxSize:          128,
		Seed:             seed,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

// errFreeModel keeps workflow runs deterministic for tests.
func errFreeModel(seed int64) llm.Client {
	return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
}

func newService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.EnsembleDir == "" {
		cfg.EnsembleDir = testEnsemble(t)
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = t.TempDir()
	}
	if cfg.NewModel == nil {
		cfg.NewModel = errFreeModel
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

const topHalosQ = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"

func TestServiceAskAndCacheHit(t *testing.T) {
	svc := newService(t, Config{Workers: 1})

	first, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Error != "" || first.Rows != 20 || first.AnswerCSV == "" {
		t.Fatalf("first = %+v", first)
	}
	if first.Tokens == 0 || first.PlanSteps == 0 || len(first.Artifacts) == 0 {
		t.Fatalf("first missing workflow metadata: %+v", first)
	}

	// A trivially different phrasing of the same question must hit.
	second, err := svc.Ask(AskRequest{Question: "  can you find me the TOP 20 largest friends-of-friends halos from timestep 498 in simulation 0  "})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("second ask should be cached: %+v", second)
	}
	if second.SessionID != first.SessionID || second.AnswerCSV != first.AnswerCSV {
		t.Fatalf("cached answer diverged: %q vs %q", second.SessionID, first.SessionID)
	}
	if second.RequestID == first.RequestID {
		t.Fatal("cached request should get its own record ID")
	}

	// A different seed is a different computation.
	third, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("different seed should miss the cache")
	}

	st := svc.Metrics()
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Completed != 2 || st.CachedTotal != 1 || st.Failed != 0 {
		t.Errorf("metrics = %+v", st)
	}

	// Session records: done, cached (with source), done.
	sessions := svc.Sessions()
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d", len(sessions))
	}
	if sessions[0].Status != "done" || sessions[1].Status != "cached" || sessions[2].Status != "done" {
		t.Errorf("statuses = %s %s %s", sessions[0].Status, sessions[1].Status, sessions[2].Status)
	}
	if sessions[1].SourceSession != first.SessionID {
		t.Errorf("cached record source = %q, want %q", sessions[1].SourceSession, first.SessionID)
	}

	// Provenance resolves for both the computed and the cached record, and
	// the cached record's trail is the original's.
	orig, err := svc.Provenance(first.RequestID)
	if err != nil || len(orig) == 0 {
		t.Fatalf("provenance(first): %v %d", err, len(orig))
	}
	viaCache, err := svc.Provenance(second.RequestID)
	if err != nil || len(viaCache) != len(orig) {
		t.Fatalf("provenance(cached): %v %d vs %d", err, len(viaCache), len(orig))
	}
	if bad, err := svc.VerifySession(second.RequestID); err != nil || len(bad) != 0 {
		t.Fatalf("verify: %v %v", bad, err)
	}
}

func TestServiceFingerprintInvalidation(t *testing.T) {
	dir := testEnsemble(t)
	svc, st := watchedService(t, dir)

	fp1, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Ask(AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}

	// Simulate the ensemble being regenerated: add a file to the dir, and
	// wait for the stage watch to see it.
	events := st.Stats().WatchEvents
	if err := os.WriteFile(filepath.Join(dir, "extra-run.bin"), []byte("new data"), 0o644); err != nil {
		t.Fatal(err)
	}
	waitWatchEvents(t, st, events)
	fp2, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 == fp2 {
		t.Fatal("fingerprint unchanged after ensemble dir changed")
	}

	res, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Fatal("changed ensemble must invalidate the cached answer")
	}
}

func TestFingerprintStable(t *testing.T) {
	dir := testEnsemble(t)
	fp1, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("fingerprint not stable: %s vs %s", fp1, fp2)
	}
}

// TestServiceConcurrentAsk drives >= 8 parallel sessions through a 4-worker
// pool under -race and audits every provenance trail.
func TestServiceConcurrentAsk(t *testing.T) {
	svc := newService(t, Config{Workers: 4, QueueDepth: 32})

	questions := []string{
		topHalosQ,
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
	}
	const parallel = 8
	results := make([]*AskResult, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct seeds force distinct computations (no cache hits).
			results[i], errs[i] = svc.Ask(AskRequest{Question: questions[i%len(questions)], Seed: int64(i) + 1})
		}(i)
	}
	wg.Wait()

	seen := map[string]bool{}
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("ask %d: %v", i, errs[i])
		}
		if results[i].Error != "" || results[i].Cached || results[i].Rows == 0 {
			t.Fatalf("ask %d result = %+v", i, results[i])
		}
		if seen[results[i].RequestID] {
			t.Fatalf("duplicate request ID %q", results[i].RequestID)
		}
		seen[results[i].RequestID] = true
		bad, err := svc.VerifySession(results[i].RequestID)
		if err != nil || len(bad) != 0 {
			t.Fatalf("ask %d provenance: bad=%v err=%v", i, bad, err)
		}
	}
	m := svc.Metrics()
	if m.Completed != parallel || m.Failed != 0 || m.Running != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// blockingModel gates the first Complete call so tests can hold a worker
// busy deterministically.
type blockingModel struct {
	llm.Client
	release chan struct{}
	once    sync.Once
	started chan struct{}
}

func (b *blockingModel) Complete(req llm.Request) (llm.Response, error) {
	b.once.Do(func() {
		close(b.started)
		<-b.release
	})
	return b.Client.Complete(req)
}

func TestServiceQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var gateOnce sync.Once
	svc := newService(t, Config{
		Workers:    1,
		QueueDepth: 1,
		NewModel: func(seed int64) llm.Client {
			m := llm.Client(errFreeModel(seed))
			// Only the first request blocks; the rest run normally.
			gateOnce.Do(func() {
				m = &blockingModel{Client: m, release: release, started: started}
			})
			return m
		},
	})

	// Request 1 occupies the single worker.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 1}); err != nil {
			t.Errorf("blocked ask: %v", err)
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("first request never reached the model")
	}

	// Request 2 sits in the queue slot.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 2}); err != nil {
			t.Errorf("queued ask: %v", err)
		}
	}()
	// Wait until the queue slot is actually occupied.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().QueueLen == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Request 3 must be rejected with backpressure, not block.
	if _, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 3}); err != ErrQueueFull {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	m := svc.Metrics()
	if m.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", m.Rejected)
	}
	// Backpressure is not workflow failure: the record says "rejected" and
	// the Failed counter stays clean.
	if m.Failed != 0 {
		t.Errorf("failed = %d, want 0 (rejection is not failure)", m.Failed)
	}
	var rejected int
	for _, s := range svc.Sessions() {
		if s.Status == "rejected" {
			rejected++
		}
	}
	if rejected != 1 {
		t.Errorf("rejected records = %d, want 1", rejected)
	}

	close(release)
	wg.Wait()
}

// TestServiceSingleFlight: concurrent identical cache misses must coalesce
// into one workflow computation, with the followers served from the cache.
func TestServiceSingleFlight(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var gateOnce sync.Once
	svc := newService(t, Config{
		Workers:    2,
		QueueDepth: 8,
		NewModel: func(seed int64) llm.Client {
			m := llm.Client(errFreeModel(seed))
			gateOnce.Do(func() {
				m = &blockingModel{Client: m, release: release, started: started}
			})
			return m
		},
	})

	const parallel = 4
	results := make([]*AskResult, parallel)
	errs := make([]error, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Ask(AskRequest{Question: topHalosQ, Seed: 7})
		}(i)
	}
	// Once the leader reaches the model, the other three must be waiting on
	// the in-flight key, not queued as separate computations.
	<-started
	close(release)
	wg.Wait()

	var computed, cached int
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("ask %d: %v", i, errs[i])
		}
		if results[i].Cached {
			cached++
		} else {
			computed++
		}
	}
	if computed != 1 || cached != parallel-1 {
		t.Fatalf("computed=%d cached=%d, want 1 and %d", computed, cached, parallel-1)
	}
	m := svc.Metrics()
	if m.Completed != 1 {
		t.Errorf("completed = %d, want 1 (single-flight)", m.Completed)
	}
	// Coalesced followers must not inflate the miss counter: one miss (the
	// leader's), one hit per follower.
	if m.Cache.Misses != 1 || m.Cache.Hits != int64(parallel-1) {
		t.Errorf("cache stats = %+v, want 1 miss / %d hits", m.Cache, parallel-1)
	}
}

// TestServiceSessionRetention: the record history is bounded by
// MaxSessions, dropping the oldest finished records.
func TestServiceSessionRetention(t *testing.T) {
	svc := newService(t, Config{Workers: 1, MaxSessions: 2})
	for i := 0; i < 4; i++ {
		if _, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: int64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	sessions := svc.Sessions()
	if len(sessions) != 2 {
		t.Fatalf("retained %d records, want 2", len(sessions))
	}
	if sessions[0].ID != "q-0003" || sessions[1].ID != "q-0004" {
		t.Errorf("retained = %s %s, want q-0003 q-0004", sessions[0].ID, sessions[1].ID)
	}
	// Trimmed records no longer resolve.
	if _, err := svc.Provenance("q-0001"); err == nil {
		t.Error("trimmed record should not resolve provenance")
	}

	// Cache entries outlive trimmed records: a hit whose source session
	// record was trimmed must still resolve provenance from the on-disk
	// trail (pool-store fallback).
	hit, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.SessionID != "q-0001" {
		t.Fatalf("expected cache hit serving trimmed q-0001, got %+v", hit)
	}
	entries, err := svc.Provenance(hit.RequestID)
	if err != nil || len(entries) == 0 {
		t.Fatalf("provenance via trimmed source: %v (%d entries)", err, len(entries))
	}
	if bad, err := svc.VerifySession(hit.RequestID); err != nil || len(bad) != 0 {
		t.Fatalf("verify via trimmed source: %v %v", bad, err)
	}
}

func TestServiceClosedRejectsAsks(t *testing.T) {
	svc := newService(t, Config{Workers: 1})
	// Warm the cache so the closed check is provably ahead of the cache.
	if _, err := svc.Ask(AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	// Even a cached question must fail after Close.
	if _, err := svc.Ask(AskRequest{Question: topHalosQ}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	if _, err := svc.Ask(AskRequest{Question: "never seen"}); err != ErrClosed {
		t.Fatalf("want ErrClosed, got %v", err)
	}
	// Idempotent close.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServiceFailedRunIsRecordedNotCached(t *testing.T) {
	// A QA profile that rejects nearly everything fails deterministically.
	svc := newService(t, Config{
		Workers: 1,
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, BinaryQA: true, QAFalseNegRate: 0.999})
		},
	})
	res, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error == "" {
		t.Fatalf("expected workflow failure, got %+v", res)
	}
	// Failures must not be served from cache.
	res2, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("failed run must not populate the cache")
	}
	m := svc.Metrics()
	if m.Failed != 2 || m.Completed != 0 {
		t.Errorf("metrics = %+v", m)
	}
	// The failed session still has an inspectable (partial) trail.
	if _, err := svc.Provenance(res.RequestID); err != nil {
		t.Errorf("failed session provenance: %v", err)
	}
	if got, ok := svc.Session(res.RequestID); !ok || got.Status != "failed" {
		t.Errorf("session record = %+v %v", got, ok)
	}
}

// TestServiceStagingDBReclaimed: the per-question staging database lives
// in memory only, so nothing appears under a db/ directory of the work dir,
// and the provenance trail still verifies after the answer.
func TestServiceStagingDBReclaimed(t *testing.T) {
	work := t.TempDir()
	svc := newService(t, Config{Workers: 1, WorkDir: work})
	res, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil || res.Error != "" {
		t.Fatalf("ask: %v %+v", err, res)
	}
	dbDir := filepath.Join(work, "db")
	if _, err := os.Stat(dbDir); !os.IsNotExist(err) {
		t.Errorf("staging DB directory %s should not exist (stat err = %v)", dbDir, err)
	}
	if bad, err := svc.VerifySession(res.RequestID); err != nil || len(bad) != 0 {
		t.Fatalf("verify after answer: %v %v", bad, err)
	}
}

// TestServiceCachePersistence: a service with a stable WorkDir serializes
// its answer cache on Close and a successor over the same WorkDir revives
// it — also with a different worker count, since every worker's trails
// share the one store — unless the ensemble changed, in which case the
// stale entries are dropped at load (fingerprint re-validation).
func TestServiceCachePersistence(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	questions := []string{topHalosQ, "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"}

	first := newService(t, Config{Workers: 1, EnsembleDir: dir, WorkDir: work})
	var computed []*AskResult
	for _, q := range questions {
		res, err := first.Ask(AskRequest{Question: q})
		if err != nil || res.Error != "" {
			t.Fatalf("ask: %v %+v", err, res)
		}
		computed = append(computed, res)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(work, CacheFileName)); err != nil {
		t.Fatalf("cache file not persisted: %v", err)
	}
	if fi, ok := ReadCacheFileInfo(work); !ok || fi.Entries != len(questions) {
		t.Fatalf("cache file info = %+v %v", fi, ok)
	}

	// Restart with three workers: every question is a hit without any
	// computation, and its provenance still resolves from the on-disk trail.
	second := newService(t, Config{Workers: 3, EnsembleDir: dir, WorkDir: work})
	for i, q := range questions {
		hit, err := second.Ask(AskRequest{Question: q})
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached || hit.SessionID != computed[i].SessionID {
			t.Fatalf("restart should serve from the persisted cache: %+v", hit)
		}
		if entries, err := second.Provenance(hit.RequestID); err != nil || len(entries) == 0 {
			t.Fatalf("provenance after restart: %v (%d entries)", err, len(entries))
		}
		if bad, err := second.VerifySession(hit.RequestID); err != nil || len(bad) != 0 {
			t.Fatalf("verify after restart: %v %v", bad, err)
		}
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}
	if stray, _ := filepath.Glob(filepath.Join(work, "worker-*")); len(stray) != 0 {
		t.Fatalf("per-worker dirs in the work dir: %v", stray)
	}

	// Change the ensemble: the persisted entries no longer validate, so the
	// next incarnation starts cold for safety.
	if err := os.WriteFile(filepath.Join(dir, "extra-run.bin"), []byte("new data"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := newService(t, Config{Workers: 1, EnsembleDir: dir, WorkDir: work})
	if third.CacheLen() != 0 {
		t.Fatalf("stale persisted entries must be dropped, cache len = %d", third.CacheLen())
	}
	miss, err := third.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Fatal("changed ensemble must not serve persisted answers")
	}
	// The ID sequence resumed past the on-disk sessions, so the new
	// computation can never shadow an old trail.
	for _, res := range computed {
		if miss.RequestID == res.RequestID {
			t.Fatalf("restarted service reused session ID %s", miss.RequestID)
		}
	}
}

// TestServiceRequestIDsResumePastHits: cache hits take request IDs but
// write no trail, so the next incarnation must resume past the IDs they
// took (cache.json's last_id), not only past the trails on disk.
func TestServiceRequestIDsResumePastHits(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	idNum := func(id string) int {
		var n int
		if _, err := fmt.Sscanf(id, "q-%d", &n); err != nil {
			t.Fatalf("request ID %q: %v", id, err)
		}
		return n
	}

	first := newService(t, Config{Workers: 1, EnsembleDir: dir, WorkDir: work})
	if _, err := first.Ask(AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := newService(t, Config{Workers: 1, EnsembleDir: dir, WorkDir: work})
	issued := 0
	for i := 0; i < 2; i++ {
		hit, err := second.Ask(AskRequest{Question: topHalosQ})
		if err != nil {
			t.Fatal(err)
		}
		if !hit.Cached {
			t.Fatalf("ask %d after a restart should hit the persisted cache: %+v", i, hit)
		}
		issued = max(issued, idNum(hit.RequestID))
	}
	if err := second.Close(); err != nil {
		t.Fatal(err)
	}

	third := newService(t, Config{Workers: 1, EnsembleDir: dir, WorkDir: work})
	miss, err := third.Ask(AskRequest{Question: topHalosQ, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if miss.Cached {
		t.Fatalf("a new seed must compute: %+v", miss)
	}
	if got := idNum(miss.RequestID); got <= issued {
		t.Fatalf("computed ask took %s; the last incarnation issued up to q-%04d", miss.RequestID, issued)
	}
}

func TestServiceSessionIDsAreSequential(t *testing.T) {
	svc := newService(t, Config{Workers: 2})
	for i := 0; i < 3; i++ {
		if _, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: int64(i) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	sessions := svc.Sessions()
	for i, s := range sessions {
		if want := fmt.Sprintf("q-%04d", i+1); s.ID != want {
			t.Errorf("session %d ID = %q, want %q", i, s.ID, want)
		}
	}
}

// TestServiceSharedStagingDedupe drives >= 8 concurrent sessions that all
// stage the same overlapping (sim, step) slices through one service and
// proves the shared staging cache decodes each underlying gio file exactly
// once — the cross-request batching property. Run under -race.
func TestServiceSharedStagingDedupe(t *testing.T) {
	dir := testEnsemble(t)
	st := stage.New(1<<30, 4) // isolated cache so counters are exact
	svc := newService(t, Config{EnsembleDir: dir, Workers: 4, QueueDepth: 32, Stage: st})

	// This question stages the halos table for all sims and steps; distinct
	// seeds force distinct workflow computations (no answer-cache hits),
	// which is exactly the overlapping-slices scenario.
	const q = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	const parallel = 8
	var wg sync.WaitGroup
	errs := make([]error, parallel)
	results := make([]*AskResult, parallel)
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = svc.Ask(AskRequest{Question: q, Seed: int64(i) + 1})
		}(i)
	}
	wg.Wait()
	for i := 0; i < parallel; i++ {
		if errs[i] != nil {
			t.Fatalf("ask %d: %v", i, errs[i])
		}
		if results[i].Error != "" || results[i].Cached {
			t.Fatalf("ask %d result = %+v", i, results[i])
		}
	}

	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	haloFiles := len(cat.FilesOf(-1, -1, hacc.FileHalos))
	if haloFiles == 0 {
		t.Fatal("no halo files in ensemble")
	}
	stats := st.Stats()
	if stats.Opens != int64(haloFiles) {
		t.Fatalf("each halo file must decode exactly once across %d sessions: opens = %d, want %d (stats %+v)",
			parallel, stats.Opens, haloFiles, stats)
	}
	if stats.Hits == 0 {
		t.Fatal("overlapping sessions must share decodes")
	}
}
