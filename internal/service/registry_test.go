package service

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"infera/internal/agent"
	"infera/internal/hacc"
	"infera/internal/provenance"
	"infera/internal/stage"
)

// testRegistry builds a registry over an isolated staging cache with stable
// per-shard work dirs, registering one shard per (name, seed) pair.
func testRegistry(t *testing.T, maxLive int, shards map[string]int64) (*Registry, *stage.Cache) {
	t.Helper()
	st := stage.New(1<<30, 4)
	reg := NewRegistry(RegistryConfig{
		Defaults: Config{
			Workers:  2,
			Seed:     1,
			NewModel: errFreeModel,
			Stage:    st,
		},
		WorkDir:       t.TempDir(),
		MaxLiveShards: maxLive,
	})
	for name, seed := range shards {
		if _, err := reg.Register(name, testEnsembleSeeded(t, seed)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { reg.Close() })
	return reg, st
}

// onLive runs f on shard name's Service, pinned live for the call as a
// session route pins it for one request.
func onLive(t *testing.T, reg *Registry, name string, f func(*Service)) {
	t.Helper()
	sh, svc, _, err := reg.pinLive(name)
	if err != nil {
		t.Fatalf("pin shard %s: %v", name, err)
	}
	defer reg.release(sh)
	f(svc)
}

func TestRegistryLazyOpenAndPerShardIsolation(t *testing.T) {
	reg, _ := testRegistry(t, 4, map[string]int64{"a": 3, "b": 11, "c": 19})

	// Nothing is live before the first question.
	for _, info := range reg.Ensembles() {
		if info.State != "cold" || info.Opens != 0 {
			t.Fatalf("pre-traffic shard = %+v", info)
		}
	}

	// The same question against each shard is three distinct computations
	// over three distinct ensembles.
	answers := map[string]*AskResult{}
	for _, name := range []string{"a", "b", "c"} {
		res, err := reg.Ask(name, AskRequest{Question: topHalosQ})
		if err != nil {
			t.Fatalf("ask %s: %v", name, err)
		}
		if res.Error != "" || res.Cached || res.Rows != 20 {
			t.Fatalf("ask %s = %+v", name, res)
		}
		answers[name] = res
	}
	if answers["a"].AnswerCSV == answers["b"].AnswerCSV || answers["b"].AnswerCSV == answers["c"].AnswerCSV {
		t.Fatal("shards answered from the same ensemble")
	}

	// Re-asking hits only the owning shard's cache.
	hit, err := reg.Ask("b", AskRequest{Question: topHalosQ})
	if err != nil || !hit.Cached || hit.SessionID != answers["b"].SessionID {
		t.Fatalf("shard-b re-ask = %+v (%v)", hit, err)
	}

	// Fingerprints are per shard and distinct.
	fps := map[string]bool{}
	for _, name := range []string{"a", "b", "c"} {
		var m Metrics
		onLive(t, reg, name, func(svc *Service) { m = svc.Metrics() })
		if m.Fingerprint == "" || fps[m.Fingerprint] {
			t.Fatalf("shard %s fingerprint %q not unique", name, m.Fingerprint)
		}
		fps[m.Fingerprint] = true
		if m.Completed != 1 {
			t.Errorf("shard %s completed = %d, want 1", name, m.Completed)
		}
	}

	// Aggregate metrics see the whole fleet.
	am := reg.Metrics()
	if am.Shards != 3 || am.Live != 3 || am.Cold != 0 || am.ShardOpens != 3 ||
		am.Completed != 3 || am.CachedTotal != 1 {
		t.Errorf("aggregate = %+v", am)
	}

	// Unknown shard fails typed.
	if _, err := reg.Ask("nope", AskRequest{Question: topHalosQ}); !errors.Is(err, ErrUnknownEnsemble) {
		t.Errorf("unknown shard err = %v", err)
	}
}

// TestRegistryConcurrentShardRouting is the -race satellite: >= 8 concurrent
// sessions spread over >= 3 shards, asserting per-shard cache/fingerprint
// isolation and that the staging cache is shared across shards — each
// underlying gio file still decodes exactly once process-wide.
func TestRegistryConcurrentShardRouting(t *testing.T) {
	names := []string{"a", "b", "c"}
	reg, st := testRegistry(t, 4, map[string]int64{"a": 3, "b": 11, "c": 19})

	// This question stages the halos table for all sims and steps; distinct
	// seeds within a shard force distinct workflow computations.
	const q = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	const perShard = 3 // 9 concurrent sessions over 3 shards
	type slot struct {
		res *AskResult
		err error
	}
	results := make([]slot, len(names)*perShard)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := reg.Ask(names[i%len(names)], AskRequest{Question: q, Seed: int64(i/len(names)) + 1})
			results[i] = slot{res, err}
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("ask %d: %v", i, r.err)
		}
		if r.res.Error != "" || r.res.Cached {
			t.Fatalf("ask %d = %+v", i, r.res)
		}
	}

	// Per-shard answer caches saw only their own traffic: each shard
	// computed exactly perShard times and was never polluted by another
	// shard's identical (question, seed) keys.
	fps := map[string]bool{}
	for _, name := range names {
		var m Metrics
		onLive(t, reg, name, func(svc *Service) { m = svc.Metrics() })
		if m.Completed != perShard || m.Cache.Misses != perShard || m.Cache.Hits != 0 {
			t.Fatalf("shard %s metrics = %+v, want %d isolated computations", name, m, perShard)
		}
		if fps[m.Fingerprint] {
			t.Fatalf("shard %s shares a fingerprint", name)
		}
		fps[m.Fingerprint] = true
	}

	// Stage-cache sharing across shards: every halo file of every ensemble
	// decoded exactly once, no matter how many sessions or shards staged it.
	var haloFiles int64
	for _, info := range reg.Ensembles() {
		cat, err := hacc.Load(info.Dir)
		if err != nil {
			t.Fatal(err)
		}
		haloFiles += int64(len(cat.FilesOf(-1, -1, hacc.FileHalos)))
	}
	stats := st.Stats()
	if stats.Opens != haloFiles {
		t.Fatalf("decode-once across shards: opens = %d, want %d (stats %+v)", stats.Opens, haloFiles, stats)
	}
	if stats.Hits == 0 {
		t.Fatal("concurrent sessions must share decodes")
	}
}

// waitShardState polls until shard name reaches the wanted state —
// evictions drain and persist in the background, off the request path.
func waitShardState(t *testing.T, reg *Registry, name, want string) ShardInfo {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := reg.Ensemble(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard %s stuck in %q, want %q (%+v)", name, info.State, want, info)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRegistryEvictionAndRevival is the acceptance check for the live-shard
// budget: exceeding -max-live-shards closes the LRU idle shard (persisting
// its answer cache), and re-asking it revives the shard with its cache
// intact.
func TestRegistryEvictionAndRevival(t *testing.T) {
	reg, _ := testRegistry(t, 2, map[string]int64{"a": 3, "b": 11, "c": 19})

	resA, err := reg.Ask("a", AskRequest{Question: topHalosQ})
	if err != nil || resA.Error != "" {
		t.Fatalf("ask a: %v %+v", err, resA)
	}
	if _, err := reg.Ask("b", AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}
	// Two live shards fill the budget; opening "c" must evict "a" (the
	// least recently used).
	if _, err := reg.Ask("c", AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}

	info := waitShardState(t, reg, "a", "cold")
	if info.CacheEntries != 1 || info.Opens != 1 {
		t.Fatalf("evicted shard a = %+v", info)
	}
	for _, name := range []string{"b", "c"} {
		info, err := reg.Ensemble(name)
		if err != nil || info.State != "live" {
			t.Fatalf("shard %s = %+v (%v)", name, info, err)
		}
	}
	m := reg.Metrics()
	if m.Live != 2 || m.Cold != 1 || m.ShardEvictions != 1 {
		t.Fatalf("metrics after eviction = %+v", m)
	}
	// A cold shard has no live session state but stays inspectable: it
	// reports its persisted cache and close-time fingerprint.
	if _, _, stub, err := reg.pinLive("a"); !errors.Is(err, ErrShardCold) || stub.Cache.Len != 1 || stub.Fingerprint == "" {
		t.Fatalf("cold shard a: %v, stub %+v", err, stub)
	}

	// Revival: asking "a" again reopens it (evicting the current LRU, "b")
	// and serves the original answer from the persisted cache.
	hit, err := reg.Ask("a", AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.SessionID != resA.SessionID {
		t.Fatalf("revived shard should hit its persisted cache: %+v", hit)
	}
	// The revived hit's provenance resolves from the shard's on-disk trail,
	// which eviction preserved.
	var entries []provenance.Entry
	onLive(t, reg, "a", func(svc *Service) { entries, err = svc.Provenance(hit.RequestID) })
	if err != nil || len(entries) == 0 {
		t.Fatalf("revived provenance: %v (%d entries)", err, len(entries))
	}
	info, err = reg.Ensemble("a")
	if err != nil || info.State != "live" || info.Opens != 2 {
		t.Fatalf("revived shard a = %+v (%v)", info, err)
	}
	if infoB := waitShardState(t, reg, "b", "cold"); infoB.Opens != 1 {
		t.Fatalf("LRU shard b should have been evicted: %+v", infoB)
	}

	// Lifetime aggregates survive the eviction/revival cycle: 3 computed
	// answers and 1 cache hit, even though two pools were torn down.
	m = reg.Metrics()
	if m.Completed != 3 || m.CachedTotal != 1 || m.ShardOpens != 4 || m.ShardEvictions != 2 {
		t.Fatalf("lifetime aggregate = %+v", m)
	}
}

// TestRegistryPersistenceAcrossRestart: a new registry over the same work
// root revives a shard's answer cache from disk — the daemon-restart story.
func TestRegistryPersistenceAcrossRestart(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	build := func() *Registry {
		reg := NewRegistry(RegistryConfig{
			Defaults: Config{Workers: 1, Seed: 1, NewModel: errFreeModel},
			WorkDir:  work,
		})
		if _, err := reg.Register("default", dir); err != nil {
			t.Fatal(err)
		}
		return reg
	}

	first := build()
	res, err := first.Ask("default", AskRequest{Question: topHalosQ})
	if err != nil || res.Error != "" {
		t.Fatalf("ask: %v %+v", err, res)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	second := build()
	defer second.Close()
	// Before any traffic, the cold shard already reports its persisted
	// cache and close-time fingerprint.
	info, err := second.Ensemble("default")
	if err != nil || info.State != "cold" || info.CacheEntries != 1 || info.Fingerprint == "" {
		t.Fatalf("restarted cold shard = %+v (%v)", info, err)
	}
	hit, err := second.Ask("default", AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached || hit.SessionID != res.SessionID {
		t.Fatalf("restart should serve the persisted answer: %+v", hit)
	}
	var entries []provenance.Entry
	onLive(t, second, "default", func(svc *Service) { entries, err = svc.Provenance(hit.RequestID) })
	if err != nil || len(entries) == 0 {
		t.Fatalf("provenance across restart: %v (%d entries)", err, len(entries))
	}
}

// TestRegistryRestartRevivesDiskTier: a daemon restarted over the same work
// root stages a new computation from the stage disk tier the first
// incarnation persisted — no gio file is opened — and answers exactly as a
// cold service does.
func TestRegistryRestartRevivesDiskTier(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()
	build := func() (*Registry, *stage.Cache) {
		st := stage.New(1<<30, 4)
		if err := st.SetDiskTier(filepath.Join(work, "stage"), 0); err != nil {
			t.Fatal(err)
		}
		reg := NewRegistry(RegistryConfig{
			Defaults: Config{Workers: 1, Seed: 1, NewModel: errFreeModel, Stage: st},
			WorkDir:  work,
		})
		if _, err := reg.Register("default", dir); err != nil {
			t.Fatal(err)
		}
		return reg, st
	}

	first, st := build()
	if res, err := first.Ask("default", AskRequest{Question: topHalosQ}); err != nil || res.Error != "" {
		t.Fatalf("first ask: %v %+v", err, res)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	st.Close()

	second, st := build()
	defer st.Close()
	defer second.Close()
	// A new seed misses the persisted answer cache, so the workflow runs
	// and stages its columns again.
	const seed = 2
	got, err := second.Ask("default", AskRequest{Question: topHalosQ, Seed: seed})
	if err != nil || got.Error != "" || got.Cached {
		t.Fatalf("restarted ask: %v %+v", err, got)
	}
	if s := st.Stats(); s.DiskHits == 0 || s.Opens != 0 {
		t.Fatalf("restart must stage from the disk tier: disk_hits = %d, opens = %d", s.DiskHits, s.Opens)
	}

	cold := newService(t, Config{EnsembleDir: dir, Stage: stage.New(1<<30, 4)})
	want, err := cold.Ask(AskRequest{Question: topHalosQ, Seed: seed})
	if err != nil || want.Error != "" {
		t.Fatalf("cold ask: %v %+v", err, want)
	}
	if got.AnswerCSV != want.AnswerCSV {
		t.Fatalf("disk-warm answer differs from the cold one:\n%s\nvs\n%s", got.AnswerCSV, want.AnswerCSV)
	}
}

// TestRegistryInteractivePinning: a shard with an interactive session in
// flight stays pinned — sibling opens past the live budget must evict some
// other shard, never the one whose event log and approval gate are live.
func TestRegistryInteractivePinning(t *testing.T) {
	reg, _ := testRegistry(t, 1, map[string]int64{"a": 3, "b": 11})

	info, err := reg.AskInteractive("a", AskRequest{Question: topHalosQ, Interactive: true})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the plan is actually awaiting review.
	deadline := time.Now().Add(30 * time.Second)
	for {
		onLive(t, reg, "a", func(svc *Service) {
			err = svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: false, Comment: "hold"})
		})
		if err == nil {
			break
		} else if !errors.Is(err, agent.ErrNoPendingPlan) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("plan never became pending")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Push the fleet past the budget of 1: shard a must survive because its
	// interactive session pins it.
	if _, err := reg.Ask("b", AskRequest{Question: topHalosQ}); err != nil {
		t.Fatal(err)
	}
	if i, err := reg.Ensemble("a"); err != nil || i.State != "live" {
		t.Fatalf("pinned shard a = %+v (%v)", i, err)
	}

	// Approve the (revised) plan and drain the session.
	for {
		onLive(t, reg, "a", func(svc *Service) { err = svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: true}) })
		if err == nil {
			break
		} else if !errors.Is(err, agent.ErrNoPendingPlan) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("revised plan never became pending")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		var res *AskResult
		onLive(t, reg, "a", func(svc *Service) { res, err = svc.Result(info.ID) })
		if err == nil {
			if res.Error != "" || res.Rows != 20 {
				t.Fatalf("result = %+v", res)
			}
			break
		}
		if !errors.Is(err, ErrNotFinished) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive session never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	reg, _ := testRegistry(t, 2, nil)

	if _, err := reg.Register("ok name", t.TempDir()); !errors.Is(err, ErrBadEnsembleName) {
		t.Errorf("space in name err = %v", err)
	}
	if _, err := reg.Register("", t.TempDir()); !errors.Is(err, ErrBadEnsembleName) {
		t.Errorf("empty name err = %v", err)
	}
	// A directory without an ensemble catalog is rejected at register time.
	if _, err := reg.Register("empty", t.TempDir()); err == nil {
		t.Error("catalog-less dir should fail registration")
	}

	dir := testEnsemble(t)
	if _, err := reg.Register("a", dir); err != nil {
		t.Fatal(err)
	}
	// Idempotent for the same dir, conflict for a different one.
	if again, err := reg.Register("a", dir); err != nil || again.Name != "a" {
		t.Errorf("idempotent re-register: %+v %v", again, err)
	}
	if _, err := reg.Register("a", testEnsemble(t)); !errors.Is(err, ErrEnsembleExists) {
		t.Errorf("conflicting re-register err = %v", err)
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("late", dir); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("register after close err = %v", err)
	}
	if _, err := reg.Ask("a", AskRequest{Question: topHalosQ}); !errors.Is(err, ErrRegistryClosed) {
		t.Errorf("ask after close err = %v", err)
	}
}
