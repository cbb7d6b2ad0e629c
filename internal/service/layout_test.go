package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"infera/internal/provenance"
	"infera/internal/stage"
)

// TestServiceAdoptsWorkerDirTrails: a work dir written by a daemon that
// kept one provenance store per worker (worker-NN/sessions/<id>) is converted
// into the one store at New. The resume scan then counts its sessions, so
// the next computed ask does not reuse q-0001, and a revived cache entry
// naming q-0001 still resolves to that original trail.
func TestServiceAdoptsWorkerDirTrails(t *testing.T) {
	dir := testEnsemble(t)
	work := t.TempDir()

	payload := []byte("fof_halo_tag,fof_halo_mass\n17,2.5e13\n")
	entry := sessionDir(t, filepath.Join(work, "worker-03", "sessions"), "q-0001", payload)
	want := entry.SHA256

	fp, err := Fingerprint(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache(4)
	c.Put(CacheKey{Fingerprint: fp, Question: NormalizeQuestion(topHalosQ), Seed: 1},
		&AskResult{RequestID: "q-0001", SessionID: "q-0001", Question: topHalosQ, Seed: 1, Rows: 1})
	if err := SaveCacheFile(work, c, fp); err != nil {
		t.Fatal(err)
	}

	svc := newService(t, Config{Workers: 2, EnsembleDir: dir, WorkDir: work})
	miss, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 2})
	if err != nil || miss.Error != "" || miss.Cached {
		t.Fatalf("computed ask: %v %+v", err, miss)
	}
	if miss.SessionID != "q-0002" {
		t.Fatalf("computed ask got session %s, want q-0002", miss.SessionID)
	}

	hit, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: 1})
	if err != nil || !hit.Cached || hit.SessionID != "q-0001" {
		t.Fatalf("revived cache entry: %v %+v", err, hit)
	}
	entries, err := svc.Provenance(hit.RequestID)
	if err != nil || len(entries) != 1 || entries[0].SHA256 != want {
		t.Fatalf("cached hit's provenance = %+v (%v), want the one entry with sha256 %s", entries, err, want)
	}
	_, data, err := svc.Artifact(hit.RequestID, entry.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != want {
		t.Fatalf("artifact bytes hash %x, want %s", got, want)
	}
	if bad, err := svc.VerifySession(hit.RequestID); err != nil || len(bad) != 0 {
		t.Fatalf("verify adopted trail: %v %v", bad, err)
	}
	if _, err := os.Stat(filepath.Join(work, "worker-03")); !os.IsNotExist(err) {
		t.Errorf("emptied worker dir still there (stat err = %v)", err)
	}
}

// sessionDir writes a one-artifact trail as a per-session directory,
// root/id/{manifest.jsonl,trail.log}, the layout older daemons wrote, and
// returns its entry.
func sessionDir(t *testing.T, root, id string, payload []byte) provenance.Entry {
	t.Helper()
	dir := filepath.Join(root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	e := provenance.Entry{Agent: "analysis", Kind: "data", Name: "answer.csv", File: "trail.log",
		SHA256: hex.EncodeToString(sum[:]), Bytes: int64(len(payload))}
	line, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.jsonl"), append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trail.log"), payload, 0o644); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestServiceAdoptKeepsTakenIDs: a worker-dir trail whose ID the store
// already holds stays where it is; the store's own trail is untouched.
func TestServiceAdoptKeepsTakenIDs(t *testing.T) {
	work := t.TempDir()
	store, err := provenance.NewStore(filepath.Join(work, "sessions"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.NewSession("q-0001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Record("analysis", "data", "answer.csv", []byte(store.Root)); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	store.Close()
	sessionDir(t, filepath.Join(work, "worker-01", "sessions"), "q-0001", []byte("worker"))
	svc := newService(t, Config{Workers: 1, WorkDir: work})
	if _, err := os.Stat(filepath.Join(work, "worker-01", "sessions", "q-0001")); err != nil {
		t.Fatalf("conflicting worker trail moved or lost: %v", err)
	}
	kept, err := svc.assistant.Store().OpenSession("q-0001")
	if err != nil {
		t.Fatal(err)
	}
	data, err := kept.Read(kept.Manifest()[0])
	if err != nil || string(data) != filepath.Join(work, "sessions") {
		t.Fatalf("store trail = %q (%v), want its own bytes", data, err)
	}
}

// TestServiceWorkersShareOneStore runs 16 concurrent asks with unique seeds
// and 2 interactive asks through one four-worker Service: every session's
// trail lands in the one store and verifies. Run under -race.
func TestServiceWorkersShareOneStore(t *testing.T) {
	work := t.TempDir()
	const workers, asks, interactive = 4, 16, 2
	svc := newService(t, Config{Workers: workers, WorkDir: work, ApprovalTimeout: 20 * time.Millisecond})
	questions := []string{
		topHalosQ,
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
	}

	var wg sync.WaitGroup
	errs := make(chan error, asks+interactive)
	for i := 0; i < asks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := svc.Ask(AskRequest{Question: questions[i%len(questions)], Seed: int64(100 + i)})
			if err == nil && (res.Error != "" || res.Cached) {
				t.Errorf("ask %d = %+v", i, res)
			}
			errs <- err
		}(i)
	}
	for i := 0; i < interactive; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Nobody reviews: the short approval timeout approves the plan.
			info, done, err := svc.AskInteractive(AskRequest{Question: topHalosQ, Seed: int64(200 + i), Interactive: true})
			if err != nil {
				errs <- err
				return
			}
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				errs <- fmt.Errorf("interactive %s never finished", info.ID)
				return
			}
			if res, err := svc.Result(info.ID); err == nil && res.Error != "" {
				t.Errorf("interactive %s = %+v", info.ID, res)
			} else {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	records := svc.Sessions()
	if len(records) != asks+interactive {
		t.Fatalf("%d session records, want %d", len(records), asks+interactive)
	}
	onDisk := sessionDirs(t, work)
	for _, r := range records {
		if r.Status != "done" || r.Worker < 0 || r.Worker >= workers {
			t.Errorf("record %+v", r)
		}
		if !onDisk[r.ID] {
			t.Errorf("session %s has no trail under %s/sessions", r.ID, work)
		}
		if bad, err := svc.VerifySession(r.ID); err != nil || len(bad) != 0 {
			t.Errorf("verify %s: bad=%v err=%v", r.ID, bad, err)
		}
	}
	if stray, _ := filepath.Glob(filepath.Join(work, "worker-*")); len(stray) != 0 {
		t.Errorf("per-worker dirs in the work dir: %v", stray)
	}
}

// TestAskCreatesNoInode: once a shard's first computed ask has made its
// trail segment, further computed asks add no directory entry anywhere
// under the work dir: their trails are ranges of that segment. With a
// -stage-dir disk tier under the work dir and a one-byte memory budget,
// later asks decode snapshots the first did not read and write every block
// through, and those blocks are records of the tier's one segment.
func TestAskCreatesNoInode(t *testing.T) {
	t.Run("trail", func(t *testing.T) {
		testAskCreatesNoInode(t, nil, func(int64) string { return topHalosQ })
	})
	t.Run("stage-dir", func(t *testing.T) {
		st := stage.New(1, 0)
		defer st.Close()
		testAskCreatesNoInode(t, st, func(seed int64) string {
			return fmt.Sprintf("Can you find me the top 20 largest friends-of-friends halos from timestep %d in simulation %d?",
				[]int{99, 350, 498, 624}[seed%4], seed/4%2)
		})
	})
}

// testAskCreatesNoInode asks question(seed) for seeds 1 to 21 of a service
// over a fresh work dir, staging through st if it is not nil, with a disk
// tier under the work dir, and fails if an ask after the first creates a
// path under the work dir.
func testAskCreatesNoInode(t *testing.T, st *stage.Cache, question func(int64) string) {
	work := t.TempDir()
	cfg := Config{Workers: 2, WorkDir: work}
	if st != nil {
		if err := st.SetDiskTier(filepath.Join(work, "stage"), 0); err != nil {
			t.Fatal(err)
		}
		cfg.Stage = st
	}
	svc := newService(t, cfg)
	paths := func() map[string]bool {
		out := map[string]bool{}
		filepath.WalkDir(work, func(path string, d os.DirEntry, err error) error {
			out[path] = true
			return nil
		})
		return out
	}
	ask := func(seed int64) {
		r, err := svc.Ask(AskRequest{Question: question(seed), Seed: seed})
		if err != nil || r.Error != "" || r.Cached {
			t.Fatalf("computed ask seed %d: %v %+v", seed, err, r)
		}
	}
	ask(1)
	before, writes := paths(), svc.Metrics().Stage.DiskWrites
	for seed := int64(2); seed <= 21; seed++ {
		ask(seed)
	}
	for path := range paths() {
		if !before[path] {
			t.Errorf("20 computed asks after the first created %s", path)
		}
	}
	if st != nil && svc.Metrics().Stage.DiskWrites == writes {
		t.Error("the asks after the first wrote no block through to the disk tier")
	}
	for seed := int64(1); seed <= 21; seed++ {
		if bad, err := svc.VerifySession(fmt.Sprintf("q-%04d", seed)); err != nil || len(bad) != 0 {
			t.Fatalf("q-%04d: bad=%v err=%v", seed, bad, err)
		}
	}
}
