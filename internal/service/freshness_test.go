package service

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"infera/internal/hacc"
	"infera/internal/stage"
)

// askedHalos is the catalog path, relative to the ensemble root, of the
// snapshot topHalosQ reads.
func askedHalos(t *testing.T, dir string) string {
	t.Helper()
	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, ok := cat.Find(0, 498, hacc.FileHalos)
	if !ok {
		t.Fatal("no halo snapshot for run 0, step 498")
	}
	return f.Path
}

// perturbation changes the ensemble at dir between two identical asks;
// alt is an ensemble generated from another seed.
type perturbation struct {
	name string
	do   func(t *testing.T, dir, alt string)
	// changesAnswer marks a perturbation that rewrites the asked snapshot.
	changesAnswer bool
}

var perturbations = []perturbation{
	{"rename over", func(t *testing.T, dir, alt string) {
		rel := askedHalos(t, dir)
		data, err := os.ReadFile(filepath.Join(alt, rel))
		if err != nil {
			t.Fatal(err)
		}
		tmp := filepath.Join(t.TempDir(), "halos.gio")
		if err := os.WriteFile(tmp, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, rel)); err != nil {
			t.Fatal(err)
		}
	}, true},
	{"touch", func(t *testing.T, dir, alt string) {
		later := time.Now().Add(2 * time.Second)
		if err := os.Chtimes(filepath.Join(dir, askedHalos(t, dir)), later, later); err != nil {
			t.Fatal(err)
		}
	}, false},
	{"add a file", func(t *testing.T, dir, alt string) {
		if err := os.WriteFile(filepath.Join(dir, "extra-run.bin"), []byte("new data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}, false},
	{"delete a file", func(t *testing.T, dir, alt string) {
		if err := os.Remove(filepath.Join(dir, "NOTES")); err != nil {
			t.Fatal(err)
		}
	}, false},
	{"new subdirectory", func(t *testing.T, dir, alt string) {
		if err := os.Mkdir(filepath.Join(dir, "run-extra"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "run-extra", "halos.bin"), []byte("new data"), 0o644); err != nil {
			t.Fatal(err)
		}
	}, false},
}

// freshAnswer is the answer a service that never saw dir before gives to
// topHalosQ with seed.
func freshAnswer(t *testing.T, dir string, seed int64) string {
	t.Helper()
	svc := newService(t, Config{Workers: 1, EnsembleDir: dir, Stage: stage.New(1<<30, 0)})
	res, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: seed})
	if err != nil || res.Error != "" || res.Cached {
		t.Fatalf("fresh ask: %v %+v", err, res)
	}
	return res.AnswerCSV
}

// watchedService serves dir over its own watched stage cache.
func watchedService(t *testing.T, dir string) (*Service, *stage.Cache) {
	t.Helper()
	st := stage.New(1<<30, 0)
	t.Cleanup(func() { st.Close() })
	if err := st.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}
	return newService(t, Config{Workers: 1, EnsembleDir: dir, Stage: st}), st
}

// waitWatchEvents waits until st has handled more than n watch events.
func waitWatchEvents(t *testing.T, st *stage.Cache, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().WatchEvents <= n {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for a watch event")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *Service) walks() int64 {
	s.fpMu.Lock()
	defer s.fpMu.Unlock()
	return s.fpWalks
}

// TestFreshnessUnderPerturbation asks a question, changes the ensemble
// under it — a snapshot renamed over or touched, a file added or deleted,
// a subdirectory created with a file in it — and asks the same question
// with the same seed again, once the watch has seen the change. Whether
// the first answer was computed over a cold or a memory-warm stage cache
// or served as a cache hit, the second ask must be computed again and
// answer what a fresh service over the changed tree answers.
func TestFreshnessUnderPerturbation(t *testing.T) {
	alt := testEnsembleSeeded(t, 11)
	const seed = 5
	paths := []struct {
		name string
		// first serves the first ask, the one the change must invalidate.
		first func(t *testing.T, svc *Service) *AskResult
	}{
		{"cold", func(t *testing.T, svc *Service) *AskResult {
			return mustAsk(t, svc, seed, false)
		}},
		{"memory-warm", func(t *testing.T, svc *Service) *AskResult {
			mustAsk(t, svc, seed+1, false) // stages the same columns
			return mustAsk(t, svc, seed, false)
		}},
		{"cache hit", func(t *testing.T, svc *Service) *AskResult {
			mustAsk(t, svc, seed, false)
			return mustAsk(t, svc, seed, true)
		}},
	}
	for _, p := range paths {
		for _, pt := range perturbations {
			t.Run(p.name+"/"+pt.name, func(t *testing.T) {
				dir := testEnsemble(t)
				if err := os.WriteFile(filepath.Join(dir, "NOTES"), []byte("notes"), 0o644); err != nil {
					t.Fatal(err)
				}
				svc, st := watchedService(t, dir)
				before := p.first(t, svc)

				events := st.Stats().WatchEvents
				pt.do(t, dir, alt)
				waitWatchEvents(t, st, events)
				after := mustAsk(t, svc, seed, false)

				if want := freshAnswer(t, dir, seed); after.AnswerCSV != want {
					t.Fatalf("answer after the change differs from a fresh service's:\n got %.200q\nwant %.200q", after.AnswerCSV, want)
				}
				if changed := after.AnswerCSV != before.AnswerCSV; changed != pt.changesAnswer {
					t.Fatalf("answer changed = %v, want %v", changed, pt.changesAnswer)
				}
			})
		}
	}
}

// mustAsk asks topHalosQ with seed and checks whether it was a cache hit.
func mustAsk(t *testing.T, svc *Service, seed int64, cached bool) *AskResult {
	t.Helper()
	res, err := svc.Ask(AskRequest{Question: topHalosQ, Seed: seed})
	if err != nil || res.Error != "" {
		t.Fatalf("ask: %v %+v", err, res)
	}
	if res.Cached != cached {
		t.Fatalf("cached = %v, want %v", res.Cached, cached)
	}
	return res
}

// TestUnchangedEnsembleDoesNotWalk is the control: with nothing changed
// under the ensemble, a repeat ask is a cache hit and neither it nor a
// newly computed answer walks the ensemble again.
func TestUnchangedEnsembleDoesNotWalk(t *testing.T) {
	dir := testEnsemble(t)
	svc, st := watchedService(t, dir)
	mustAsk(t, svc, 5, false)
	walks, gen := svc.walks(), st.Generation(dir)
	mustAsk(t, svc, 5, true)
	mustAsk(t, svc, 6, false)
	if got := svc.walks(); got != walks {
		t.Fatalf("%d fingerprint walks over an unchanged ensemble", got-walks)
	}
	if st.Generation(dir) != gen {
		t.Fatal("the generation moved with nothing changed")
	}
	if m := svc.Metrics(); m.Fingerprint == "" || svc.walks() != walks {
		t.Fatalf("metrics fingerprint %q after %d walks", m.Fingerprint, svc.walks()-walks)
	}
}
