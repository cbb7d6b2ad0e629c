package stage_test

import (
	"os"
	"path/filepath"
	"testing"

	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/service"
	"infera/internal/stage"
)

const topHalosQ = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"

func ensemble(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{Runs: 2, Steps: []int{99, 350, 498, 624}, HalosPerRun: 100, ParticlesPerStep: 100, BoxSize: 128, Seed: seed}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func ask(t *testing.T, st *stage.Cache, dir string) func() *service.AskResult {
	t.Helper()
	svc, err := service.New(service.Config{
		Workers: 1, EnsembleDir: dir, WorkDir: t.TempDir(), Stage: st, Seed: 1,
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return func() *service.AskResult {
		res, err := svc.Ask(service.AskRequest{Question: topHalosQ, Seed: 5})
		if err != nil || res.Error != "" {
			t.Fatalf("ask: %v %+v", err, res)
		}
		return res
	}
}

// TestOverflowRevalidatesAnswers replaces the asked snapshot under a
// service whose watch loses every event, so the change goes unseen and
// the answer cache keeps serving the old answer; a watcher overflow, which
// says events were lost, must end that: the next ask is computed again
// over the new bytes.
func TestOverflowRevalidatesAnswers(t *testing.T) {
	dir, alt := ensemble(t, 3), ensemble(t, 11)
	st := stage.New(1<<30, 0)
	defer st.Close()
	st.SetDeafWatch()
	asked := ask(t, st, dir)
	first := asked()
	if !asked().Cached {
		t.Fatal("repeat ask was not a cache hit")
	}

	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cat.Find(0, 498, hacc.FileHalos)
	data, err := os.ReadFile(filepath.Join(alt, f.Path))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "halos.gio")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, f.Path)); err != nil {
		t.Fatal(err)
	}
	if !asked().Cached {
		t.Fatal("a lost event was noticed without an overflow")
	}

	st.ForceOverflow()
	after := asked()
	want := ask(t, stage.New(1<<30, 0), dir)().AnswerCSV
	if after.Cached || after.AnswerCSV != want || after.AnswerCSV == first.AnswerCSV {
		t.Fatalf("after the overflow: cached = %v, answer is fresh = %v, answer changed = %v",
			after.Cached, after.AnswerCSV == want, after.AnswerCSV != first.AnswerCSV)
	}
}
