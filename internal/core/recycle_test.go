package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"infera/internal/core"
	"infera/internal/eval"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/stage"
)

// recycleEnsemble is large enough that every halo column is read into a
// free-list buffer (more rows than the list's smallest class).
func recycleEnsemble(t *testing.T, halos int) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{Runs: 2, Steps: []int{99, 350, 498, 624}, HalosPerRun: halos, ParticlesPerStep: 100, BoxSize: 128, Seed: 3}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

// outcome is what one (question, seed) produced: the answer table as CSV,
// a digest of its provenance trail, and its error.
type outcome struct {
	answer, trail, err string
}

// trailDigest hashes every recorded artifact but the load report, whose
// "bytes read" says how much the stage cache served, not what was staged.
func trailDigest(ans *core.Answer) string {
	h := sha256.New()
	for _, e := range ans.Artifacts {
		if e.Kind == "report" {
			continue
		}
		fmt.Fprintf(h, "%s\x00%s\x00%s\x00%s\n", e.Agent, e.Kind, e.Name, e.SHA256)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// askAll asks every question once, with a model seeded per question, from
// workers goroutines sharing one assistant over a stage cache of budget
// bytes.
func askAll(t *testing.T, dir string, budget int64, workers int, questions []string) []outcome {
	t.Helper()
	a, err := core.New(core.Config{EnsembleDir: dir, WorkDir: t.TempDir(), Stage: stage.New(budget, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	out := make([]outcome, len(questions))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ans, err := a.AskWith(questions[i], core.AskOptions{Model: llm.NewSim(llm.SimConfig{Seed: int64(i + 1)})})
				if err != nil {
					out[i].err = err.Error()
				}
				if ans == nil {
					continue
				}
				if ans.Answer != nil {
					var buf bytes.Buffer
					if err := ans.Answer.WriteCSV(&buf); err != nil {
						t.Error(err)
					}
					out[i].answer = buf.String()
				}
				out[i].trail = trailDigest(ans)
			}
		}()
	}
	for i := range questions {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TestRecycledBuffersKeepAnswers asks the evaluation bank from two workers
// over a 2 MB stage budget — every column block evicted and its buffer
// recycled while the other ask runs — and requires every answer and
// provenance trail to be byte-identical to the same (question, seed) over
// the default budget, where nothing is evicted. In a test binary every
// recycled buffer is poisoned first, so a vector read after its buffer
// went back would change an answer or a digest.
func TestRecycledBuffersKeepAnswers(t *testing.T) {
	dir := recycleEnsemble(t, 8000)
	var questions []string
	for _, q := range eval.Bank() {
		questions = append(questions, q.Text)
	}
	want := askAll(t, dir, stage.DefaultBudgetBytes, 1, questions)
	got := askAll(t, dir, 2<<20, 2, questions)
	answered := 0
	for i, q := range questions {
		if got[i] != want[i] {
			t.Errorf("%q: over a 2 MB budget the answer or trail differs from the default budget's\n got: %.200q err=%q\nwant: %.200q err=%q",
				q, got[i].answer, got[i].err, want[i].answer, want[i].err)
		}
		if want[i].answer != "" {
			answered++
		}
	}
	if answered < len(questions)/2 {
		t.Fatalf("only %d of %d bank questions answered", answered, len(questions))
	}
}

// TestColdAsksReuseBuffers pins the tentpole's allocation claim: once the
// free list is warm, cold asks over a 2 MB stage budget — every column
// they stage decoded again — take less than a quarter of the bytes they
// decode as fresh memory: heap allocations (a MemStats delta) plus
// buffers newly mapped for the free list, which the heap does not see.
func TestColdAsksReuseBuffers(t *testing.T) {
	dir := recycleEnsemble(t, 30000)
	st := stage.New(2<<20, 0)
	a, err := core.New(core.Config{EnsembleDir: dir, WorkDir: t.TempDir(), Stage: st})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ask := func(i int) {
		step := []int{99, 350, 498, 624}[i%4]
		q := fmt.Sprintf("top 20 largest halos at timestep %d in all simulations, with their position "+
			"(fof_halo_center_x, fof_halo_center_y, fof_halo_center_z), velocity (fof_halo_mean_vx, fof_halo_mean_vy, "+
			"fof_halo_mean_vz, fof_halo_vel_disp), fof_halo_ke and profile (sod_halo_M500c, sod_halo_R500c, "+
			"sod_halo_MGas500c, sod_halo_cdelta)", step)
		model := llm.NewSim(llm.SimConfig{Seed: int64(i + 1), ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		if _, err := a.AskWith(q, core.AskOptions{Model: model}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		ask(i)
	}
	mapped0 := st.Stats().BufferBytes
	decoded0 := st.Stats().BytesDecoded
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 8; i < 16; i++ {
		ask(i)
	}
	runtime.ReadMemStats(&after)
	decoded := st.Stats().BytesDecoded - decoded0
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	mapped := st.Stats().BufferBytes - mapped0
	if decoded == 0 {
		t.Fatal("the asks decoded nothing: the budget does not force cold loads")
	}
	if (alloc+mapped)*4 >= decoded {
		t.Fatalf("cold asks allocated %d and mapped %d bytes for %d decoded, want under a quarter", alloc, mapped, decoded)
	}
}
