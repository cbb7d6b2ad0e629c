package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
// workers goroutines sharing one assistant over stage cache st.
func askAll(t *testing.T, dir string, st *stage.Cache, workers int, questions []string) []outcome {
	t.Helper()
	a, err := core.New(core.Config{EnsembleDir: dir, WorkDir: t.TempDir(), Stage: st})
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

// unlinkedMappings fails when the process still maps a block file under
// dir that has been unlinked; it checks nothing off Linux.
func unlinkedMappings(dir string) error {
	if runtime.GOOS != "linux" {
		return nil
	}
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, " "+dir+string(filepath.Separator)) && strings.HasSuffix(line, " (deleted)") {
			return fmt.Errorf("an unlinked block file is still mapped: %s", line)
		}
	}
	return nil
}

// TestRecycledBuffersKeepAnswers asks the evaluation bank from two workers
// over a 2 MB stage budget — every column block evicted and its buffer
// recycled while the other ask runs — and requires every answer and
// provenance trail to be byte-identical to the same (question, seed) over
// the default budget, where nothing is evicted. In a test binary every
// recycled buffer is poisoned first, so a vector read after its buffer
// went back would change an answer or a digest. Two more legs serve the
// same bank through a disk tier: one writes every decoded block through
// to a stage dir, and a fresh cache over that dir then promotes every
// column instead of decoding it.
func TestRecycledBuffersKeepAnswers(t *testing.T) {
	dir := recycleEnsemble(t, 8000)
	var questions []string
	for _, q := range eval.Bank() {
		questions = append(questions, q.Text)
	}
	want := askAll(t, dir, stage.New(stage.DefaultBudgetBytes, 0), 1, questions)
	answered := 0
	for _, w := range want {
		if w.answer != "" {
			answered++
		}
	}
	if answered < len(questions)/2 {
		t.Fatalf("only %d of %d bank questions answered", answered, len(questions))
	}
	stageDir := filepath.Join(t.TempDir(), "stage")
	tiered := func() *stage.Cache {
		st := stage.New(2<<20, 0)
		if err := st.SetDiskTier(stageDir, 0); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	for _, leg := range []struct {
		name  string
		cache func() *stage.Cache
		check func(*stage.Cache) error
	}{
		{"over a 2 MB budget", func() *stage.Cache { return stage.New(2<<20, 0) }, nil},
		{"written through to a stage dir", tiered, func(c *stage.Cache) error {
			s := c.Stats()
			if s.DiskWrites == 0 || s.DiskWriteFailures != 0 {
				return fmt.Errorf("disk_writes %d, disk_write_failures %d", s.DiskWrites, s.DiskWriteFailures)
			}
			return nil
		}},
		{"promoted from that stage dir", tiered, func(c *stage.Cache) error {
			s := c.Stats()
			if s.DiskHits == 0 || s.BytesDecoded != 0 || s.DiskPromoteFailures != 0 {
				return fmt.Errorf("disk_hits %d, bytes_decoded %d, disk_promote_failures %d: want every column promoted",
					s.DiskHits, s.BytesDecoded, s.DiskPromoteFailures)
			}
			// With every ask done and its frames collected, a mapping is
			// live only while a disk entry indexes it or a resident column
			// was cast from it.
			for i := 0; s.DiskMappings > int64(s.DiskEntries+s.Entries); i++ {
				if i == 100 {
					return fmt.Errorf("disk_mappings %d over disk_entries %d + entries %d", s.DiskMappings, s.DiskEntries, s.Entries)
				}
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
				s = c.Stats()
			}
			return unlinkedMappings(stageDir)
		}},
	} {
		st := leg.cache()
		got := askAll(t, dir, st, 2, questions)
		for i, q := range questions {
			if got[i] != want[i] {
				t.Errorf("%q: %s the answer or trail differs from the default budget's\n got: %.200q err=%q\nwant: %.200q err=%q",
					q, leg.name, got[i].answer, got[i].err, want[i].answer, want[i].err)
			}
		}
		if leg.check != nil {
			if err := leg.check(st); err != nil {
				t.Errorf("%s: %v", leg.name, err)
			}
		}
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
