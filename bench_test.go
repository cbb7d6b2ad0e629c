// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark's doc comment names the table, figure or
// section it reproduces; PAPER.md holds the paper's abstract.
//
// Each benchmark performs its campaign once (cached across iterations) and
// reports the paper's metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// prints the reproduced rows/series. Campaigns run on a reduced synthetic
// ensemble; the *shape* of the results (orderings, ratios, crossovers) is
// the reproduction target, not absolute values.
package repro

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/baselines"
	"infera/internal/core"
	"infera/internal/dataframe"
	"infera/internal/eval"
	"infera/internal/gio"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/rag"
	"infera/internal/script"
	"infera/internal/service"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/tools"
	"infera/internal/viz"
)

// sharedEnsemble generates one ensemble reused by every benchmark.
var sharedEnsemble = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "infera-bench-ensemble-*")
	if err != nil {
		return "", err
	}
	spec := hacc.Spec{
		Runs:             4,
		Steps:            []int{99, 249, 399, 498, 624},
		HalosPerRun:      120,
		ParticlesPerStep: 100,
		BoxSize:          256,
		Seed:             1,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		return "", err
	}
	return dir, nil
})

func ensembleDir(b *testing.B) string {
	b.Helper()
	dir, err := sharedEnsemble()
	if err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkTable1DifficultyMatrix regenerates Table 1: the 20-question bank
// with the paper's marginal counts on both difficulty axes.
func BenchmarkTable1DifficultyMatrix(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = eval.FormatTable1(eval.Bank())
	}
	qs := eval.Bank()
	ana := eval.CountBy(qs, func(q eval.Question) eval.Difficulty { return q.Analysis })
	sem := eval.CountBy(qs, func(q eval.Question) eval.Difficulty { return q.Semantic })
	b.ReportMetric(float64(ana[eval.Easy]), "analysis-easy")
	b.ReportMetric(float64(ana[eval.Medium]), "analysis-medium")
	b.ReportMetric(float64(ana[eval.Hard]), "analysis-hard")
	b.ReportMetric(float64(sem[eval.Easy]), "semantic-easy")
	b.ReportMetric(float64(sem[eval.Medium]), "semantic-medium")
	b.ReportMetric(float64(sem[eval.Hard]), "semantic-hard")
	if b.N == 1 {
		b.Log("\n" + out)
	}
}

// table2Campaign caches the Table 2 evaluation run.
var table2Campaign = sync.OnceValues(func() (*eval.Report, error) {
	dir, err := sharedEnsemble()
	if err != nil {
		return nil, err
	}
	return eval.Run(eval.Config{EnsembleDir: dir, Reps: 5, Seed: 7})
})

// BenchmarkTable2Evaluation regenerates Table 2: the full 20-question
// campaign. Reported metrics are the Total row plus the success split's
// token skew; the formatted table prints with -v.
func BenchmarkTable2Evaluation(b *testing.B) {
	rep, err := table2Campaign()
	if err != nil {
		b.Fatal(err)
	}
	var rows []eval.Row
	for i := 0; i < b.N; i++ {
		rows = rep.Rows()
	}
	byLabel := map[string]eval.Row{}
	for _, r := range rows {
		byLabel[r.Group+"/"+r.Label] = r
	}
	total := byLabel["Overall/Total"]
	b.ReportMetric(total.SatData, "%satisfactory-data")
	b.ReportMetric(total.SatViz, "%satisfactory-viz")
	b.ReportMetric(total.Completed, "%runs-completed")
	b.ReportMetric(total.Complete, "%tasks-completed")
	b.ReportMetric(total.Tokens, "tokens/run")
	b.ReportMetric(total.Redo, "redo/run")
	ok := byLabel["Overall/Successful runs"]
	bad := byLabel["Overall/Unsuccessful runs"]
	if ok.Tokens > 0 {
		b.ReportMetric(bad.Tokens/ok.Tokens, "token-ratio-failed/ok")
	}
	b.ReportMetric(bad.Redo, "redo/failed-run")
	b.Log("\n" + rep.Format())
}

// BenchmarkFigure1EnsembleRender regenerates the Fig. 1/2 flavor artifact:
// a particle snapshot rendered as a VTK scene.
func BenchmarkFigure1EnsembleRender(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	var size int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := hacc.Snapshot(cat.Spec, 0, 624, hacc.FileParticles)
		if err != nil {
			b.Fatal(err)
		}
		pts := make([]viz.Point3, f.NumRows())
		for j := range pts {
			pts[j] = viz.Point3{
				X: f.MustColumn("x").F[j], Y: f.MustColumn("y").F[j], Z: f.MustColumn("z").F[j],
				Scalar: -f.MustColumn("phi").F[j],
			}
		}
		size = len(viz.WriteVTK("snapshot", pts))
	}
	b.ReportMetric(float64(size), "vtk-bytes")
}

// BenchmarkFigure3WorkflowTrace runs one complete workflow and reports the
// node-transition counts of the Fig. 3 architecture: planning, supervised
// delegation, QA, documentation, checkpoints.
func BenchmarkFigure3WorkflowTrace(b *testing.B) {
	dir := ensembleDir(b)
	var checkpoints, artifacts, steps int
	for i := 0; i < b.N; i++ {
		work := b.TempDir()
		a, err := core.New(core.Config{
			EnsembleDir: dir, WorkDir: work,
			Model: llm.NewSim(llm.SimConfig{Seed: int64(i) + 1, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9}),
		})
		if err != nil {
			b.Fatal(err)
		}
		ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
		a.Close()
		if err != nil {
			b.Fatal(err)
		}
		checkpoints, artifacts, steps = 0, len(ans.Artifacts), len(ans.State.Plan.Steps)
		for _, e := range ans.Artifacts {
			if e.Kind == "checkpoint" {
				checkpoints++
			}
		}
	}
	b.ReportMetric(float64(steps), "plan-steps")
	b.ReportMetric(float64(checkpoints), "state-checkpoints")
	b.ReportMetric(float64(artifacts), "provenance-artifacts")
}

// fig4Campaign caches the 32-simulation scaling case study (§4.3, Fig. 4).
var fig4Campaign = sync.OnceValues(func() (*core.Answer, error) {
	dir, err := os.MkdirTemp("", "infera-fig4-bench-*")
	if err != nil {
		return nil, err
	}
	spec := hacc.Spec{
		Runs:             32,
		Steps:            hacc.StepRange(99, hacc.FinalStep, 75),
		HalosPerRun:      150,
		ParticlesPerStep: 2500,
		BoxSize:          256,
		Seed:             3,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		return nil, err
	}
	a, err := core.New(core.Config{
		EnsembleDir: dir,
		Model:       llm.NewSim(llm.SimConfig{Seed: 5, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9}),
	})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return a.Ask("Can you plot the change in mass of the largest friends-of-friends halos for all timesteps in all simulations? Provide me two plots using both fof_halo_count and fof_halo_mass as metrics for mass.")
})

// BenchmarkFigure4Scaling32 reports the Fig. 4 workflow: 32 simulations,
// largest-halo count and mass series, with the staging-DB-much-smaller-
// than-source property.
func BenchmarkFigure4Scaling32(b *testing.B) {
	var ans *core.Answer
	var err error
	for i := 0; i < b.N; i++ {
		ans, err = fig4Campaign()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ans.SourceBytes)/1e6, "source-MB")
	b.ReportMetric(float64(ans.DBBytes)/1e6, "stagingdb-MB")
	b.ReportMetric(100*ans.StorageOverheadFraction(), "%storage-overhead")
	b.ReportMetric(float64(ans.State.Usage.Total()), "tokens")
	b.ReportMetric(float64(len(ans.State.Plan.Steps)), "analysis-steps")
	if ans.Answer != nil {
		b.ReportMetric(float64(ans.Answer.NumRows()), "series-points")
	}
}

// fig5Catalog is a dense single-run box so the 20 Mpc neighbourhood is
// populated, as in the paper's Fig. 5.
var fig5Catalog = sync.OnceValues(func() (*hacc.Catalog, error) {
	dir, err := os.MkdirTemp("", "infera-fig5-bench-*")
	if err != nil {
		return nil, err
	}
	spec := hacc.Spec{Runs: 1, Steps: []int{624}, HalosPerRun: 400, ParticlesPerStep: 100, BoxSize: 128, Seed: 5}
	return hacc.Generate(dir, spec)
})

// BenchmarkFigure5ParaViewScene regenerates the Fig. 5 artifact: the
// target halo and all halos within 20 Mpc, target highlighted.
func BenchmarkFigure5ParaViewScene(b *testing.B) {
	cat, err := fig5Catalog()
	if err != nil {
		b.Fatal(err)
	}
	var neighbours int
	var vtkBytes int
	for i := 0; i < b.N; i++ {
		tag, err := tools.NthMostMassiveTag(nil, cat, 0, 624, 0)
		if err != nil {
			b.Fatal(err)
		}
		nb, err := tools.Neighborhood(nil, cat, 0, 624, tag, 20)
		if err != nil {
			b.Fatal(err)
		}
		pts, err := tools.SceneFromFrame(nb, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "is_target")
		if err != nil {
			b.Fatal(err)
		}
		data := viz.WriteVTK("fig5", pts)
		neighbours = nb.NumRows() - 1
		vtkBytes = len(data)
		if !strings.Contains(string(data), "SCALARS highlight") {
			b.Fatal("scene missing highlight array")
		}
	}
	b.ReportMetric(float64(neighbours), "neighbours-in-20Mpc")
	b.ReportMetric(float64(vtkBytes), "vtk-bytes")
}

// BenchmarkStorageOverhead reproduces §4.1.3: multi-timestep questions
// dominate storage overhead; single-timestep questions stay far smaller.
func BenchmarkStorageOverhead(b *testing.B) {
	rep, err := table2Campaign()
	if err != nil {
		b.Fatal(err)
	}
	var single, multi, n1, n2 float64
	for i := 0; i < b.N; i++ {
		single, multi, n1, n2 = 0, 0, 0, 0
		for _, r := range rep.Records {
			if r.Question.MultiStep {
				multi += float64(r.StorageBytes)
				n2++
			} else {
				single += float64(r.StorageBytes)
				n1++
			}
		}
	}
	b.ReportMetric(single/n1/1e6, "single-step-MB")
	b.ReportMetric(multi/n2/1e6, "multi-step-MB")
	b.ReportMetric((multi/n2)/(single/n1), "multi/single-ratio")
}

// BenchmarkTokenUsageAblation reproduces §4.1.4: trimming the supervisor's
// message history reduces token usage.
func BenchmarkTokenUsageAblation(b *testing.B) {
	dir := ensembleDir(b)
	question := "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	run := func(trim bool, seed int64) int {
		work := b.TempDir()
		a, err := core.New(core.Config{
			EnsembleDir: dir, WorkDir: work, TrimHistory: trim,
			Model: llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9}),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		ans, err := a.Ask(question)
		if err != nil {
			b.Fatal(err)
		}
		return ans.State.Usage.Total()
	}
	runSkipDoc := func(seed int64) int {
		work := b.TempDir()
		a, err := core.New(core.Config{
			EnsembleDir: dir, WorkDir: work, TrimHistory: true, SkipDocumentation: true,
			Model: llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9}),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer a.Close()
		ans, err := a.Ask(question)
		if err != nil {
			b.Fatal(err)
		}
		return ans.State.Usage.Total()
	}
	var full, trimmed, skipDoc int
	for i := 0; i < b.N; i++ {
		full = run(false, int64(i)+1)
		trimmed = run(true, int64(i)+1)
		skipDoc = runSkipDoc(int64(i) + 1)
	}
	b.ReportMetric(float64(full), "tokens-full-history")
	b.ReportMetric(float64(trimmed), "tokens-trimmed")
	b.ReportMetric(float64(skipDoc), "tokens-trimmed-nodoc")
	b.ReportMetric(float64(full-skipDoc)/float64(full)*100, "%saved-max")
}

// BenchmarkModelQualityComparison reproduces the paper's model-choice
// observation: GPT-4o "significantly outperforms locally-hosted
// security-compliant models". Both profiles run the same questions with
// the same seeds; only the error calibration differs.
func BenchmarkModelQualityComparison(b *testing.B) {
	dir := ensembleDir(b)
	questions := []string{
		"At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass?",
		"Find the most unique halos at timestep 624 in simulation 1: using velocity dispersion, mass and kinetic energy, score how atypical each halo is and plot the top 50 as a UMAP plot highlighting the top 10.",
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
	}
	completion := func(cfg func(seed int64) llm.SimConfig) (done, redo int) {
		for qi, q := range questions {
			for r := 0; r < 4; r++ {
				work := b.TempDir()
				a, err := core.New(core.Config{
					EnsembleDir: dir, WorkDir: work,
					Model: llm.NewSim(cfg(int64(qi)*100 + int64(r) + 1)),
				})
				if err != nil {
					b.Fatal(err)
				}
				ans, askErr := a.Ask(q)
				a.Close()
				if ans == nil {
					b.Fatal(askErr)
				}
				if askErr == nil && ans.State.Done {
					done++
				}
				redo += ans.State.RedoCount
			}
		}
		return done, redo
	}
	var gptDone, gptRedo, localDone, localRedo int
	for i := 0; i < b.N; i++ {
		gptDone, gptRedo = completion(func(seed int64) llm.SimConfig { return llm.SimConfig{Seed: seed} })
		localDone, localRedo = completion(llm.LocalSimConfig)
	}
	total := float64(len(questions) * 4)
	b.ReportMetric(100*float64(gptDone)/total, "%completed-gpt4o-sim")
	b.ReportMetric(100*float64(localDone)/total, "%completed-local-sim")
	b.ReportMetric(float64(gptRedo)/total, "redo-gpt4o-sim")
	b.ReportMetric(float64(localRedo)/total, "redo-local-sim")
}

// BenchmarkQAScoringAblation reproduces §4.2.4: binary QA verdicts yield
// far more false negatives on correct output than 1-100 scoring with a
// threshold of 50.
func BenchmarkQAScoringAblation(b *testing.B) {
	const trials = 500
	countFalseNeg := func(binary bool) int {
		m := llm.NewSim(llm.SimConfig{Seed: 11, BinaryQA: binary})
		fails := 0
		for i := 0; i < trials; i++ {
			raw, _ := json.Marshal(llm.QARequest{Task: "compute", Preview: "result frame: 20 rows x 4 cols"})
			resp, err := m.Complete(llm.Request{Skill: llm.SkillQA, Prompt: string(raw)})
			if err != nil {
				b.Fatal(err)
			}
			var qa llm.QAResponse
			if err := json.Unmarshal([]byte(resp.Text), &qa); err != nil {
				b.Fatal(err)
			}
			if !qa.Pass {
				fails++
			}
		}
		return fails
	}
	var scored, binary int
	for i := 0; i < b.N; i++ {
		scored = countFalseNeg(false)
		binary = countFalseNeg(true)
	}
	b.ReportMetric(100*float64(scored)/trials, "%false-neg-scored")
	b.ReportMetric(100*float64(binary)/trials, "%false-neg-binary")
}

// BenchmarkBaselineComparison reproduces §4.4: direct chat hallucinates on
// a toy frame, the full-ingestion tool cannot hold the ensemble, and the
// static linear pipeline completes fewer runs than the multi-agent system.
func BenchmarkBaselineComparison(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	var chatHallucinated, pandasFailed float64
	var arch baselines.StaticResult
	for i := 0; i < b.N; i++ {
		chat, err := baselines.DirectChat(llm.NewSim(llm.SimConfig{Seed: 2}), cat, "list the halo masses", 20)
		if err != nil {
			b.Fatal(err)
		}
		if chat.Hallucinated {
			chatHallucinated = 1
		}
		pandas, err := baselines.PandasAILike(cat, "top 20 largest halos", 64*1024)
		if err != nil {
			b.Fatal(err)
		}
		if !pandas.OK {
			pandasFailed = 1
		}
		arch, err = baselines.CompareArchitectures(dir, []string{
			"At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass?",
		}, 6, 17)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(chatHallucinated, "chat-hallucinated")
	b.ReportMetric(pandasFailed, "pandasai-oom")
	b.ReportMetric(100*float64(arch.MultiCompleted)/float64(arch.Runs), "%multiagent-completed")
	b.ReportMetric(100*float64(arch.StaticCompleted)/float64(arch.Runs), "%static-completed")
}

// BenchmarkAnalyticalVariability reproduces §4.5: the ambiguous question
// explores multiple strategies, the precise question yields identical
// outputs.
func BenchmarkAnalyticalVariability(b *testing.B) {
	dir := ensembleDir(b)
	var res *eval.VariabilityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = eval.Variability(dir, 23, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DistinctStrategies()), "ambiguous-strategies")
	b.ReportMetric(float64(len(res.PreciseOutputs)), "precise-distinct-outputs")
	b.Log("\n" + res.Format())
}

// BenchmarkRAGChunkingAblation backs the §3.1 design choice: fine-grained
// per-column chunks retrieve the target column above naive fixed-window
// chunks.
func BenchmarkRAGChunkingAblation(b *testing.B) {
	docs := rag.BuildHACCIndex().Docs()
	queries := []struct{ q, wantCol string }{
		{"gas mass enclosed 500 times critical density", "MGas500c"},
		{"number of particles in the friends of friends halo", "fof_halo_count"},
		{"stellar mass formed by star formation", "gal_stellar_mass"},
		{"kick velocity feedback cold gas", "gal_gas_mass"},
	}
	var fineHits, naiveHits int
	for i := 0; i < b.N; i++ {
		fine := rag.NewIndex()
		for _, d := range docs {
			fine.Add(d)
		}
		naive := rag.NaiveChunks(docs, 80)
		fineHits, naiveHits = 0, 0
		for _, qc := range queries {
			if hit := fine.Search(qc.q, 1); len(hit) > 0 && strings.Contains(hit[0].Doc.Text, qc.wantCol) {
				fineHits++
			}
			if hit := naive.Search(qc.q, 1); len(hit) > 0 && strings.Contains(hit[0].Doc.Text, qc.wantCol) {
				naiveHits++
			}
		}
	}
	b.ReportMetric(float64(fineHits)/float64(len(queries))*100, "%precision-fine")
	b.ReportMetric(float64(naiveHits)/float64(len(queries))*100, "%precision-naive")
}

// benchService shares one 4-worker query service across the serving-layer
// benchmarks, mirroring a running inferad daemon.
var benchService = sync.OnceValues(func() (*service.Service, error) {
	dir, err := sharedEnsemble()
	if err != nil {
		return nil, err
	}
	return service.New(service.Config{
		EnsembleDir: dir,
		Workers:     4,
		QueueDepth:  256,
		CacheSize:   256,
		Seed:        1,
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		},
	})
})

// benchSeed hands every uncached-service iteration a never-repeating seed,
// far above the seed ranges other benchmarks use.
var benchSeed int64 = 1_000_000
var benchSeedMu sync.Mutex

func nextBenchSeed() int64 {
	benchSeedMu.Lock()
	defer benchSeedMu.Unlock()
	benchSeed++
	return benchSeed
}

// BenchmarkServiceAsk measures the uncached serving path: every iteration
// uses a fresh seed, so each request runs the full two-stage workflow
// through the worker pool. ns/op is the end-to-end latency of one served
// question.
func BenchmarkServiceAsk(b *testing.B) {
	svc, err := benchService()
	if err != nil {
		b.Fatal(err)
	}
	var res *service.AskResult
	for i := 0; i < b.N; i++ {
		// Monotonic seeds beyond any other benchmark's range keep every ask
		// a miss, including across the framework's N-scaling rounds.
		res, err = svc.Ask(service.AskRequest{
			Question: "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
			Seed:     nextBenchSeed(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Error != "" || res.Cached {
			b.Fatalf("result = %+v", res)
		}
	}
	b.ReportMetric(float64(res.Tokens), "tokens/ask")
	b.ReportMetric(float64(res.PlanSteps), "plan-steps")
}

// BenchmarkServiceCachedAsk measures the cache fast path: one warm-up
// computation, then every iteration re-asks the same (question, seed) and
// must be served from the LRU. Compare ns/op against BenchmarkServiceAsk
// for the caching win (>= 10x is the acceptance bar; in practice it is
// orders of magnitude).
func BenchmarkServiceCachedAsk(b *testing.B) {
	svc, err := benchService()
	if err != nil {
		b.Fatal(err)
	}
	const question = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	warm, err := svc.Ask(service.AskRequest{Question: question, Seed: 999})
	if err != nil || warm.Error != "" {
		b.Fatalf("warm-up: %v %+v", err, warm)
	}
	before := svc.Metrics().Cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Ask(service.AskRequest{Question: question, Seed: 999})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("expected cache hit")
		}
	}
	b.StopTimer()
	after := svc.Metrics().Cache
	b.ReportMetric(float64(after.Hits-before.Hits)/float64(b.N), "hits/op")
	b.ReportMetric(float64(after.Misses-before.Misses), "extra-misses")
}

// BenchmarkServiceConcurrentAsk drives the worker pool at full parallelism:
// b.RunParallel issues uncached asks from many goroutines, so ns/op
// reflects queueing plus concurrent workflow execution — the serving
// throughput number.
func BenchmarkServiceConcurrentAsk(b *testing.B) {
	svc, err := benchService()
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := svc.Ask(service.AskRequest{
				Question: "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
				Seed:     nextBenchSeed(),
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Error != "" {
				b.Fatal(res.Error)
			}
		}
	})
}

// benchRegistry shares a 3-shard registry across the registry benchmarks,
// mirroring one inferad daemon serving a survey of simulation campaigns.
var benchRegistry = sync.OnceValues(func() (*service.Registry, error) {
	reg := service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{
			Workers:    2,
			QueueDepth: 64,
			Seed:       1,
			NewModel: func(seed int64) llm.Client {
				return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
			},
		},
	})
	for i, name := range []string{"campaign-a", "campaign-b", "campaign-c"} {
		dir, err := os.MkdirTemp("", "infera-bench-shard-*")
		if err != nil {
			return nil, err
		}
		spec := hacc.Spec{
			Runs:             2,
			Steps:            []int{99, 498},
			HalosPerRun:      100,
			ParticlesPerStep: 100,
			BoxSize:          128,
			Seed:             int64(i) + 1,
		}
		if _, err := hacc.Generate(dir, spec); err != nil {
			return nil, err
		}
		if _, err := reg.Register(name, dir); err != nil {
			return nil, err
		}
	}
	return reg, nil
})

// BenchmarkRegistryAsk measures the sharded serving path: every iteration
// routes an uncached question to the next of three ensemble shards through
// one registry, so ns/op is end-to-end latency including shard routing and
// (on first touch) lazy spin-up.
func BenchmarkRegistryAsk(b *testing.B) {
	reg, err := benchRegistry()
	if err != nil {
		b.Fatal(err)
	}
	shards := []string{"campaign-a", "campaign-b", "campaign-c"}
	var res *service.AskResult
	for i := 0; i < b.N; i++ {
		res, err = reg.Ask(shards[i%len(shards)], service.AskRequest{
			Question: "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?",
			Seed:     nextBenchSeed(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Error != "" || res.Cached {
			b.Fatalf("result = %+v", res)
		}
	}
	m := reg.Metrics()
	b.ReportMetric(float64(m.Live), "live-shards")
	b.ReportMetric(float64(m.ShardOpens), "shard-opens")
	b.ReportMetric(float64(res.Tokens), "tokens/ask")
}

// BenchmarkRegistryCachedAsk measures the routed cache floor: after one
// warm-up per shard, every iteration is a cross-shard round of cache hits —
// the registry's routing overhead on top of the per-shard LRU fast path.
func BenchmarkRegistryCachedAsk(b *testing.B) {
	reg, err := benchRegistry()
	if err != nil {
		b.Fatal(err)
	}
	shards := []string{"campaign-a", "campaign-b", "campaign-c"}
	const question = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	for _, s := range shards {
		warm, err := reg.Ask(s, service.AskRequest{Question: question, Seed: 999})
		if err != nil || warm.Error != "" {
			b.Fatalf("warm-up %s: %v %+v", s, err, warm)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := reg.Ask(shards[i%len(shards)], service.AskRequest{Question: question, Seed: 999})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached {
			b.Fatal("expected a per-shard cache hit")
		}
	}
}

// BenchmarkSharedStaging measures the per-column staging cache on the
// workload it exists for: 8 concurrent sessions stage disjoint-but-
// overlapping column subsets of the same (sim, step) halo slices. The
// direct path re-opens and re-decodes each session's subset from scratch
// (the pre-cache loader behavior). The staged path shares decodes per
// (file, column), so each distinct column decodes once per file — where
// the previous column-set-keyed cache decoded every distinct subset in
// full. The benchmark asserts the per-column keying reads >= 2x fewer
// bytes than that column-set baseline and reports the wall-clock speedup.
func BenchmarkSharedStaging(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	entries := cat.FilesOf(-1, -1, hacc.FileHalos)
	if len(entries) == 0 {
		b.Fatal("no halo files")
	}
	// Overlapping-but-unequal subsets, as produced by sessions whose
	// questions need different column selections of the same snapshots.
	subsets := [][]string{
		{"fof_halo_tag", "fof_halo_mass"},
		{"fof_halo_mass", "fof_halo_count"},
		{"fof_halo_count", "fof_halo_tag"},
		{"fof_halo_tag", "fof_halo_mass", "fof_halo_count"},
	}
	const sessions = 8

	// Per-column block sizes from the file headers: the bytes a column-set-
	// keyed cache would decode (each distinct subset in full, once) vs the
	// per-column ideal (each distinct column once).
	var columnSetBytes, perColumnBytes int64
	for _, e := range entries {
		r, err := gio.Open(cat.AbsPath(e))
		if err != nil {
			b.Fatal(err)
		}
		sizes := map[string]int64{}
		for _, name := range r.ColumnNames() {
			if ci, ok := r.ColumnInfoOf(name); ok {
				sizes[name] = ci.Size
			}
		}
		r.Close()
		seen := map[string]bool{}
		for _, subset := range subsets {
			for _, col := range subset {
				columnSetBytes += sizes[col]
				if !seen[col] {
					seen[col] = true
					perColumnBytes += sizes[col]
				}
			}
		}
	}

	runSessions := func(loadAll func(s int) error) {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := loadAll(s); err != nil {
					b.Error(err)
				}
			}(s)
		}
		wg.Wait()
	}

	var directNS, stagedNS, decoded int64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		runSessions(func(s int) error {
			cols := subsets[s%len(subsets)]
			for _, e := range entries {
				r, err := gio.Open(cat.AbsPath(e))
				if err != nil {
					return err
				}
				_, err = r.ReadColumns(cols...)
				r.Close()
				if err != nil {
					return err
				}
			}
			return nil
		})
		directNS += time.Since(start).Nanoseconds()

		c := stage.New(1<<30, 4) // fresh cache per iteration: all misses once
		start = time.Now()
		runSessions(func(s int) error {
			cols := subsets[s%len(subsets)]
			reqs := make([]stage.Request, len(entries))
			for j, e := range entries {
				reqs[j] = stage.Request{Path: cat.AbsPath(e), Columns: cols}
			}
			for _, res := range c.LoadAll(reqs) {
				if res.Err != nil {
					return res.Err
				}
			}
			return nil
		})
		stagedNS += time.Since(start).Nanoseconds()
		decoded = c.Stats().BytesDecoded
	}
	if decoded != perColumnBytes {
		b.Fatalf("staged path must decode each column exactly once: %d bytes, want %d", decoded, perColumnBytes)
	}
	if ratio := float64(columnSetBytes) / float64(decoded); ratio < 2 {
		b.Fatalf("per-column keying must beat column-set keying >= 2x on decoded bytes, got %.2fx (%d vs %d)",
			ratio, columnSetBytes, decoded)
	}
	b.ReportMetric(float64(directNS)/float64(b.N)/1e6, "direct-ms")
	b.ReportMetric(float64(stagedNS)/float64(b.N)/1e6, "staged-ms")
	b.ReportMetric(float64(directNS)/float64(stagedNS), "speedup")
	b.ReportMetric(float64(decoded), "bytes-decoded")
	b.ReportMetric(float64(columnSetBytes)/float64(decoded), "decode-reduction-vs-colset")
}

// BenchmarkZeroCopyStage measures staged-frame -> session-DB ingestion:
// frames assembled over cached column vectors are bulk-appended into a
// staged sqldb, which retains them by reference. allocs/op is the headline
// number — it stays O(columns) while the cell count (reported) says what a
// deep copy would have moved; the durable DB's eager encode+write path is
// timed alongside for the before/after comparison.
func BenchmarkZeroCopyStage(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	entries := cat.FilesOf(-1, -1, hacc.FileHalos)
	if len(entries) == 0 {
		b.Fatal("no halo files")
	}
	cols := []string{"fof_halo_tag", "fof_halo_mass", "fof_halo_count"}
	c := stage.New(1<<30, 4)
	frames := make([]*dataframe.Frame, len(entries))
	var cells int
	for i, e := range entries {
		f, _, err := c.Columns(cat.AbsPath(e), cols...)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
		cells += f.NumRows() * f.NumCols()
	}
	root := b.TempDir()

	b.Run("staged", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := sqldb.CreateStaged(filepath.Join(root, fmt.Sprintf("s%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if err := db.BulkAppend("halos", frames...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cells), "cells-referenced")
		b.ReportMetric(float64(len(frames)), "frames")
	})
	b.Run("durable", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db, err := sqldb.Create(filepath.Join(root, fmt.Sprintf("d%d", i)))
			if err != nil {
				b.Fatal(err)
			}
			if err := db.BulkAppend("halos", frames...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(cells), "cells-copied")
	})
}

// BenchmarkConcurrentStagedAsk drives 8 concurrent full-workflow sessions
// per iteration through a service whose assistant pool shares one staging
// cache. Every session stages the halos table for all sims and steps
// (maximal slice overlap, distinct seeds so the answer cache never hits),
// and the benchmark asserts each underlying gio file was decoded exactly
// once across ALL sessions and iterations — N concurrent sessions cost one
// decode per file, not N.
func BenchmarkConcurrentStagedAsk(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	st := stage.New(1<<30, 4) // isolated cache so the counters are exact
	svc, err := service.New(service.Config{
		EnsembleDir: dir,
		Workers:     4,
		QueueDepth:  256,
		Seed:        1,
		Stage:       st,
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()

	const question = "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	const sessions = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < sessions; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := svc.Ask(service.AskRequest{Question: question, Seed: nextBenchSeed()})
				if err != nil {
					b.Error(err)
					return
				}
				if res.Error != "" || res.Cached {
					b.Errorf("result = %+v", res)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()

	haloFiles := int64(len(cat.FilesOf(-1, -1, hacc.FileHalos)))
	stats := st.Stats()
	if stats.Opens != haloFiles {
		b.Fatalf("each halo file must decode once across %d sessions x %d iterations: opens = %d, want %d",
			sessions, b.N, stats.Opens, haloFiles)
	}
	b.ReportMetric(float64(stats.Hits)/float64(b.N), "stage-hits/op")
	b.ReportMetric(float64(stats.Opens), "decodes-total")
	b.ReportMetric(float64(stats.UsedBytes), "stage-resident-bytes")
}

// BenchmarkVectorizedQuery measures the compiled columnar SQL engine
// against the tree-walk evaluator on the workload the engine exists for:
// an analysis-heavy filtered GROUP BY aggregation over a multi-segment
// staged table (16 segments x 40k rows, the shape a broad multi-timestep
// ask stages). Both backends run the same statement on identically-staged
// databases; the benchmark asserts identical result frames, that min/max
// stats actually prune segments on a step-selective predicate, and that
// the vectorized engine is >= 2x faster (the CI floor; the acceptance
// target is 5x, reported as speedup-vs-treewalk in BENCH_7.json).
func BenchmarkVectorizedQuery(b *testing.B) {
	const (
		segments = 16
		rowsPer  = 40_000
	)
	rng := rand.New(rand.NewSource(42))
	frames := make([]*dataframe.Frame, segments)
	for s := range frames {
		sims := make([]int64, rowsPer)
		steps := make([]int64, rowsPer)
		cnts := make([]int64, rowsPer)
		masses := make([]float64, rowsPer)
		for i := 0; i < rowsPer; i++ {
			sims[i] = rng.Int63n(8)
			steps[i] = int64(99 + s*21) // step is segment-clustered, like staged snapshots
			cnts[i] = rng.Int63n(100_000)
			masses[i] = math.Exp(rng.NormFloat64()) * 1e14
		}
		frames[s] = dataframe.MustFromColumns(
			dataframe.NewInt("sim", sims),
			dataframe.NewInt("step", steps),
			dataframe.NewInt("fof_halo_count", cnts),
			dataframe.NewFloat("fof_halo_mass", masses),
		)
	}
	newDB := func() *sqldb.DB {
		db, err := sqldb.CreateStaged(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if err := db.BulkAppend("halos", frames...); err != nil {
			b.Fatal(err)
		}
		return db
	}
	// Separate databases: the tree-walk's ReadTable collapses segments into
	// one materialized frame, which would defeat the vectorized side's
	// segment awareness.
	dbTree, dbVec := newDB(), newDB()

	const q = "SELECT sim, COUNT(*) AS n, AVG(fof_halo_mass) AS avg_mass, STDDEV(fof_halo_mass) AS sd, MAX(fof_halo_count) AS max_count FROM halos WHERE fof_halo_mass > 1.2e14 AND fof_halo_count < 90000 GROUP BY sim ORDER BY sim"

	want, err := dbTree.QueryBackend(q, sqldb.BackendTreeWalk)
	if err != nil {
		b.Fatal(err)
	}
	got, err := dbVec.QueryBackend(q, sqldb.BackendVectorized)
	if err != nil {
		b.Fatal(err)
	}
	if !dataframe.Equal(want, got) {
		b.Fatalf("backends disagree:\ntreewalk:\n%v\nvectorized:\n%v", want, got)
	}
	info, err := dbVec.ExplainQuery("SELECT COUNT(*) AS n FROM halos WHERE step = 393 AND fof_halo_mass > 1e14")
	if err != nil {
		b.Fatal(err)
	}
	if info.Backend != "vectorized" || info.SegmentsPruned != segments-1 {
		b.Fatalf("step-selective explain = %+v, want vectorized with %d of %d segments pruned", info, segments-1, segments)
	}

	// Best-of-N on both sides keeps the speedup ratio stable against
	// scheduler noise; both databases are already warm from the parity
	// check above.
	const twIters = 3
	twNS := math.Inf(1)
	for i := 0; i < twIters; i++ {
		start := time.Now()
		if _, err := dbTree.QueryBackend(q, sqldb.BackendTreeWalk); err != nil {
			b.Fatal(err)
		}
		if d := float64(time.Since(start).Nanoseconds()); d < twNS {
			twNS = d
		}
	}

	vecNS := math.Inf(1)
	for i := 0; i < twIters; i++ {
		start := time.Now()
		if _, err := dbVec.QueryBackend(q, sqldb.BackendVectorized); err != nil {
			b.Fatal(err)
		}
		if d := float64(time.Since(start).Nanoseconds()); d < vecNS {
			vecNS = d
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dbVec.QueryBackend(q, sqldb.BackendVectorized); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	speedup := twNS / vecNS
	if speedup < 2 {
		b.Fatalf("vectorized speedup over tree-walk = %.2fx, below the 2x floor (treewalk %.1fms, vectorized %.1fms)",
			speedup, twNS/1e6, vecNS/1e6)
	}
	b.ReportMetric(speedup, "speedup-vs-treewalk")
	b.ReportMetric(twNS/1e6, "treewalk-ms")
	b.ReportMetric(vecNS/1e6, "vectorized-ms")
	b.ReportMetric(float64(info.SegmentsPruned), "segments-pruned")
}

// BenchmarkSelectiveIO quantifies the data-reduction substrate itself: the
// bytes actually read for a two-column selection versus a full-file read.
func BenchmarkSelectiveIO(b *testing.B) {
	dir := ensembleDir(b)
	cat, err := hacc.Load(dir)
	if err != nil {
		b.Fatal(err)
	}
	entry, ok := cat.Find(0, 624, hacc.FileHalos)
	if !ok {
		b.Fatal("missing halo file")
	}
	var selective, full int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := gio.Open(cat.AbsPath(entry))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadColumns("fof_halo_tag", "fof_halo_mass"); err != nil {
			b.Fatal(err)
		}
		selective = r.BytesRead()
		r.Close()
		r2, err := gio.Open(cat.AbsPath(entry))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r2.ReadAll(); err != nil {
			b.Fatal(err)
		}
		full = r2.BytesRead()
		r2.Close()
	}
	b.ReportMetric(float64(selective), "selective-bytes")
	b.ReportMetric(float64(full), "full-bytes")
	b.ReportMetric(float64(full)/float64(selective), "reduction-factor")
}

// BenchmarkTieredRestart measures the tentpole property of the stage
// cache's disk tier: a restarted process over a populated block store
// stages its working set by mmap-promoting persisted blocks instead of
// re-opening and re-decoding the gio sources. Cold = fresh cache over an
// empty store (every column decodes); warm = fresh cache over the store
// the previous "process" left behind (every column promotes). Both
// passes touch every staged value, so lazily faulted pages are paid for
// inside the timed region. The benchmark fails unless the warm restart
// stages with zero gio opens, zero decoded bytes, and at least 3x the
// cold throughput.
func BenchmarkTieredRestart(b *testing.B) {
	dir := b.TempDir()
	const (
		nfiles = 6
		nrows  = 200_000
	)
	cols := []string{"fof_halo_tag", "fof_halo_mass", "fof_halo_count"}
	paths := make([]string, nfiles)
	ints := make([]int64, nrows)
	floats := make([]float64, nrows)
	for i := 0; i < nrows; i++ {
		ints[i] = int64(i)
		floats[i] = float64(i) / 3
	}
	for i := range paths {
		f := dataframe.MustFromColumns(
			dataframe.NewInt("fof_halo_tag", ints),
			dataframe.NewFloat("fof_halo_mass", floats),
			dataframe.NewFloat("fof_halo_count", floats),
		)
		paths[i] = filepath.Join(dir, fmt.Sprintf("restart%d.gio", i))
		if err := gio.WriteFile(paths[i], f, nil); err != nil {
			b.Fatal(err)
		}
	}

	// stagePass stages every column of every file and folds the values so
	// mmap-promoted vectors fault their pages inside the timed region.
	stagePass := func(c *stage.Cache) float64 {
		var sum float64
		for _, p := range paths {
			f, _, err := c.Columns(p, cols...)
			if err != nil {
				b.Fatal(err)
			}
			for _, name := range cols {
				col := f.MustColumn(name)
				for i := 0; i < col.Len(); i += 512 {
					switch col.Kind {
					case dataframe.Int:
						sum += float64(col.I[i])
					default:
						sum += col.F[i]
					}
				}
			}
		}
		return sum
	}

	// Populate the warm store once: the "previous process" decodes the
	// working set and write-through persists it.
	warmDir := filepath.Join(dir, "stage-warm")
	seed := stage.New(1<<30, 4)
	if err := seed.SetDiskTier(warmDir, 0); err != nil {
		b.Fatal(err)
	}
	want := stagePass(seed)
	seed.WaitPending()
	seed.Close()

	var coldNS, warmNS int64
	var promoted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldDir := filepath.Join(dir, fmt.Sprintf("stage-cold-%d", i))
		cold := stage.New(1<<30, 4)
		if err := cold.SetDiskTier(coldDir, 0); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if got := stagePass(cold); got != want {
			b.Fatalf("cold pass checksum %v, want %v", got, want)
		}
		coldNS += time.Since(start).Nanoseconds()
		if st := cold.Stats(); st.Opens != int64(nfiles) {
			b.Fatalf("cold pass must decode from source: opens = %d, want %d", st.Opens, nfiles)
		}
		cold.Close()

		warm := stage.New(1<<30, 4)
		if err := warm.SetDiskTier(warmDir, 0); err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		if got := stagePass(warm); got != want {
			b.Fatalf("warm pass checksum %v, want %v", got, want)
		}
		warmNS += time.Since(start).Nanoseconds()
		st := warm.Stats()
		if st.Opens != 0 || st.BytesDecoded != 0 {
			b.Fatalf("warm restart must not touch the gio decoder: opens = %d, bytes_decoded = %d",
				st.Opens, st.BytesDecoded)
		}
		if st.DiskHits != int64(nfiles*len(cols)) {
			b.Fatalf("disk_hits = %d, want %d", st.DiskHits, nfiles*len(cols))
		}
		promoted = st.PromotedBytes
		warm.Close()
	}
	speedup := float64(coldNS) / float64(warmNS)
	if speedup < 3 {
		b.Fatalf("disk-warm restart must stage >= 3x faster than cold, got %.2fx (cold %dms, warm %dms)",
			speedup, coldNS/1e6, warmNS/1e6)
	}
	b.ReportMetric(float64(coldNS)/float64(b.N)/1e6, "cold-ms")
	b.ReportMetric(float64(warmNS)/float64(b.N)/1e6, "warm-ms")
	b.ReportMetric(speedup, "restart-speedup")
	b.ReportMetric(float64(promoted), "promoted-bytes")
}

// BenchmarkVMExec measures the bytecode VM against the tree-walk reference
// on a dispatch-heavy analysis script: many statements of filters, derives,
// list literals and aggregations over a staged table, the shape the QA
// repair loop re-executes repeatedly. Both backends run fresh environments
// per pass and must produce identical results and fuel; the VM must stay
// within 10% of the tree-walk (it is expected to win — the budget
// accounting it shares with the tree-walk is the overhead under test).
func BenchmarkVMExec(b *testing.B) {
	// A ~160-statement script: one staged load, then repeated rounds of
	// filter/derive/sort/head/groupby plus list-literal churn.
	var sb strings.Builder
	sb.WriteString(`t = load_table("work")` + "\n")
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "l%d = [%d, %d.5, \"s%d\", true, [%d, %d]]\n", i, i, i, i, i, i+1)
		fmt.Fprintf(&sb, "f%d = filter_gt(t, \"x\", %d)\n", i, i%5)
		fmt.Fprintf(&sb, "d%d = derive_scale(f%d, \"y%d\", \"y\", 2.5)\n", i, i, i)
		fmt.Fprintf(&sb, "h%d = head(sort(d%d, \"y%d\", true), 5)\n", i, i, i)
		fmt.Fprintf(&sb, "g%d = groupby(d%d, [\"name\"], \"y%d\", \"mean\", \"m\")\n", i, i, i)
		fmt.Fprintf(&sb, "n%d = nrows(h%d)\n", i, i)
		fmt.Fprintf(&sb, "c%d = concat(h%d, h%d)\n", i, i, i)
		fmt.Fprintf(&sb, "s%d = select(c%d, [\"x\", \"y\"])\n", i, i)
	}
	sb.WriteString("result(g19)\n")
	src := sb.String()

	// Work table: large enough that builtins do real work, small enough
	// that interpreter dispatch stays visible.
	dir := b.TempDir()
	var csv strings.Builder
	csv.WriteString("x,y,name\n")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&csv, "%d,%.4f,n%d\n", i%10, rng.NormFloat64()*10, i%7)
	}
	if err := os.WriteFile(filepath.Join(dir, "work.csv"), []byte(csv.String()), 0o644); err != nil {
		b.Fatal(err)
	}

	reg := script.DefaultRegistry()
	prog, err := script.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	comp, err := script.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	runTW := func() *script.Env {
		env := script.NewEnv(reg, dir)
		if err := prog.Run(env); err != nil {
			b.Fatal(err)
		}
		return env
	}
	runVM := func() *script.Env {
		env := script.NewEnv(reg, dir)
		if err := comp.Run(env); err != nil {
			b.Fatal(err)
		}
		return env
	}

	// Parity gate before timing anything.
	twEnv, vmEnv := runTW(), runVM()
	if twEnv.FuelUsed != vmEnv.FuelUsed {
		b.Fatalf("fuel divergence: treewalk=%d vm=%d", twEnv.FuelUsed, vmEnv.FuelUsed)
	}
	if twEnv.Result == nil || vmEnv.Result == nil || twEnv.Result.String() != vmEnv.Result.String() {
		b.Fatal("result divergence between backends")
	}

	// Best-of-N on both sides to shed scheduler noise.
	const iters = 5
	twNS, vmNS := math.Inf(1), math.Inf(1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		runTW()
		if d := float64(time.Since(start).Nanoseconds()); d < twNS {
			twNS = d
		}
		start = time.Now()
		runVM()
		if d := float64(time.Since(start).Nanoseconds()); d < vmNS {
			vmNS = d
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runVM()
	}
	b.StopTimer()

	ratio := vmNS / twNS
	if ratio > 1.10 {
		b.Fatalf("VM is %.2fx the tree-walk (treewalk %.2fms, vm %.2fms), above the 1.10x ceiling",
			ratio, twNS/1e6, vmNS/1e6)
	}
	b.ReportMetric(twNS/1e6, "treewalk-ms")
	b.ReportMetric(vmNS/1e6, "vm-ms")
	b.ReportMetric(ratio, "vm/treewalk-ratio")
	b.ReportMetric(float64(twEnv.FuelUsed), "fuel/script")
}
