// Package repro pins every table and figure of the paper's evaluation
// (PAPER.md holds the abstract). Each test regenerates one of them on a
// reduced synthetic ensemble and compares what it reports with
// testdata/<TestName>.golden: Table 1 as eval.FormatTable1 prints it,
// Table 2 without its wall-clock column, and one "name value" line per
// reported metric. The simulated model and every seed are fixed, so all of
// these are pure functions of the code; a change that moves a paper-facing
// number fails here.
//
//	go test ./internal/repro                  # check
//	go test ./internal/repro -update-golden   # rewrite the goldens
//
// The shape of the results (orderings, ratios, crossovers) is the
// reproduction target, not the paper's absolute values.
package repro

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"infera/internal/baselines"
	"infera/internal/core"
	"infera/internal/eval"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/rag"
	"infera/internal/stage"
	"infera/internal/tools"
	"infera/internal/viz"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/*.golden from this run")

// goldenDir is the package's testdata directory. TestMain resolves it
// before moving into a scratch directory.
var goldenDir string

// TestMain runs the tests inside a scratch directory and hands the
// workflows relative ensemble paths: the planner's context quotes the
// ensemble path, so an absolute one would make token counts depend on
// where the temp directory lives. It also poisons every stage buffer that
// goes back to the free list, so a use after recycle changes a number.
func TestMain(m *testing.M) {
	flag.Parse()
	stage.PoisonRecycled(true)
	os.Exit(runInScratch(m))
}

func runInScratch(m *testing.M) int {
	var err error
	if goldenDir, err = filepath.Abs("testdata"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp("", "infera-repro-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	if err := os.Chdir(dir); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return m.Run()
}

// sharedEnsemble generates the one ensemble most tests run on.
var sharedEnsemble = sync.OnceValues(func() (string, error) {
	const dir = "ensemble"
	spec := hacc.Spec{
		Runs:             4,
		Steps:            []int{99, 249, 399, 498, 624},
		HalosPerRun:      120,
		ParticlesPerStep: 100,
		BoxSize:          256,
		Seed:             1,
	}
	_, err := hacc.Generate(dir, spec)
	return dir, err
})

func ensembleDir(t *testing.T) string {
	t.Helper()
	dir, err := sharedEnsemble()
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// table2Campaign is the Table 2 evaluation run, shared with the storage
// study.
var table2Campaign = sync.OnceValues(func() (*eval.Report, error) {
	dir, err := sharedEnsemble()
	if err != nil {
		return nil, err
	}
	return eval.Run(eval.Config{EnsembleDir: dir, Reps: 5, Seed: 7})
})

func campaign(t *testing.T) *eval.Report {
	t.Helper()
	rep, err := table2Campaign()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// lowErrorModel is the simulated model with tool and column errors off.
func lowErrorModel(seed int64) llm.Client {
	return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
}

// metrics collects one "name value" line per reported metric.
type metrics struct{ strings.Builder }

func (m *metrics) add(name string, v float64) {
	fmt.Fprintf(&m.Builder, "%s %s\n", name, formatValue(v))
}

// formatValue prints integers exactly and other values to six
// significant digits.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

// checkGolden compares got with testdata/<test name>.golden, or rewrites
// that file under -update-golden.
func checkGolden(t *testing.T, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, t.Name()+".golden")
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	var diff strings.Builder
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			fmt.Fprintf(&diff, "line %d:\n  - %s\n  + %s\n", i+1, w, g)
		}
	}
	t.Errorf("testdata/%s.golden moved (- golden, + this run):\n%s", t.Name(), diff.String())
}

// TestTable1DifficultyMatrix regenerates Table 1: the 20-question bank
// with the paper's marginal counts on both difficulty axes.
func TestTable1DifficultyMatrix(t *testing.T) {
	qs := eval.Bank()
	var m metrics
	m.WriteString(eval.FormatTable1(qs) + "\n")
	ana := eval.CountBy(qs, func(q eval.Question) eval.Difficulty { return q.Analysis })
	sem := eval.CountBy(qs, func(q eval.Question) eval.Difficulty { return q.Semantic })
	m.add("analysis-easy", float64(ana[eval.Easy]))
	m.add("analysis-medium", float64(ana[eval.Medium]))
	m.add("analysis-hard", float64(ana[eval.Hard]))
	m.add("semantic-easy", float64(sem[eval.Easy]))
	m.add("semantic-medium", float64(sem[eval.Medium]))
	m.add("semantic-hard", float64(sem[eval.Hard]))
	checkGolden(t, m.String())
}

// TestTable2Evaluation regenerates Table 2: the full 20-question campaign.
// The table keeps every column of Report.Format except the wall-clock
// time, at more precision than the paper prints; the metrics are the
// Total row plus the success split's token skew.
func TestTable2Evaluation(t *testing.T) {
	rep := campaign(t)
	rows := rep.Rows()
	var m metrics
	fmt.Fprintf(&m, "%-23s %-25s %3s %4s %8s %8s %10s %9s %9s %10s %6s\n",
		"Group", "Label", "Qs", "Runs", "%SatDat", "%SatVis", "%RunsCompl", "%Complete", "Tokens", "StorageMB", "Redo")
	byLabel := map[string]eval.Row{}
	for _, r := range rows {
		byLabel[r.Group+"/"+r.Label] = r
		fmt.Fprintf(&m, "%-23s %-25s %3d %4d %8.2f %8.2f %10.2f %9.2f %9.1f %10.6f %6.3f\n",
			r.Group, r.Label, r.Questions, r.Runs, r.SatData, r.SatViz, r.Completed, r.Complete,
			r.Tokens, r.StorageMB, r.Redo)
	}
	m.WriteString("\n")
	total := byLabel["Overall/Total"]
	m.add("%satisfactory-data", total.SatData)
	m.add("%satisfactory-viz", total.SatViz)
	m.add("%runs-completed", total.Completed)
	m.add("%tasks-completed", total.Complete)
	m.add("tokens/run", total.Tokens)
	m.add("redo/run", total.Redo)
	ok := byLabel["Overall/Successful runs"]
	bad := byLabel["Overall/Unsuccessful runs"]
	if ok.Tokens > 0 {
		m.add("token-ratio-failed/ok", bad.Tokens/ok.Tokens)
	}
	m.add("redo/failed-run", bad.Redo)
	checkGolden(t, m.String())
}

// TestFigure1EnsembleRender regenerates the Fig. 1/2 flavor artifact: a
// particle snapshot rendered as a VTK scene.
func TestFigure1EnsembleRender(t *testing.T) {
	cat, err := hacc.Load(ensembleDir(t))
	if err != nil {
		t.Fatal(err)
	}
	f, err := hacc.Snapshot(cat.Spec, 0, 624, hacc.FileParticles)
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]viz.Point3, f.NumRows())
	for j := range pts {
		pts[j] = viz.Point3{
			X: f.MustColumn("x").F[j], Y: f.MustColumn("y").F[j], Z: f.MustColumn("z").F[j],
			Scalar: -f.MustColumn("phi").F[j],
		}
	}
	var m metrics
	m.add("vtk-bytes", float64(len(viz.WriteVTK("snapshot", pts))))
	checkGolden(t, m.String())
}

// TestFigure3WorkflowTrace runs one complete workflow and reports the
// node-transition counts of the Fig. 3 architecture: planning, supervised
// delegation, QA, documentation, checkpoints.
func TestFigure3WorkflowTrace(t *testing.T) {
	a, err := core.New(core.Config{EnsembleDir: ensembleDir(t), WorkDir: t.TempDir(), Model: lowErrorModel(1)})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	a.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkpoints := 0
	for _, e := range ans.Artifacts {
		if e.Kind == "checkpoint" {
			checkpoints++
		}
	}
	var m metrics
	m.add("plan-steps", float64(len(ans.State.Plan.Steps)))
	m.add("state-checkpoints", float64(checkpoints))
	m.add("provenance-artifacts", float64(len(ans.Artifacts)))
	checkGolden(t, m.String())
}

// TestFigure4Scaling32 reproduces the 32-simulation scaling case study
// (§4.3, Fig. 4): largest-halo count and mass series, with the staging DB
// much smaller than the source.
func TestFigure4Scaling32(t *testing.T) {
	const dir = "fig4-ensemble"
	t.Cleanup(func() { os.RemoveAll(dir) })
	spec := hacc.Spec{
		Runs:             32,
		Steps:            hacc.StepRange(99, hacc.FinalStep, 75),
		HalosPerRun:      150,
		ParticlesPerStep: 2500,
		BoxSize:          256,
		Seed:             3,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	a, err := core.New(core.Config{EnsembleDir: dir, WorkDir: t.TempDir(), Model: lowErrorModel(5)})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ans, err := a.Ask("Can you plot the change in mass of the largest friends-of-friends halos for all timesteps in all simulations? Provide me two plots using both fof_halo_count and fof_halo_mass as metrics for mass.")
	if err != nil {
		t.Fatal(err)
	}
	var m metrics
	m.add("source-MB", float64(ans.SourceBytes)/1e6)
	m.add("stagingdb-MB", float64(ans.DBBytes)/1e6)
	m.add("%storage-overhead", 100*ans.StorageOverheadFraction())
	m.add("tokens", float64(ans.State.Usage.Total()))
	m.add("analysis-steps", float64(len(ans.State.Plan.Steps)))
	if ans.Answer != nil {
		m.add("series-points", float64(ans.Answer.NumRows()))
	}
	checkGolden(t, m.String())
}

// TestFigure5ParaViewScene regenerates the Fig. 5 artifact: the target
// halo and all halos within 20 Mpc, target highlighted. The box is one
// dense run so the neighbourhood is populated, as in the paper.
func TestFigure5ParaViewScene(t *testing.T) {
	spec := hacc.Spec{Runs: 1, Steps: []int{624}, HalosPerRun: 400, ParticlesPerStep: 100, BoxSize: 128, Seed: 5}
	cat, err := hacc.Generate(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	tag, err := tools.NthMostMassiveTag(nil, cat, 0, 624, 0)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := tools.Neighborhood(nil, cat, 0, 624, tag, 20)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := tools.SceneFromFrame(nb, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "is_target")
	if err != nil {
		t.Fatal(err)
	}
	data := viz.WriteVTK("fig5", pts)
	if !strings.Contains(string(data), "SCALARS highlight") {
		t.Fatal("scene missing highlight array")
	}
	var m metrics
	m.add("neighbours-in-20Mpc", float64(nb.NumRows()-1))
	m.add("vtk-bytes", float64(len(data)))
	checkGolden(t, m.String())
}

// TestStorageOverhead reproduces §4.1.3: multi-timestep questions dominate
// storage overhead; single-timestep questions stay far smaller.
func TestStorageOverhead(t *testing.T) {
	var single, multi, n1, n2 float64
	for _, r := range campaign(t).Records {
		if r.Question.MultiStep {
			multi += float64(r.StorageBytes)
			n2++
		} else {
			single += float64(r.StorageBytes)
			n1++
		}
	}
	var m metrics
	m.add("single-step-MB", single/n1/1e6)
	m.add("multi-step-MB", multi/n2/1e6)
	m.add("multi/single-ratio", (multi/n2)/(single/n1))
	checkGolden(t, m.String())
}

// TestTokenUsageAblation reproduces §4.1.4: trimming the supervisor's
// message history reduces token usage.
func TestTokenUsageAblation(t *testing.T) {
	dir := ensembleDir(t)
	tokens := func(trim, skipDoc bool) int {
		a, err := core.New(core.Config{
			EnsembleDir: dir, WorkDir: t.TempDir(), TrimHistory: trim, SkipDocumentation: skipDoc,
			Model: lowErrorModel(1),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		ans, err := a.Ask("Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?")
		if err != nil {
			t.Fatal(err)
		}
		return ans.State.Usage.Total()
	}
	full, trimmed, skipDoc := tokens(false, false), tokens(true, false), tokens(true, true)
	var m metrics
	m.add("tokens-full-history", float64(full))
	m.add("tokens-trimmed", float64(trimmed))
	m.add("tokens-trimmed-nodoc", float64(skipDoc))
	m.add("%saved-max", float64(full-skipDoc)/float64(full)*100)
	checkGolden(t, m.String())
}

// TestModelQualityComparison reproduces the paper's model-choice
// observation: GPT-4o "significantly outperforms locally-hosted
// security-compliant models". Both profiles run the same questions with
// the same seeds; only the error calibration differs.
func TestModelQualityComparison(t *testing.T) {
	dir := ensembleDir(t)
	questions := []string{
		"At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass?",
		"Find the most unique halos at timestep 624 in simulation 1: using velocity dispersion, mass and kinetic energy, score how atypical each halo is and plot the top 50 as a UMAP plot highlighting the top 10.",
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
	}
	const reps = 4
	completion := func(cfg func(seed int64) llm.SimConfig) (done, redo int) {
		for qi, q := range questions {
			for r := 0; r < reps; r++ {
				a, err := core.New(core.Config{
					EnsembleDir: dir, WorkDir: t.TempDir(),
					Model: llm.NewSim(cfg(int64(qi)*100 + int64(r) + 1)),
				})
				if err != nil {
					t.Fatal(err)
				}
				ans, askErr := a.Ask(q)
				a.Close()
				if ans == nil {
					t.Fatal(askErr)
				}
				if askErr == nil && ans.State.Done {
					done++
				}
				redo += ans.State.RedoCount
			}
		}
		return done, redo
	}
	gptDone, gptRedo := completion(func(seed int64) llm.SimConfig { return llm.SimConfig{Seed: seed} })
	localDone, localRedo := completion(llm.LocalSimConfig)
	total := float64(len(questions) * reps)
	var m metrics
	m.add("%completed-gpt4o-sim", 100*float64(gptDone)/total)
	m.add("%completed-local-sim", 100*float64(localDone)/total)
	m.add("redo-gpt4o-sim", float64(gptRedo)/total)
	m.add("redo-local-sim", float64(localRedo)/total)
	checkGolden(t, m.String())
}

// TestQAScoringAblation reproduces §4.2.4: binary QA verdicts yield far
// more false negatives on correct output than 1-100 scoring with a
// threshold of 50.
func TestQAScoringAblation(t *testing.T) {
	const trials = 500
	falseNegatives := func(binary bool) int {
		model := llm.NewSim(llm.SimConfig{Seed: 11, BinaryQA: binary})
		raw, _ := json.Marshal(llm.QARequest{Task: "compute", Preview: "result frame: 20 rows x 4 cols"})
		fails := 0
		for i := 0; i < trials; i++ {
			resp, err := model.Complete(llm.Request{Skill: llm.SkillQA, Prompt: string(raw)})
			if err != nil {
				t.Fatal(err)
			}
			var qa llm.QAResponse
			if err := json.Unmarshal([]byte(resp.Text), &qa); err != nil {
				t.Fatal(err)
			}
			if !qa.Pass {
				fails++
			}
		}
		return fails
	}
	var m metrics
	m.add("%false-neg-scored", 100*float64(falseNegatives(false))/trials)
	m.add("%false-neg-binary", 100*float64(falseNegatives(true))/trials)
	checkGolden(t, m.String())
}

// TestBaselineComparison reproduces §4.4: direct chat hallucinates on a
// toy frame, the full-ingestion tool cannot hold the ensemble, and the
// static linear pipeline completes fewer runs than the multi-agent system.
func TestBaselineComparison(t *testing.T) {
	dir := ensembleDir(t)
	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	chat, err := baselines.DirectChat(llm.NewSim(llm.SimConfig{Seed: 2}), cat, "list the halo masses", 20)
	if err != nil {
		t.Fatal(err)
	}
	pandas, err := baselines.PandasAILike(cat, "top 20 largest halos", 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	arch, err := baselines.CompareArchitectures(dir, []string{
		"At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass?",
	}, 6, 17)
	if err != nil {
		t.Fatal(err)
	}
	var m metrics
	m.add("chat-hallucinated", b2f(chat.Hallucinated))
	m.add("pandasai-oom", b2f(!pandas.OK))
	m.add("%multiagent-completed", 100*float64(arch.MultiCompleted)/float64(arch.Runs))
	m.add("%static-completed", 100*float64(arch.StaticCompleted)/float64(arch.Runs))
	checkGolden(t, m.String())
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// TestAnalyticalVariability reproduces §4.5: the ambiguous question
// explores multiple strategies, the precise question yields identical
// outputs.
func TestAnalyticalVariability(t *testing.T) {
	res, err := eval.Variability(ensembleDir(t), 23, 6)
	if err != nil {
		t.Fatal(err)
	}
	var m metrics
	m.add("ambiguous-strategies", float64(res.DistinctStrategies()))
	m.add("precise-distinct-outputs", float64(len(res.PreciseOutputs)))
	m.WriteString("\n" + res.Format())
	checkGolden(t, m.String())
}

// TestRAGChunkingAblation backs the §3.1 design choice: fine-grained
// per-column chunks retrieve the target column above naive fixed-window
// chunks.
func TestRAGChunkingAblation(t *testing.T) {
	docs := rag.BuildHACCIndex().Docs()
	queries := []struct{ q, wantCol string }{
		{"gas mass enclosed 500 times critical density", "MGas500c"},
		{"number of particles in the friends of friends halo", "fof_halo_count"},
		{"stellar mass formed by star formation", "gal_stellar_mass"},
		{"kick velocity feedback cold gas", "gal_gas_mass"},
	}
	fine := rag.NewIndex()
	for _, d := range docs {
		fine.Add(d)
	}
	naive := rag.NaiveChunks(docs, 80)
	var fineHits, naiveHits int
	for _, qc := range queries {
		if hit := fine.Search(qc.q, 1); len(hit) > 0 && strings.Contains(hit[0].Doc.Text, qc.wantCol) {
			fineHits++
		}
		if hit := naive.Search(qc.q, 1); len(hit) > 0 && strings.Contains(hit[0].Doc.Text, qc.wantCol) {
			naiveHits++
		}
	}
	var m metrics
	m.add("%precision-fine", float64(fineHits)/float64(len(queries))*100)
	m.add("%precision-naive", float64(naiveHits)/float64(len(queries))*100)
	checkGolden(t, m.String())
}
