package core

import (
	"errors"
	"strings"
	"testing"

	"infera/internal/agent"
	"infera/internal/hacc"
	"infera/internal/llm"
)

func testEnsemble(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 350, 498, 624},
		HalosPerRun:      100,
		ParticlesPerStep: 100,
		BoxSize:          128,
		Seed:             3,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func newAssistant(t *testing.T, cfg Config) *Assistant {
	t.Helper()
	if cfg.EnsembleDir == "" {
		cfg.EnsembleDir = testEnsemble(t)
	}
	if cfg.WorkDir == "" {
		cfg.WorkDir = t.TempDir()
	}
	if cfg.Model == nil {
		// Error-free model for deterministic pipeline tests.
		cfg.Model = llm.NewSim(llm.SimConfig{Seed: 1, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestAskTopNQuestion(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	if !ans.State.Done || ans.State.Failed {
		t.Fatalf("state = %+v", ans.State)
	}
	if ans.Answer == nil || ans.Answer.NumRows() != 20 {
		t.Fatalf("answer rows = %v", ans.Answer)
	}
	// Largest halo of sim 0 carries tag 0 (rank order) and masses descend.
	masses := ans.Answer.MustColumn("fof_halo_mass").Floats()
	for i := 1; i < len(masses); i++ {
		if masses[i] > masses[i-1] {
			t.Errorf("masses not descending at %d", i)
		}
	}
	if got := ans.Answer.MustColumn("fof_halo_tag").IntAt(0); got != 0 {
		t.Errorf("top halo tag = %d, want 0", got)
	}
	// Only simulation 0 and step 498 loaded.
	if len(ans.State.LoadedSims) != 1 || ans.State.LoadedSims[0] != 0 {
		t.Errorf("loaded sims = %v", ans.State.LoadedSims)
	}
	if len(ans.State.LoadedSteps) != 1 || ans.State.LoadedSteps[0] != 498 {
		t.Errorf("loaded steps = %v", ans.State.LoadedSteps)
	}
	if ans.TaskCompleteness() != 1 {
		t.Errorf("completeness = %v", ans.TaskCompleteness())
	}
	if ans.State.Usage.Total() == 0 {
		t.Error("no token usage recorded")
	}
	if ans.DBBytes <= 0 || ans.SourceBytes <= 0 {
		t.Errorf("sizes: db=%d source=%d", ans.DBBytes, ans.SourceBytes)
	}
	if ans.StorageOverheadFraction() <= 0 {
		t.Error("storage overhead fraction should be positive")
	}
}

func TestAskAggregateAcrossSimsAndSteps(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?")
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	if ans.Answer == nil || ans.Answer.NumRows() != 4 { // one row per step
		t.Fatalf("answer = %v", ans.Answer)
	}
	if !ans.Answer.Has("avg_fof_halo_count") {
		t.Errorf("columns = %v", ans.Answer.Names())
	}
	// Average halo size grows with time in the synthetic physics.
	avg := ans.Answer.MustColumn("avg_fof_halo_count").Floats()
	if avg[len(avg)-1] <= avg[0] {
		t.Errorf("average size should grow: %v", avg)
	}
}

func TestAskSMHMHardQuestion(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("At timestep 624, how does the slope and intrinsic scatter of the stellar-to-halo mass (SMHM) relation vary as a function of seed mass? Which seed mass values produce the tightest SMHM correlation, and is there a threshold seed mass that maximizes stellar-mass assembly efficiency?")
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	// The analysis table holds per-seed-mass fits sorted by scatter.
	if ans.Answer == nil || !ans.Answer.Has("scatter") || !ans.Answer.Has("m_seed") {
		t.Fatalf("answer = %v", ans.Answer.Names())
	}
	if ans.Answer.NumRows() != 2 { // one fit per simulation/seed mass
		t.Errorf("fits = %d", ans.Answer.NumRows())
	}
	// Artifacts include both requested plots.
	var plots int
	for _, e := range ans.Artifacts {
		if e.Kind == "plot" {
			plots++
		}
	}
	if plots < 2 {
		t.Errorf("plots recorded = %d, want >= 2", plots)
	}
}

func TestAskTrackQuestionProducesTwoPlots(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Can you plot the change in mass of the largest friends-of-friends halos for all timesteps in all simulations? Provide me two plots using both fof_halo_count and fof_halo_mass as metrics for mass.")
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	names := map[string]bool{}
	for _, e := range ans.Artifacts {
		names[e.Name] = true
	}
	if !names["halo_count.svg"] || !names["halo_mass.svg"] {
		t.Errorf("artifacts = %v", names)
	}
	if ans.Answer == nil || !ans.Answer.Has("max_mass") {
		t.Fatalf("answer = %v", ans.Answer)
	}
	// All sims and all steps loaded.
	if len(ans.State.LoadedSims) != 2 || len(ans.State.LoadedSteps) != 4 {
		t.Errorf("loaded %v sims %v steps", ans.State.LoadedSims, ans.State.LoadedSteps)
	}
}

func TestAskNeighborhoodParaview(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Visualize a target dark matter halo and all surrounding halos within 20 megaparsec radius in simulation 0 using Paraview.")
	if err != nil {
		t.Fatalf("ask: %v", err)
	}
	var scene bool
	for _, e := range ans.Artifacts {
		if e.Kind == "scene" && strings.HasSuffix(e.Name, ".vtk") {
			scene = true
		}
	}
	if !scene {
		t.Error("no ParaView scene artifact recorded")
	}
}

func TestProvenanceTrailIsComplete(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range ans.Artifacts {
		kinds[e.Kind]++
	}
	for _, want := range []string{"plan", "retrieval", "report", "code", "data", "checkpoint", "summary"} {
		if kinds[want] == 0 {
			t.Errorf("provenance missing kind %q (have %v)", want, kinds)
		}
	}
	// The full trail verifies.
	sess, err := a.Store().OpenSession(ans.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := sess.Verify()
	if err != nil || len(bad) != 0 {
		t.Errorf("verify: %v %v", bad, err)
	}
}

func TestFailingRunReportsPartialProgress(t *testing.T) {
	// A QA agent that rejects nearly everything exhausts the revision
	// budget deterministically.
	model := llm.NewSim(llm.SimConfig{Seed: 9, ColumnErrorRate: 1e-9, BinaryQA: true, QAFalseNegRate: 0.999})
	a := newAssistant(t, Config{Model: model})
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	var fe *agent.ErrFailed
	if !errors.As(err, &fe) {
		t.Fatalf("want ErrFailed, got %v", err)
	}
	if !ans.State.Failed || ans.State.Done {
		t.Errorf("state = %+v", ans.State)
	}
	if ans.TaskCompleteness() >= 1 || ans.TaskCompleteness() < 0 {
		t.Errorf("completeness = %v", ans.TaskCompleteness())
	}
	if ans.State.RedoCount < 5 {
		t.Errorf("redo count = %d, want >= MaxRevisions", ans.State.RedoCount)
	}
	// Failed runs still document themselves.
	if ans.Summary == "" || !strings.Contains(ans.Summary, "Limitations") {
		t.Errorf("summary = %q", ans.Summary)
	}
}

func TestHumanHintRepairsImmediately(t *testing.T) {
	// With an always-corrupting model but a human supplying the correct
	// column name, the run should still fail *less*: the hint removes the
	// corrupted name from the retry pool. Use a hinting Feedback.
	model := llm.NewSim(llm.SimConfig{Seed: 4, ColumnErrorRate: 0.95, RetryDecay: 0.2})
	a := newAssistant(t, Config{Model: model, Feedback: agent.AutoHinter{}})
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	if err != nil {
		t.Fatalf("ask with hints: %v", err)
	}
	if ans.State.PlanRounds < 1 {
		t.Error("plan review did not run")
	}
}

func TestTrimHistoryReducesTokens(t *testing.T) {
	q := "Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?"
	run := func(trim bool) int {
		model := llm.NewSim(llm.SimConfig{Seed: 11, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		a := newAssistant(t, Config{Model: model, TrimHistory: trim})
		ans, err := a.Ask(q)
		if err != nil {
			t.Fatal(err)
		}
		return ans.State.Usage.Total()
	}
	full := run(false)
	trimmed := run(true)
	if trimmed >= full {
		t.Errorf("trimmed history tokens %d should be below full %d", trimmed, full)
	}
}

func TestCheckpointBranching(t *testing.T) {
	a := newAssistant(t, Config{})
	ans, err := a.Ask("Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := a.Store().OpenSession(ans.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := sess.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint recorded")
	}
	data, err := sess.Read(cp)
	if err != nil {
		t.Fatal(err)
	}
	st, err := agent.RestoreState(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Question == "" || !st.Done {
		t.Errorf("restored state = %+v", st)
	}
	branch, err := a.Store().Branch(sess, ans.SessionID+"-alt", cp.Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(branch.Manifest()) == 0 {
		t.Error("branch is empty")
	}
}
