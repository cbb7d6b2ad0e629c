package agent

import (
	"encoding/json"
	"errors"
	"testing"
	"unsafe"

	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/sqldb"
	"infera/internal/tools"
)

func testRuntime(t *testing.T, model llm.Client) *Runtime {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{Runs: 2, Steps: []int{99, 624}, HalosPerRun: 50, ParticlesPerStep: 50, BoxSize: 128, Seed: 5}
	cat, err := hacc.Generate(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	db := sqldb.New()
	store, err := provenance.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := store.NewSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	reg := script.DefaultRegistry()
	tools.Register(reg, cat, nil)
	if model == nil {
		model = llm.NewSim(llm.SimConfig{Seed: 2, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
	}
	return &Runtime{
		Model:     model,
		Catalog:   cat,
		DB:        db,
		Sandbox:   &sandbox.Executor{Registry: reg},
		Session:   sess,
		Retriever: rag.NewRetriever(rag.BuildHACCIndex()),
	}
}

func TestGraphEngine(t *testing.T) {
	g := NewGraph("a")
	var order []string
	g.AddNode("a", func(rt *Runtime, st *State) (string, error) {
		order = append(order, "a")
		return "b", nil
	})
	g.AddNode("b", func(rt *Runtime, st *State) (string, error) {
		order = append(order, "b")
		return "", nil
	})
	if err := g.Run(&Runtime{}, &State{}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Errorf("order = %v", order)
	}
}

func TestGraphLoopGuardAndUnknownNode(t *testing.T) {
	g := NewGraph("a")
	g.AddNode("a", func(rt *Runtime, st *State) (string, error) { return "a", nil })
	if err := g.Run(&Runtime{}, &State{}); err == nil {
		t.Error("routing loop should error")
	}
	g2 := NewGraph("missing")
	if err := g2.Run(&Runtime{}, &State{}); err == nil {
		t.Error("unknown node should error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	rt := testRuntime(t, nil)
	res, err := Run(rt, "Can you find me the top 5 largest friends-of-friends halos from timestep 624 in simulation 1?")
	if err != nil {
		t.Fatal(err)
	}
	if !res.State.Done || res.Answer == nil || res.Answer.NumRows() != 5 {
		t.Fatalf("result = %+v", res.State)
	}
	// The answer holds sim-1 halos only.
	for _, v := range res.Answer.MustColumn("sim").I {
		if v != 1 {
			t.Errorf("answer contains sim %d", v)
		}
	}
	if res.Duration <= 0 {
		t.Error("duration not measured")
	}
}

func TestResolveSimsSteps(t *testing.T) {
	rt := testRuntime(t, nil)
	in := llm.ParseIntent("average fof_halo_mass in simulation 1 at timestep 600 please")
	sims := resolveSims(in, rt.Catalog)
	if len(sims) != 1 || sims[0] != 1 {
		t.Errorf("sims = %v", sims)
	}
	// Step 600 is absent; the nearest available (624) is used.
	steps := resolveSteps(in, rt.Catalog)
	if len(steps) != 1 || steps[0] != 624 {
		t.Errorf("steps = %v", steps)
	}
	// Out-of-range sims fall back to all.
	in2 := llm.ParseIntent("halos in simulation 99")
	if got := resolveSims(in2, rt.Catalog); len(got) != 2 {
		t.Errorf("fallback sims = %v", got)
	}
}

func TestRestoreStateRoundTrip(t *testing.T) {
	st := &State{Question: "q", StepIdx: 3, RedoCount: 2, Staged: map[string][]string{"work": {"a"}}}
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreState(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.StepIdx != 3 || back.Staged["work"][0] != "a" {
		t.Errorf("restored = %+v", back)
	}
	if _, err := RestoreState([]byte("{bad")); err == nil {
		t.Error("bad state should fail")
	}
}

func TestCorrectColumnFor(t *testing.T) {
	col, ok := CorrectColumnFor(`KeyError: column "halo_count" not found`)
	if !ok || col != "fof_halo_count" {
		t.Errorf("hint = %q %v", col, ok)
	}
	col, ok = CorrectColumnFor(`KeyError: column "stellar_mass" not found`)
	if !ok || col != "gal_stellar_mass" {
		t.Errorf("hint = %q %v", col, ok)
	}
	if _, ok := CorrectColumnFor("no quoted identifier here"); ok {
		t.Error("should not hint without identifier")
	}
	// Exact dictionary names are not "truncations".
	if _, ok := CorrectColumnFor(`column "fof_halo_count" broken`); ok {
		t.Error("full name should not produce a hint")
	}
}

func TestFailedRunRoutesToDocumentation(t *testing.T) {
	model := llm.NewSim(llm.SimConfig{Seed: 3, BinaryQA: true, QAFalseNegRate: 0.9999})
	rt := testRuntime(t, model)
	res, err := Run(rt, "Top 5 largest halos at timestep 624 in simulation 0 please")
	var fe *ErrFailed
	if !errors.As(err, &fe) {
		t.Fatalf("want ErrFailed, got %v", err)
	}
	if res.Summary == "" {
		t.Error("failed run should still produce a summary")
	}
	if res.State.RedoCount == 0 {
		t.Error("redo count should reflect QA rejections")
	}
}

func TestInjectContextColumns(t *testing.T) {
	rt := testRuntime(t, nil)
	in := llm.ParseIntent("At timestep 624, slope of stellar-to-halo mass relation as a function of seed mass")
	if !in.ParamCols {
		t.Fatal("intent should request parameter columns")
	}
	res, err := Run(rt, "At timestep 624, slope of the stellar-to-halo mass (SMHM) relation as a function of seed mass?")
	if err != nil {
		t.Fatal(err)
	}
	work, err := rt.DB.ReadTable("work")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"sim", "step", "m_seed"} {
		if !work.Has(want) {
			t.Errorf("work table missing %s: %v", want, work.Names())
		}
	}
	// m_seed must differ between simulations (it is the run parameter).
	seeds := map[string]bool{}
	ms := work.MustColumn("m_seed")
	sims := work.MustColumn("sim")
	for i := 0; i < work.NumRows(); i++ {
		seeds[sims.StringAt(i)+"/"+ms.StringAt(i)] = true
	}
	if len(seeds) != 2 {
		t.Errorf("seed/sim pairs = %v", seeds)
	}
	_ = res
}

// TestRunAnswerOwnsItsVectors: the answer Run returns shares no vector
// with the staged database, whose columns may live in stage buffers the
// run's lease hands back when Run returns.
func TestRunAnswerOwnsItsVectors(t *testing.T) {
	rt := testRuntime(t, nil)
	res, err := Run(rt, "Can you find me the top 5 largest friends-of-friends halos from timestep 624 in simulation 1?")
	if err != nil {
		t.Fatal(err)
	}
	staged, err := rt.DB.ReadTable("analysis")
	if err != nil {
		t.Fatal(err)
	}
	data := func(c *dataframe.Column) unsafe.Pointer {
		switch c.Kind {
		case dataframe.Float:
			return unsafe.Pointer(unsafe.SliceData(c.F))
		case dataframe.Int:
			return unsafe.Pointer(unsafe.SliceData(c.I))
		}
		return unsafe.Pointer(unsafe.SliceData(c.S))
	}
	for _, name := range res.Answer.Names() {
		got, want := res.Answer.MustColumn(name), staged.MustColumn(name)
		if got.Len() > 0 && data(got) == data(want) {
			t.Fatalf("answer column %q aliases the staged table", name)
		}
	}
}
