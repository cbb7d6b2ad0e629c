package tools

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/stage"
	"infera/internal/viz"
)

func testCatalog(t *testing.T) *hacc.Catalog {
	t.Helper()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 250, 450, 624},
		HalosPerRun:      80,
		ParticlesPerStep: 100,
		BoxSize:          128,
		Seed:             11,
	}
	cat, err := hacc.Generate(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func TestTrackHaloSurvivor(t *testing.T) {
	cat := testCatalog(t)
	// Tag 0 is the most massive halo of sim 0 and never merges away.
	results, err := TrackHalo(nil, cat, 0, 0, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(cat.Steps()) {
		t.Fatalf("tracked %d steps, want %d", len(results), len(cat.Steps()))
	}
	for i := 1; i < len(results); i++ {
		if results[i].Value < results[i-1].Value {
			t.Errorf("mass decreased at step %d (mergers only add)", results[i].Step)
		}
		if results[i].Merged {
			t.Errorf("survivor marked merged at step %d", results[i].Step)
		}
	}
	f := TrackFrame(results, "fof_halo_mass")
	if !f.Has("step") || !f.Has("fof_halo_mass") || f.NumRows() != len(results) {
		t.Errorf("track frame = %v", f.Names())
	}
}

func TestTrackHaloThroughMerger(t *testing.T) {
	cat := testCatalog(t)
	tree, err := hacc.Snapshot(cat.Spec, 0, 0, hacc.FileMergerTree)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumRows() == 0 {
		t.Skip("no mergers in this spec")
	}
	victim := tree.MustColumn("victim_tag").I[0]
	target := tree.MustColumn("target_tag").I[0]
	mergeStep := tree.MustColumn("merge_step").I[0]
	results, err := TrackHalo(nil, cat, 0, victim, "fof_halo_mass")
	if err != nil {
		t.Fatal(err)
	}
	sawMerged := false
	for _, r := range results {
		if int64(r.Step) >= mergeStep {
			if !r.Merged || r.Tag != target {
				t.Errorf("step %d: tracking should follow target %d (got tag %d merged=%v)", r.Step, target, r.Tag, r.Merged)
			}
			sawMerged = true
		} else if r.Tag != victim {
			t.Errorf("step %d: expected victim tag %d, got %d", r.Step, victim, r.Tag)
		}
	}
	if !sawMerged {
		t.Error("merger never followed (no step after merge step?)")
	}
}

func TestTrackHaloMissing(t *testing.T) {
	cat := testCatalog(t)
	if _, err := TrackHalo(nil, cat, 0, 999999999, "fof_halo_mass"); err == nil {
		t.Error("unknown halo should fail")
	}
}

func TestNeighborhood(t *testing.T) {
	cat := testCatalog(t)
	f, err := Neighborhood(nil, cat, 0, 624, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() < 1 {
		t.Fatal("neighborhood empty")
	}
	if f.MustColumn("is_target").I[0] != 1 || f.MustColumn("fof_halo_tag").I[0] != 0 {
		t.Error("target not first/flagged")
	}
	// All neighbours within radius (periodic distance).
	xs := f.MustColumn("fof_halo_center_x").F
	ys := f.MustColumn("fof_halo_center_y").F
	zs := f.MustColumn("fof_halo_center_z").F
	for i := 1; i < f.NumRows(); i++ {
		dx := pbc(xs[i]-xs[0], cat.Spec.BoxSize)
		dy := pbc(ys[i]-ys[0], cat.Spec.BoxSize)
		dz := pbc(zs[i]-zs[0], cat.Spec.BoxSize)
		if d := math.Sqrt(dx*dx + dy*dy + dz*dz); d > 20 {
			t.Errorf("neighbour %d at distance %.1f > 20", i, d)
		}
	}
	if _, err := Neighborhood(nil, cat, 0, 624, 999999999, 20); err == nil {
		t.Error("unknown target should fail")
	}
}

func TestPBC(t *testing.T) {
	if d := pbc(120, 128); d != -8 {
		t.Errorf("pbc(120,128) = %v", d)
	}
	if d := pbc(-120, 128); d != 8 {
		t.Errorf("pbc(-120,128) = %v", d)
	}
	if d := pbc(5, 128); d != 5 {
		t.Errorf("pbc(5,128) = %v", d)
	}
}

func TestRegisteredToolsInSandbox(t *testing.T) {
	cat := testCatalog(t)
	reg := script.DefaultRegistry()
	Register(reg, cat, nil)
	ex := &sandbox.Executor{Registry: reg}
	res := ex.Exec(`
tracked = track_halo(0, 0, "fof_halo_count")
line_plot(tracked, "step", ["fof_halo_count"], "largest halo growth", "growth.svg")
nb = halo_neighborhood(0, 624, 0, 20)
paraview_scene(nb, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "is_target", "scene.vtk")
result(tracked)
`, nil)
	if !res.OK {
		t.Fatalf("exec failed: %s", res.Error)
	}
	if _, ok := res.Artifacts["growth.svg"]; !ok {
		t.Error("growth.svg missing")
	}
	vtk, ok := res.Artifacts["scene.vtk"]
	if !ok {
		t.Fatal("scene.vtk missing")
	}
	if !strings.Contains(string(vtk), "DATASET POLYDATA") {
		t.Error("scene.vtk is not VTK polydata")
	}
	if !strings.Contains(string(vtk), "SCALARS highlight") {
		t.Error("scene.vtk missing highlight array")
	}
}

func TestSceneFromFrameErrors(t *testing.T) {
	cat := testCatalog(t)
	f, err := Neighborhood(nil, cat, 0, 624, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SceneFromFrame(f, "nope", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", ""); err == nil {
		t.Error("bad column should fail")
	}
	pts, err := SceneFromFrame(f, "fof_halo_center_x", "fof_halo_center_y", "fof_halo_center_z", "fof_halo_mass", "")
	if err != nil || len(pts) != f.NumRows() {
		t.Errorf("scene points = %d, %v", len(pts), err)
	}
	_ = viz.WriteVTK("t", pts)
}

// TestToolsKeepAnswersOverRecycledBuffers runs every tool twice over a
// 2 MB stage budget, far below the 4 MB of halo columns the calls read, so
// the columns are decoded into free-list buffers (8192 rows is above the
// list's smallest class), evicted and recycled between calls. Every result
// must equal the same call's over the default budget, where nothing is
// evicted. TestMain poisons each buffer that goes back to the free
// list, so a result still aliasing a staged vector after its call ended
// would change.
func TestToolsKeepAnswersOverRecycledBuffers(t *testing.T) {
	spec := hacc.Spec{Runs: 2, Steps: []int{99, 250, 450, 624}, HalosPerRun: 8192, ParticlesPerStep: 100, BoxSize: 128, Seed: 11}
	cat, err := hacc.Generate(t.TempDir(), spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(sc *stage.Cache) []any {
		var out []any
		for round := 0; round < 2; round++ {
			for sim := 0; sim < spec.Runs; sim++ {
				// Track the most massive halo of the last step.
				tag, err := NthMostMassiveTag(sc, cat, sim, 624, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, metric := range []string{"fof_halo_mass", "fof_halo_count", "fof_halo_ke", "sod_halo_M500c"} {
					tr, err := TrackHalo(sc, cat, sim, tag, metric)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, tr)
				}
			}
			for sim := 0; sim < spec.Runs; sim++ {
				for _, step := range spec.Steps {
					tag, err := NthMostMassiveTag(sc, cat, sim, step, 1)
					if err != nil {
						t.Fatal(err)
					}
					f, err := Neighborhood(sc, cat, sim, step, tag, 10)
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, tag, f)
				}
			}
		}
		return out
	}
	small := stage.New(2<<20, 0)
	got := run(small)
	want := run(stage.New(stage.DefaultBudgetBytes, 0))
	if st := small.Stats(); st.RecycledBytes == 0 {
		t.Fatalf("no buffer was recycled over the 2 MB budget: %+v", st)
	}
	for i := range want {
		same := false
		switch w := want[i].(type) {
		case *dataframe.Frame:
			same = dataframe.Equal(got[i].(*dataframe.Frame), w)
		default:
			same = reflect.DeepEqual(got[i], w)
		}
		if !same {
			t.Fatalf("call %d over a 2 MB budget differs from the default budget's:\n got: %v\nwant: %v", i, got[i], want[i])
		}
	}
}
