package sandbox

import (
	"strings"
	"testing"

	"infera/internal/dataframe"
)

func halosFrame() *dataframe.Frame {
	return dataframe.MustFromColumns(
		dataframe.NewInt("fof_halo_tag", []int64{1, 2, 3}),
		dataframe.NewFloat("fof_halo_mass", []float64{3e14, 2e14, 1e14}),
	)
}

func TestExecutorRunsAndReturnsFrame(t *testing.T) {
	ex := &Executor{}
	res := ex.Exec(`
h = load_table("halos")
top = head(sort(h, "fof_halo_mass", true), 2)
result(top)
`, map[string]*dataframe.Frame{"halos": halosFrame()})
	if !res.OK {
		t.Fatalf("exec failed: %s", res.Error)
	}
	if res.Frame.NumRows() != 2 || res.Frame.MustColumn("fof_halo_tag").I[0] != 1 {
		t.Errorf("frame = %v", res.Frame)
	}
	if !strings.Contains(res.Preview(), "result frame: 2 rows") {
		t.Errorf("preview = %q", res.Preview())
	}
}

func TestExecutorInputIsolation(t *testing.T) {
	// The code must not be able to modify the caller's frame.
	ex := &Executor{}
	orig := halosFrame()
	res := ex.Exec(`
h = load_table("halos")
h = derive_scale(h, "fof_halo_mass", "fof_halo_mass", 0)
result(h)
`, map[string]*dataframe.Frame{"halos": orig})
	if !res.OK {
		t.Fatal(res.Error)
	}
	if orig.MustColumn("fof_halo_mass").F[0] != 3e14 {
		t.Error("sandbox mutated the original frame")
	}
	if res.Frame.MustColumn("fof_halo_mass").F[0] != 0 {
		t.Error("derived result wrong")
	}
}

func TestExecutorReportsErrors(t *testing.T) {
	ex := &Executor{}
	res := ex.Exec(`h = load_table("halos")`+"\n"+`x = filter_gt(h, "halo_mass", 1)`,
		map[string]*dataframe.Frame{"halos": halosFrame()})
	if res.OK {
		t.Fatal("expected failure")
	}
	if !strings.Contains(res.Error, "KeyError") || !strings.Contains(res.Error, "line 2") {
		t.Errorf("error = %q", res.Error)
	}
	if !strings.Contains(res.Preview(), "ERROR") {
		t.Errorf("preview = %q", res.Preview())
	}
}

// TestServerClientRoundTrip runs a whole request on the executor that
// serves every ask: script and input tables in, result frame and the
// script's artifacts out.
func TestServerClientRoundTrip(t *testing.T) {
	ex := &Executor{}
	res := ex.Exec(`
h = load_table("halos")
save_csv(h, "copy.csv")
hist_plot(h, "fof_halo_mass", 3, "masses", "hist.svg")
result(h)
`, map[string]*dataframe.Frame{"halos": halosFrame()})
	if !res.OK {
		t.Fatalf("exec failed: %s", res.Error)
	}
	if res.Frame.NumRows() != 3 {
		t.Errorf("frame rows = %d", res.Frame.NumRows())
	}
	for _, name := range []string{"copy.csv", "hist.svg"} {
		if len(res.Artifacts[name]) == 0 {
			t.Errorf("artifact %s missing", name)
		}
	}
}
