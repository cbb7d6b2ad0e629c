package sandbox

import (
	"bytes"
	"path/filepath"
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

// TestExecNeedsNoTempDir runs a script that saves a CSV and a plot with
// TMPDIR naming a directory that does not exist: a script's files live in
// memory, so the answer and its artifacts come back all the same.
func TestExecNeedsNoTempDir(t *testing.T) {
	t.Setenv("TMPDIR", filepath.Join(t.TempDir(), "missing"))
	res := (&Executor{}).Exec(`
h = load_table("halos")
save_csv(h, "copy.csv")
scatter_plot(h, "fof_halo_tag", "fof_halo_mass", "masses", "scatter.svg")
back = read_csv("copy.csv")
result(back)
`, map[string]*dataframe.Frame{"halos": halosFrame()})
	if !res.OK {
		t.Fatalf("exec failed: %s", res.Error)
	}
	if res.Frame.NumRows() != 3 {
		t.Errorf("frame rows = %d, want 3", res.Frame.NumRows())
	}
	var want bytes.Buffer
	if err := halosFrame().WriteCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Artifacts["copy.csv"], want.Bytes()) {
		t.Errorf("copy.csv = %q, want %q", res.Artifacts["copy.csv"], want.Bytes())
	}
	if !bytes.HasPrefix(res.Artifacts["scatter.svg"], []byte("<svg")) {
		t.Errorf("scatter.svg = %.40q", res.Artifacts["scatter.svg"])
	}
}

// BenchmarkExec is one typical analysis script end to end on the executor
// every ask uses: load a 2,000-row table, sort it, take the head, save it
// as CSV and plot it.
func BenchmarkExec(b *testing.B) {
	const n = 2000
	tags := make([]int64, n)
	mass := make([]float64, n)
	for i := range tags {
		tags[i] = int64(i)
		mass[i] = float64((i*7919)%n) * 1e11
	}
	tables := map[string]*dataframe.Frame{"halos": dataframe.MustFromColumns(
		dataframe.NewInt("fof_halo_tag", tags),
		dataframe.NewFloat("fof_halo_mass", mass),
	).MarkShared()}
	const code = `
h = load_table("halos")
top = head(sort(h, "fof_halo_mass", true), 100)
save_csv(top, "top.csv")
scatter_plot(top, "fof_halo_tag", "fof_halo_mass", "top halos", "top.svg")
result(top)
`
	ex := &Executor{Limits: DefaultLimits()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if res := ex.Exec(code, tables); !res.OK {
			b.Fatal(res.Error)
		}
	}
}
