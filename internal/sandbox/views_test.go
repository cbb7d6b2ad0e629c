package sandbox

import (
	"math"
	"strings"
	"sync"
	"testing"

	"infera/internal/dataframe"
	"infera/internal/script"
)

// everyBuiltinScript calls every function of script.DefaultRegistry at
// least once on frames that share the input tables' vectors
// (TestExecLeavesSharedTablesUntouched checks the "every").
const everyBuiltinScript = `
h = load_table("halos")
g = read_csv("gals.csv")
print(nrows(h), nrows(g))
s = select(h, ["tag", "mass", "sim"])
r = rename(s, "mass", "m")
o = head(sort(h, "mass", true), 4)
j = join(h, g, "tag")
c = concat(h, h)
by = groupby(h, ["sim"], "mass", "mean", "mean_mass")
d = distinct(h, ["sim"])
f1 = filter_gt(h, "mass", 2)
f2 = filter_ge(h, "mass", 2)
f3 = filter_lt(h, "mass", 2)
f4 = filter_le(h, "mass", 2)
f5 = filter_eq(h, "name", "b")
f6 = filter_ne(h, "sim", 0)
f7 = filter_in(h, "tag", [1, 3])
a1 = derive_ratio(h, "q", "mass", "vd")
a2 = derive_product(h, "q", "mass", "vd")
a3 = derive_sum(h, "q", "mass", "vd")
a4 = derive_sub(h, "q", "mass", "vd")
a5 = derive_log10(h, "lm", "mass")
a6 = derive_abs(h, "mass", "vx")
a7 = derive_scale(h, "mass", "mass", 0)
a8 = derive_const(h, "vx", 7)
a9 = derive_zscore(h, "z", "mass")
a10 = derive_mag3(h, "v", "vx", "vy", "vz")
l1 = linfit(h, "mass", "vd")
l2 = linfit_by(h, "sim", "mass", "vd")
print(corr(h, "mass", "vd"))
cm = corr_matrix(h, ["mass", "vd", "vx"])
z = zscore_sum(h, "score", ["mass", "vd"])
u = umap2d(z, ["mass", "vd", "vz"])
hg = histogram(h, "mass", 3)
sj = semi_join(h, g, "tag")
tg = top_per_group(h, "sim", "mass", 2)
gm = groupby_multi(h, ["sim"], ["mass", "vd"], ["max", "mean"], ["max_mass", "mean_vd"])
line_plot(h, "tag", ["mass", "vd"], "t", "line.svg")
line_plot_by(h, "tag", "mass", "sim", "t", "lineby.svg")
scatter_plot(h, "mass", "vd", "t", "scatter.svg")
scatter_plot_highlight(u, "umap_x", "umap_y", 2, "t", "umap.svg")
hist_plot(h, "mass", 3, "t", "hist.svg")
save_csv(a7, "scaled.csv")
result(concat(a7, a7))
`

func viewTestTables() map[string]*dataframe.Frame {
	halos := dataframe.MustFromColumns(
		dataframe.NewInt("tag", []int64{1, 2, 3, 4, 5, 6}),
		dataframe.NewFloat("mass", []float64{1, 2, 3, 4, 5, 6}), // reads back Int
		dataframe.NewFloat("vd", []float64{110.5, 220.25, 290, 405.5, 498, 610.75}),
		dataframe.NewFloat("vx", []float64{-1.5, 2, -3.25, 4, 0.5, math.NaN()}),
		dataframe.NewFloat("vy", []float64{1e6, -2e6, 3e21, 4, 5, 6}),
		dataframe.NewFloat("vz", []float64{0.25, 0.5, 0.75, 1, 1.25, 1.5}),
		dataframe.NewInt("sim", []int64{0, 0, 0, 1, 1, 1}),
		dataframe.NewString("name", []string{"a", "b", "c", "d, e", `"f"`, ""}),
		dataframe.NewString("code", []string{"1", "2", "3", "4", "5", "6"}), // reads back Int
	)
	gals := dataframe.MustFromColumns(
		dataframe.NewInt("tag", []int64{1, 1, 3, 9}),
		dataframe.NewFloat("mstar", []float64{1e9, 2.5e9, 3e9, 4e9}),
	)
	// halos as the agent hands tables over — shells over the DB's resident
	// vectors, marked shared before anyone reads them — and gals unmarked: a
	// view that marked its source would race with the other Exec's reads.
	return map[string]*dataframe.Frame{"halos": halos.MarkShared(), "gals": gals}
}

// sameBits reports whether two frames have the same columns over the same
// cell bits (NaN payloads included).
func sameBits(t *testing.T, what string, got, want *dataframe.Frame) {
	t.Helper()
	if got.NumCols() != want.NumCols() {
		t.Fatalf("%s: %d columns, want %d", what, got.NumCols(), want.NumCols())
	}
	for j := 0; j < want.NumCols(); j++ {
		g, w := got.ColumnAt(j), want.ColumnAt(j)
		if g.Name != w.Name || g.Kind != w.Kind || g.Len() != w.Len() || g.IsShared() != w.IsShared() {
			t.Fatalf("%s: column %d is %q %s[%d] shared=%v, want %q %s[%d] shared=%v", what, j,
				g.Name, g.Kind, g.Len(), g.IsShared(), w.Name, w.Kind, w.Len(), w.IsShared())
		}
		for r := 0; r < w.Len(); r++ {
			same := g.Value(r) == w.Value(r)
			if w.Kind == dataframe.Float {
				same = math.Float64bits(g.F[r]) == math.Float64bits(w.F[r])
			}
			if !same {
				t.Errorf("%s: column %q row %d is %v, want %v", what, w.Name, r, g.Value(r), w.Value(r))
			}
		}
	}
}

// Isolation by immutability: two executions sharing one set of input
// tables, each driving every builtin over views of them, leave every source
// vector bit-identical — and, under -race, never write where the other
// reads.
func TestExecLeavesSharedTablesUntouched(t *testing.T) {
	for name := range script.DefaultRegistry() {
		if !strings.Contains(everyBuiltinScript, name+"(") {
			t.Errorf("everyBuiltinScript does not call %s", name)
		}
	}
	tables := viewTestTables()
	pristine := map[string]*dataframe.Frame{}
	for name, f := range tables {
		cp := f.Clone()
		for j := 0; j < f.NumCols(); j++ {
			if f.ColumnAt(j).IsShared() {
				cp.ColumnAt(j).MarkShared()
			}
		}
		pristine[name] = cp
	}

	results := make([]Result, 2)
	var wg sync.WaitGroup
	for i, backend := range []string{BackendVM, BackendTreeWalk} {
		wg.Add(1)
		go func(i int, backend string) {
			defer wg.Done()
			ex := &Executor{Limits: DefaultLimits(), Backend: backend}
			results[i] = ex.Exec(everyBuiltinScript, tables)
		}(i, backend)
	}
	wg.Wait()

	for i, res := range results {
		if !res.OK {
			t.Fatalf("exec %d: %s", i, res.Error)
		}
		// derive_scale(.., 0) over the shared "mass" vector built a new column.
		if res.Frame.NumRows() != 12 || res.Frame.MustColumn("mass").F[0] != 0 {
			t.Errorf("exec %d: result = %v", i, res.Frame)
		}
	}
	if results[0].FuelUsed != results[1].FuelUsed {
		t.Errorf("fuel differs between the two executions: %d vs %d", results[0].FuelUsed, results[1].FuelUsed)
	}
	for name, want := range pristine {
		sameBits(t, "table "+name, tables[name], want)
	}
}

// What load_table hands the script is what parsing the table's CSV gave it:
// kinds re-inferred, cells equal.
func TestExecLoadsTheCanonicalView(t *testing.T) {
	ex := &Executor{}
	res := ex.Exec(`result(load_table("halos"))`, viewTestTables())
	if !res.OK {
		t.Fatal(res.Error)
	}
	for col, want := range map[string]dataframe.Kind{
		"tag": dataframe.Int, "mass": dataframe.Int, "vd": dataframe.Float, "vy": dataframe.Float,
		"name": dataframe.String, "code": dataframe.Int,
	} {
		if got := res.Frame.MustColumn(col).Kind; got != want {
			t.Errorf("column %q loaded as %s, want %s", col, got, want)
		}
	}
}

// A file the script wrote shadows the input table of the same name, as it
// did when the table was itself a file in the working directory.
func TestExecSavedFileShadowsTable(t *testing.T) {
	ex := &Executor{}
	res := ex.Exec(`
h = load_table("halos")
save_csv(head(h, 2), "halos.csv")
print(nrows(load_table("halos")), nrows(read_csv("./halos.csv")), nrows(load_table("gals")))
`, viewTestTables())
	if !res.OK {
		t.Fatal(res.Error)
	}
	if len(res.Stdout) != 1 || res.Stdout[0] != "2 2 4" {
		t.Errorf("stdout = %q, want [\"2 2 4\"]", res.Stdout)
	}
}
