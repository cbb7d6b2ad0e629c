package script

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"infera/internal/dataframe"
)

// testEnv builds an env whose sandbox contains a halos.csv table.
func testEnv(t *testing.T) *Env {
	t.Helper()
	dir := t.TempDir()
	f := dataframe.MustFromColumns(
		dataframe.NewInt("fof_halo_tag", []int64{1, 2, 3, 4}),
		dataframe.NewInt("sim", []int64{0, 0, 1, 1}),
		dataframe.NewFloat("fof_halo_mass", []float64{4e14, 1e14, 3e14, 2e14}),
		dataframe.NewFloat("fof_halo_vel_disp", []float64{800, 400, 700, 500}),
	)
	var sb strings.Builder
	if err := f.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "halos.csv"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return NewEnv(DefaultRegistry(), dir)
}

func run(t *testing.T, env *Env, src string) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := prog.Run(env); err != nil {
		t.Fatalf("run: %v\nscript:\n%s", err, src)
	}
}

func runErr(t *testing.T, env *Env, src string) error {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		return err
	}
	return prog.Run(env)
}

func TestLoadFilterSortHead(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
halos = load_table("halos")
big = filter_gt(halos, "fof_halo_mass", 1.5e14)
top = head(sort(big, "fof_halo_mass", true), 2)
result(top)
`)
	if env.Result == nil || env.Result.NumRows() != 2 {
		t.Fatalf("result = %v", env.Result)
	}
	if env.Result.MustColumn("fof_halo_tag").I[0] != 1 {
		t.Errorf("top halo = %v", env.Result.MustColumn("fof_halo_tag").I)
	}
}

func TestDeriveAndGroup(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
halos = load_table("halos")
halos = derive_log10(halos, "log_mass", "fof_halo_mass")
halos = derive_ratio(halos, "ratio", "fof_halo_mass", "fof_halo_vel_disp")
bysim = groupby(halos, ["sim"], "fof_halo_mass", "mean", "mean_mass")
result(bysim)
`)
	if env.Result.NumRows() != 2 {
		t.Fatalf("groups = %d", env.Result.NumRows())
	}
	if m := env.Result.MustColumn("mean_mass").F[0]; m != 2.5e14 {
		t.Errorf("mean sim0 = %v", m)
	}
}

func TestLinfitAndPlots(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
halos = load_table("halos")
halos = derive_log10(halos, "lm", "fof_halo_mass")
halos = derive_log10(halos, "lv", "fof_halo_vel_disp")
fit = linfit(halos, "lm", "lv")
scatter_plot(halos, "lm", "lv", "mass vs dispersion", "scatter.svg")
line_plot_by(halos, "fof_halo_tag", "fof_halo_mass", "sim", "mass by sim", "line.svg")
hist_plot(halos, "fof_halo_mass", 4, "mass function", "hist.svg")
save_csv(fit, "fit.csv")
result(fit)
`)
	if env.Result == nil || !env.Result.Has("slope") {
		t.Fatal("fit result missing")
	}
	for _, name := range []string{"scatter.svg", "line.svg", "hist.svg", "fit.csv"} {
		if _, ok := env.Artifacts[name]; !ok {
			t.Errorf("artifact %s missing", name)
		}
	}
	if !strings.Contains(string(env.Artifacts["scatter.svg"]), "<svg") {
		t.Error("scatter.svg is not SVG")
	}
}

func TestUMAPAndZScore(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
halos = load_table("halos")
halos = zscore_sum(halos, "interestingness", ["fof_halo_mass", "fof_halo_vel_disp"])
halos = umap2d(halos, ["fof_halo_mass", "fof_halo_vel_disp"])
halos = sort(halos, "interestingness", true)
scatter_plot_highlight(halos, "umap_x", "umap_y", 2, "interesting halos", "umap.svg")
result(halos)
`)
	if !env.Result.Has("umap_x") || !env.Result.Has("interestingness") {
		t.Fatalf("columns = %v", env.Result.Names())
	}
	if _, ok := env.Artifacts["umap.svg"]; !ok {
		t.Error("umap plot missing")
	}
}

func TestJoinConcatDistinct(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
halos = load_table("halos")
a = filter_eq(halos, "sim", 0)
b = filter_eq(halos, "sim", 1)
both = concat(a, b)
sims = distinct(both, ["sim"])
joined = join(a, b, "sim")
result(sims)
`)
	if env.Result.NumRows() != 2 {
		t.Errorf("distinct sims = %d", env.Result.NumRows())
	}
}

func TestErrorMessagesArePythonLike(t *testing.T) {
	env := testEnv(t)
	cases := []struct {
		src  string
		want string
	}{
		{`x = undefined_var`, "NameError"},
		{`x = no_such_fn(1)`, "NameError"},
		{`h = load_table("halos")` + "\n" + `y = filter_gt(h, "halo_mass", 1)`, "KeyError"},
		{`h = load_table("nope")`, "KeyError"},
		{`h = load_table("halos")` + "\n" + `y = head(h)`, "TypeError"},
		{`h = load_table("halos")` + "\n" + `y = head("h", 2)`, "TypeError"},
		{`x = read_csv("../../etc/passwd")`, "PermissionError"},
		{`x = (`, "SyntaxError"},
		{`x = load_table("halos"`, "SyntaxError"},
	}
	for _, c := range cases {
		err := runErr(t, env, c.src)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("script %q error = %v, want %q", c.src, err, c.want)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	env := testEnv(t)
	err := runErr(t, env, "h = load_table(\"halos\")\n\nx = missing_fn(h)")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error = %v, want line 3", err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
# load the halo table
h = load_table("halos")  # trailing comment is fine in lexer? no - hash starts comment
result(h)
`)
	if env.Result == nil {
		t.Fatal("result not set")
	}
}

func TestPrintCollectsStdout(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
h = load_table("halos")
n = nrows(h)
print("rows", n)
result(h)
`)
	if len(env.Stdout) != 1 || !strings.Contains(env.Stdout[0], "rows 4") {
		t.Errorf("stdout = %v", env.Stdout)
	}
}

func TestSandboxEscapeBlockedOnWrite(t *testing.T) {
	env := testEnv(t)
	err := runErr(t, env, `
h = load_table("halos")
save_csv(h, "../escape.csv")
`)
	if err == nil || !strings.Contains(err.Error(), "PermissionError") {
		t.Errorf("err = %v", err)
	}
}

func TestCorrMatrixBuiltin(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
h = load_table("halos")
m = corr_matrix(h, ["fof_halo_mass", "fof_halo_vel_disp"])
result(m)
`)
	if env.Result.NumRows() != 2 || !env.Result.Has("corr_fof_halo_mass") {
		t.Errorf("corr matrix = %v", env.Result.Names())
	}
}

func TestFilterVariants(t *testing.T) {
	env := testEnv(t)
	run(t, env, `
h = load_table("halos")
a = filter_in(h, "fof_halo_tag", [1, 3])
b = filter_ne(h, "sim", 0)
c = filter_le(h, "fof_halo_mass", 2e14)
d = filter_ge(h, "fof_halo_mass", 3e14)
e = filter_lt(h, "fof_halo_mass", 1.5e14)
result(a)
`)
	if env.Result.NumRows() != 2 {
		t.Errorf("filter_in rows = %d", env.Result.NumRows())
	}
}

func TestSourceRoundTrip(t *testing.T) {
	src := `h = load_table("halos")`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Source() != src {
		t.Error("Source() mismatch")
	}
}

// TestBudgetErrorsAndFuel pins where each budget stops a script: the
// error text, with the line that crossed it, and the fuel spent by then.
func TestBudgetErrorsAndFuel(t *testing.T) {
	src := `x = [1, 2, 3, 4, 5, 6, 7, 8]` + "\n" +
		`y = [x, x, x, x]` + "\n" +
		`z = [y, y, y, y]` + "\n" +
		`print(z)`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		budgets Budgets
		wantErr string
		fuel    int64
	}{
		// x's list node and its 8 literals cost 9, then y's list node
		// costs 1 and its first element crosses 10.
		{Budgets{MaxFuel: 10}, "line 2: TimeoutError: script exceeded its instruction budget (fuel=10)", 11},
		// The three assignments cost 19, print's call node 1, its argument
		// 1 more.
		{Budgets{MaxFuel: 20}, "line 4: TimeoutError: script exceeded its instruction budget (fuel=20)", 21},
		// x alone is 24 + 8*16 = 152 tracked bytes.
		{Budgets{MaxMemBytes: 64}, "line 1: MemoryError: script exceeded its memory budget (64 bytes)", 9},
		// y adds 24 + 4*152 = 632.
		{Budgets{MaxMemBytes: 700}, "line 2: MemoryError: script exceeded its memory budget (700 bytes)", 14},
	} {
		env := NewEnv(DefaultRegistry(), t.TempDir())
		env.Budgets = tc.budgets
		err := prog.Run(env)
		var be *BudgetError
		if !errors.As(err, &be) || err.Error() != tc.wantErr {
			t.Errorf("budgets %+v: err = %v, want BudgetError %q", tc.budgets, err, tc.wantErr)
		}
		if env.FuelUsed != tc.fuel {
			t.Errorf("budgets %+v: fuel %d, want %d", tc.budgets, env.FuelUsed, tc.fuel)
		}
	}
}

// TestParserDepthBound locks in the recursion guard: a pathological
// one-liner fails with a SyntaxError instead of a stack overflow.
func TestParserDepthBound(t *testing.T) {
	deep := "x = " + strings.Repeat("[", 100_000)
	_, err := Parse(deep)
	if err == nil || !strings.Contains(err.Error(), "too deeply nested") {
		t.Fatalf("err = %v, want nesting SyntaxError", err)
	}
	// A legal nesting below the bound still parses.
	ok := "x = " + strings.Repeat("[", 50) + "1" + strings.Repeat("]", 50)
	if _, err := Parse(ok); err != nil {
		t.Fatalf("depth-50 literal rejected: %v", err)
	}
}
