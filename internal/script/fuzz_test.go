package script

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzBudgets bounds fuzzed executions so a generated loop of huge list
// literals finishes in microseconds instead of minutes. No wall deadline:
// wall-clock overruns depend on timing and would make two runs of one
// input diverge nondeterministically.
func fuzzBudgets() Budgets {
	return Budgets{
		MaxFuel:          100_000,
		MaxMemBytes:      1 << 26, // 64 MiB
		MaxArtifactBytes: 1 << 20, // 1 MiB
		MaxStdoutLines:   64,
	}
}

// fuzzWorkDir seeds a workdir with one small CSV so load_table has
// something real to read.
func fuzzWorkDir(tb testing.TB) string {
	tb.Helper()
	dir := tb.TempDir()
	csv := "x,y,name\n1,10.5,a\n2,-3,b\n3,0,c\n4,7.25,d\n"
	if err := os.WriteFile(filepath.Join(dir, "work.csv"), []byte(csv), 0o644); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// runOnce parses and runs src under fuzzBudgets in a fresh environment
// over a fresh work dir and returns the env and the error.
func runOnce(tb testing.TB, src string) (*Env, error) {
	tb.Helper()
	env := NewEnv(DefaultRegistry(), fuzzWorkDir(tb))
	env.Budgets = fuzzBudgets()
	prog, err := Parse(src)
	if err != nil {
		return env, err
	}
	return env, prog.Run(env)
}

// valuesEqual compares two script values structurally (frames by cell).
func valuesEqual(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindFrame:
		if (a.Frame == nil) != (b.Frame == nil) {
			return false
		}
		return a.Frame == nil || a.Frame.String() == b.Frame.String()
	case KindNum:
		// NaN-safe: compare the rendered form.
		return a.String() == b.String()
	case KindStr:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	case KindList:
		if len(a.List) != len(b.List) {
			return false
		}
		for i := range a.List {
			if !valuesEqual(a.List[i], b.List[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// assertRunsAgree fails the test if two runs of one script diverged in
// any observable way: error text, fuel, variables, result frame,
// artifacts or stdout.
func assertRunsAgree(t *testing.T, src string, aEnv, bEnv *Env, aErr, bErr error) {
	t.Helper()
	if (aErr == nil) != (bErr == nil) {
		t.Fatalf("error divergence on %q:\n  first:  %v\n  second: %v", src, aErr, bErr)
	}
	if aErr != nil && aErr.Error() != bErr.Error() {
		t.Fatalf("error text divergence on %q:\n  first:  %v\n  second: %v", src, aErr, bErr)
	}
	if aEnv.FuelUsed != bEnv.FuelUsed {
		t.Fatalf("fuel divergence on %q: first=%d second=%d", src, aEnv.FuelUsed, bEnv.FuelUsed)
	}
	if len(aEnv.Vars) != len(bEnv.Vars) {
		t.Fatalf("var count divergence on %q: first=%d second=%d", src, len(aEnv.Vars), len(bEnv.Vars))
	}
	for name, av := range aEnv.Vars {
		bv, ok := bEnv.Vars[name]
		if !ok || !valuesEqual(av, bv) {
			t.Fatalf("var %q divergence on %q:\n  first:  %v\n  second: %v", name, src, av, bv)
		}
	}
	if (aEnv.Result == nil) != (bEnv.Result == nil) {
		t.Fatalf("result divergence on %q", src)
	}
	if aEnv.Result != nil && aEnv.Result.String() != bEnv.Result.String() {
		t.Fatalf("result frame divergence on %q:\n%v\nvs\n%v", src, aEnv.Result, bEnv.Result)
	}
	if len(aEnv.Stdout) != len(bEnv.Stdout) {
		t.Fatalf("stdout divergence on %q: %v vs %v", src, aEnv.Stdout, bEnv.Stdout)
	}
	for i := range aEnv.Stdout {
		if aEnv.Stdout[i] != bEnv.Stdout[i] {
			t.Fatalf("stdout line %d divergence on %q: %q vs %q", i, src, aEnv.Stdout[i], bEnv.Stdout[i])
		}
	}
	if len(aEnv.Artifacts) != len(bEnv.Artifacts) {
		t.Fatalf("artifact count divergence on %q", src)
	}
	for name, ad := range aEnv.Artifacts {
		bd, ok := bEnv.Artifacts[name]
		if !ok || string(ad) != string(bd) {
			t.Fatalf("artifact %q divergence on %q", name, src)
		}
	}
}

var fuzzScriptSeeds = []string{
	`w = load_table("work")` + "\n" + `top = head(sort(w, "x", true), 2)` + "\n" + `result(top)`,
	`w = load_table("work")` + "\n" + `f = filter_gt(w, "y", 0)` + "\n" + `save_csv(f, "out.csv")` + "\n" + `result(f)`,
	`print("hello", 1, true, [1, 2, "x"])`,
	`x = [1, [2, [3, [4]]], "deep"]` + "\n" + `print(x)`,
	`w = load_table("work")` + "\n" + `s = scatter_plot(w, "x", "y", "t", "p.svg")`,
	`mean([1, 2, 3, 4])`,
	`result(head(load_table("work"), 1))`,
	`x = undefined_variable`,
	`nosuchfn(1, 2)`,
	`x = [` + "\n",
	`x = ((((((1))))))`,
	`# comment only`,
	``,
	`x = -1.5e300` + "\n" + `y = [x, x, x]`,
	`"bare string"`,
	`w = load_table("missing_table")`,
	// Past the stdout cap of fuzzBudgets by one line.
	strings.Repeat("print(1)\n", 65),
	// Sixteen doublings of the 4-row table charge more row cost than the
	// fuel cap.
	`w = load_table("work")` + strings.Repeat("\n"+`w = concat(w, w)`, 16),
}

// FuzzScriptParse asserts the parser never panics and depth-bounds its
// recursion on arbitrary input.
func FuzzScriptParse(f *testing.F) {
	for _, s := range fuzzScriptSeeds {
		f.Add(s)
	}
	// The known crasher class: unbounded expression nesting.
	deep := ""
	for i := 0; i < 500; i++ {
		deep += "["
	}
	f.Add("x = " + deep)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err == nil && prog == nil {
			t.Fatal("nil program without error")
		}
	})
}

// FuzzScriptRun executes arbitrary programs under a budget and asserts no
// panic, that a second run in a fresh environment observes exactly what
// the first did, and that every budget holds.
func FuzzScriptRun(f *testing.F) {
	for _, s := range fuzzScriptSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return // budgeted elsewhere; keep per-input cost bounded
		}
		env, err := runOnce(t, src)
		again, againErr := runOnce(t, src)
		assertRunsAgree(t, src, env, again, err, againErr)
		assertWithinBudgets(t, src, env, err)
	})
}

// assertWithinBudgets fails the test if a run went past one of its
// budgets without stopping on that budget's error. Fuel and tracked memory
// are charged before they are checked, so they may end past their caps,
// but only in a run that failed with the matching BudgetError; stdout
// lines and stored artifact bytes are checked before they are kept and
// never exceed their caps.
func assertWithinBudgets(t *testing.T, src string, env *Env, err error) {
	t.Helper()
	b := env.Budgets
	var be *BudgetError
	stopped := func(kind string) bool { return errors.As(err, &be) && be.Kind == kind }
	if env.FuelUsed > b.MaxFuel && !stopped(BudgetFuel) {
		t.Fatalf("fuel %d past its cap %d without a fuel error (err=%v) on %q", env.FuelUsed, b.MaxFuel, err, src)
	}
	if env.MemUsed > b.MaxMemBytes && !stopped(BudgetMem) {
		t.Fatalf("memory %d past its cap %d without a memory error (err=%v) on %q", env.MemUsed, b.MaxMemBytes, err, src)
	}
	if len(env.Stdout) > b.MaxStdoutLines {
		t.Fatalf("%d stdout lines past the cap %d on %q", len(env.Stdout), b.MaxStdoutLines, src)
	}
	var stored int64
	for _, data := range env.Artifacts {
		stored += int64(len(data))
	}
	if stored > b.MaxArtifactBytes {
		t.Fatalf("%d artifact bytes stored past the cap %d on %q", stored, b.MaxArtifactBytes, src)
	}
}
