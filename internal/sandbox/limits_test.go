package sandbox

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/dataframe"
	"infera/internal/script"
	"infera/internal/telemetry"
)

// bigListScript builds a single statement whose evaluation charges well
// over wallCheckInterval fuel, so wall-clock deadlines are observed even
// though the DSL has no loops.
func bigListScript(n int) string {
	elems := make([]string, n)
	for i := range elems {
		elems[i] = fmt.Sprint(i)
	}
	return "x = [" + strings.Join(elems, ", ") + "]\nprint(nrows(load_table(\"halos\")))"
}

func limitedExec(t *testing.T, lim Limits, code string) Result {
	t.Helper()
	ex := &Executor{Limits: lim}
	return ex.Exec(code, map[string]*dataframe.Frame{"halos": halosFrame()})
}

// TestExecutorBudgetExhaustion drives each budget axis to exhaustion on
// the tree-walk interpreter and checks the structured Python-like error
// text. The executor must return a clean Result — never panic — and keep
// the fuel counter it got to.
func TestExecutorBudgetExhaustion(t *testing.T) {
	cases := []struct {
		name    string
		lim     Limits
		code    string
		wantErr string
	}{
		{
			name:    "fuel",
			lim:     Limits{MaxFuel: 5},
			code:    bigListScript(100),
			wantErr: "TimeoutError: script exceeded its instruction budget",
		},
		{
			name:    "memory",
			lim:     Limits{MaxMemBytes: 128},
			code:    bigListScript(100),
			wantErr: "MemoryError: script exceeded its memory budget",
		},
		{
			// halosFrame is 48 tracked bytes: a table above the budget fails at
			// the load, as it did when the load was a parse of staged text.
			name:    "table",
			lim:     Limits{MaxMemBytes: 40},
			code:    `h = load_table("halos")`,
			wantErr: "line 1: MemoryError: script exceeded its memory budget (40 bytes)",
		},
		{
			name:    "wall",
			lim:     Limits{MaxWall: time.Nanosecond},
			code:    bigListScript(600),
			wantErr: "TimeoutError: script exceeded its wall-clock limit",
		},
		{
			name:    "artifact",
			lim:     Limits{MaxArtifactBytes: 8},
			code:    `h = load_table("halos")` + "\n" + `save_csv(h, "out.csv")`,
			wantErr: "MemoryError: artifact budget exceeded",
		},
		{
			name:    "stdout",
			lim:     Limits{MaxStdoutLines: 2},
			code:    "print(1)\nprint(2)\nprint(3)",
			wantErr: "MemoryError: stdout line budget exceeded",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name+"/treewalk", func(t *testing.T) {
			res := limitedExec(t, tc.lim, tc.code)
			if res.OK {
				t.Fatalf("expected budget error, got OK result")
			}
			if !strings.Contains(res.Error, tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", res.Error, tc.wantErr)
			}
			if tc.name == "fuel" && res.FuelUsed == 0 {
				t.Fatal("fuel exhaustion reported zero fuel used")
			}
		})
	}
}

// TestExecutorWithinBudgetSucceeds proves generous limits do not perturb a
// normal run and that fuel accounting reaches the result.
func TestExecutorWithinBudgetSucceeds(t *testing.T) {
	res := limitedExec(t, DefaultLimits(),
		`h = load_table("halos")`+"\n"+`result(head(sort(h, "fof_halo_mass", true), 2))`)
	if !res.OK {
		t.Fatalf("exec failed: %s", res.Error)
	}
	if res.FuelUsed == 0 {
		t.Fatal("fuel not accounted")
	}
	if res.Frame == nil || res.Frame.NumRows() != 2 {
		t.Fatalf("frame = %v", res.Frame)
	}
}

// TestExecutorRecoversInterpreterPanic proves a panicking builtin becomes a
// structured RuntimeError instead of taking the process down.
func TestExecutorRecoversInterpreterPanic(t *testing.T) {
	reg := script.DefaultRegistry()
	reg["explode"] = func(env *script.Env, args []script.Value) (script.Value, error) {
		panic("kaboom")
	}
	ex := &Executor{Registry: reg}
	res := ex.Exec("print(1)\nexplode()", nil)
	if res.OK {
		t.Fatal("expected failure")
	}
	if !strings.Contains(res.Error, "RuntimeError: interpreter panic") ||
		!strings.Contains(res.Error, "kaboom") {
		t.Fatalf("error = %q", res.Error)
	}
	// Output produced before the panic survives.
	if len(res.Stdout) != 1 || res.Stdout[0] != "1" {
		t.Fatalf("stdout = %v", res.Stdout)
	}
}

// TestExecutorBudgetMetrics checks the fuel counter and the per-kind
// exceeded counter land in the telemetry registry.
func TestExecutorBudgetMetrics(t *testing.T) {
	metrics := telemetry.NewRegistry()
	ex := &Executor{
		Limits:  Limits{MaxFuel: 5},
		Metrics: metrics,
	}
	res := ex.Exec(bigListScript(100), map[string]*dataframe.Frame{"halos": halosFrame()})
	if res.OK {
		t.Fatal("expected fuel exhaustion")
	}
	if got := metrics.Counter("infera_script_fuel_used").Value(); got == 0 {
		t.Fatal("infera_script_fuel_used not recorded")
	}
	if got := metrics.Counter("infera_script_budget_exceeded_total", telemetry.L("kind", "fuel")).Value(); got != 1 {
		t.Fatalf("infera_script_budget_exceeded_total{kind=fuel} = %d, want 1", got)
	}
}

// TestExecutorConcurrentBudgetedRuns exercises eight budgeted executions
// in parallel; run under -race this proves the budget accounting is
// per-environment with no shared mutable state.
func TestExecutorConcurrentBudgetedRuns(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxFuel = 10_000
	metrics := telemetry.NewRegistry()
	var wg sync.WaitGroup
	errs := make([]Result, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ex := &Executor{Limits: lim, Metrics: metrics}
			errs[i] = ex.Exec(
				`h = load_table("halos")`+"\n"+
					fmt.Sprintf(`f = filter_gt(h, "fof_halo_mass", %d)`, i)+"\n"+
					`result(f)`,
				map[string]*dataframe.Frame{"halos": halosFrame()})
		}(i)
	}
	wg.Wait()
	for i, res := range errs {
		if !res.OK {
			t.Fatalf("run %d failed: %s", i, res.Error)
		}
		if res.FuelUsed == 0 {
			t.Fatalf("run %d: fuel not accounted", i)
		}
	}
	if metrics.Counter("infera_script_fuel_used").Value() == 0 {
		t.Fatal("aggregate fuel counter empty")
	}
}

// TestServerSurvivesBudgetError proves the executor that serves every ask
// keeps answering after a budget-exceeding request: the error is returned
// in-band, the next request on the same Executor succeeds.
func TestServerSurvivesBudgetError(t *testing.T) {
	ex := &Executor{Limits: Limits{MaxFuel: 5}}

	res := ex.Exec(bigListScript(100), map[string]*dataframe.Frame{"halos": halosFrame()})
	if res.OK {
		t.Fatal("expected budget error")
	}
	if !strings.Contains(res.Error, "TimeoutError: script exceeded its instruction budget") {
		t.Fatalf("error = %q", res.Error)
	}

	// The same executor still serves cheap requests.
	ok := ex.Exec("print(1)", nil)
	if !ok.OK {
		t.Fatalf("executor stopped serving after budget error: %s", ok.Error)
	}
	if ok.FuelUsed == 0 {
		t.Fatal("fuel not reported for the cheap request")
	}
}
