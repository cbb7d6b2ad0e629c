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

func limitedExec(t *testing.T, lim Limits, backend, code string) Result {
	t.Helper()
	ex := &Executor{Limits: lim, Backend: backend}
	return ex.Exec(code, map[string]*dataframe.Frame{"halos": halosFrame()})
}

// TestExecutorBudgetExhaustion drives each budget axis to exhaustion on
// both backends and checks the structured Python-like error text. The
// executor must return a clean Result — never panic — and keep the fuel
// counter it got to.
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
		for _, backend := range []string{BackendVM, BackendTreeWalk} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				res := limitedExec(t, tc.lim, backend, tc.code)
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
}

// TestExecutorWithinBudgetSucceeds proves generous limits do not perturb a
// normal run and that fuel accounting reaches the result.
func TestExecutorWithinBudgetSucceeds(t *testing.T) {
	for _, backend := range []string{BackendVM, BackendTreeWalk} {
		res := limitedExec(t, DefaultLimits(), backend,
			`h = load_table("halos")`+"\n"+`result(head(sort(h, "fof_halo_mass", true), 2))`)
		if !res.OK {
			t.Fatalf("%s: exec failed: %s", backend, res.Error)
		}
		if res.FuelUsed == 0 {
			t.Fatalf("%s: fuel not accounted", backend)
		}
		if res.Frame == nil || res.Frame.NumRows() != 2 {
			t.Fatalf("%s: frame = %v", backend, res.Frame)
		}
	}
}

// TestExecutorRecoversInterpreterPanic proves a panicking builtin becomes a
// structured RuntimeError instead of taking the process down.
func TestExecutorRecoversInterpreterPanic(t *testing.T) {
	reg := script.DefaultRegistry()
	reg["explode"] = func(env *script.Env, args []script.Value) (script.Value, error) {
		panic("kaboom")
	}
	for _, backend := range []string{BackendVM, BackendTreeWalk} {
		ex := &Executor{Registry: reg, Backend: backend}
		res := ex.Exec("print(1)\nexplode()", nil)
		if res.OK {
			t.Fatalf("%s: expected failure", backend)
		}
		if !strings.Contains(res.Error, "RuntimeError: interpreter panic") ||
			!strings.Contains(res.Error, "kaboom") {
			t.Fatalf("%s: error = %q", backend, res.Error)
		}
		// Output produced before the panic survives.
		if len(res.Stdout) != 1 || res.Stdout[0] != "1" {
			t.Fatalf("%s: stdout = %v", backend, res.Stdout)
		}
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
			backend := BackendVM
			if i%2 == 1 {
				backend = BackendTreeWalk
			}
			ex := &Executor{Limits: lim, Backend: backend, Metrics: metrics}
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

// TestServerSurvivesBudgetError proves a sandbox server keeps answering
// after a budget-exceeding request: the error is returned in-band, the
// next request succeeds.
func TestServerSurvivesBudgetError(t *testing.T) {
	srv := NewServer(&Executor{Limits: Limits{MaxFuel: 5}})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := NewClient(srv.Addr())

	res := client.Exec(bigListScript(100), map[string]*dataframe.Frame{"halos": halosFrame()})
	if res.OK {
		t.Fatal("expected budget error over the wire")
	}
	if !strings.Contains(res.Error, "TimeoutError: script exceeded its instruction budget") {
		t.Fatalf("error = %q", res.Error)
	}

	// The same server instance still serves cheap requests.
	ok := client.Exec("print(1)", nil)
	if !ok.OK {
		t.Fatalf("server stopped serving after budget error: %s", ok.Error)
	}
	if ok.FuelUsed == 0 {
		t.Fatal("fuel not threaded through the wire protocol")
	}
}
