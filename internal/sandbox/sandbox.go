// Package sandbox executes agent-generated analysis code in isolation from
// the ground-truth data, reproducing §3.2: "the system transmits code and a
// temporary data copy to the server. The server executes the code, performs
// error detection, and returns either a complete error-free pandas
// dataframe or detailed error messages."
//
// The "temporary data copy" is an immutable view, not a copy: a script's
// load_table receives dataframe.CanonicalView of the input table — the
// frame the table's CSV would parse to, kinds re-inferred, over the same
// column vectors marked shared. No script verb writes a cell in place and
// growth is copy-on-write, so the code cannot reach the originals, and what
// it computes is what it computed when every table was written to a
// temporary directory as text and parsed back. CSV remains where bytes
// leave the process: provenance artifacts, and the files a script writes
// with save_csv (and may read_csv back), which live in memory as those
// artifacts: an execution makes no file-system call.
//
// Executor is the one entry point and runs in-process: the separation from
// code generation that the paper's execution server provides comes from the
// interpreter's budgets and its recover barrier.
//
// Execution is budgeted: Limits caps instructions (fuel), tracked
// allocation, wall clock, artifact bytes and stdout lines, and a recover()
// barrier converts any interpreter or builtin panic into a Python-like
// Result.Error — one pathological generated script degrades into a repair
// hint instead of taking down the shard.
package sandbox

import (
	"errors"
	"fmt"
	"time"

	"infera/internal/dataframe"
	"infera/internal/script"
	"infera/internal/telemetry"
)

// Result is the outcome of one sandboxed execution.
type Result struct {
	OK        bool
	Error     string            // Python-like error text when !OK
	Frame     *dataframe.Frame  // the frame passed to result(), may be nil
	Artifacts map[string][]byte // plots, CSVs and scenes produced by the code
	Stdout    []string
	FuelUsed  int64 // instruction budget consumed (deterministic per script)
}

// Limits bounds one sandboxed execution. Zero-valued fields are
// unlimited, so the zero Limits preserves the historical unbudgeted
// behavior; daemons apply DefaultLimits at the flag layer instead.
type Limits struct {
	MaxFuel          int64         // instruction budget (0 = unlimited)
	MaxMemBytes      int64         // cumulative tracked allocation (0 = unlimited)
	MaxWall          time.Duration // wall-clock cap per execution (0 = none)
	MaxArtifactBytes int64         // total artifact payload (0 = unlimited)
	MaxStdoutLines   int           // print() lines (0 = unlimited)
}

// DefaultLimits is the production default applied by the cmd flag layer:
// generous enough for any legitimate analysis script, small enough that a
// runaway one fails in seconds, not shards.
func DefaultLimits() Limits {
	return Limits{
		MaxFuel:          50_000_000,
		MaxMemBytes:      1 << 30, // 1 GiB tracked allocation
		MaxWall:          30 * time.Second,
		MaxArtifactBytes: 64 << 20, // 64 MiB
		MaxStdoutLines:   10_000,
	}
}

// Runner is the execution seam the agent workflow runs scripts through.
// Executor is the production implementation; wrappers (a tracing runner, a
// test double) embed or stand in for it.
type Runner interface {
	Exec(code string, tables map[string]*dataframe.Frame) Result
}

var _ Runner = (*Executor)(nil)

// Executor runs scripts against immutable views of input tables.
type Executor struct {
	// Registry is the function set available to executed code. Defaults to
	// script.DefaultRegistry when nil.
	Registry script.Registry
	// Limits bounds each execution; the zero value runs unrestricted.
	Limits Limits
	// Backend is ignored.
	//
	// Deprecated: there is one script engine; only bench/inproc.go still
	// sets this.
	Backend string
	// Metrics, when non-nil, receives infera_script_fuel_used and
	// infera_script_budget_exceeded_total{kind} with MetricLabels attached.
	Metrics      *telemetry.Registry
	MetricLabels []telemetry.Label
}

// Exec runs the code with tables as its input set and a file namespace of
// its own, empty at the start and held in memory: load_table(name) yields
// dataframe.CanonicalView of tables[name], so the code works on what the
// table's CSV would parse to without the text being produced, and charges
// fuel and tracked memory for it as it always has. The input frames are
// only read — tables, and every vector in it, is the same afterwards, also
// when several Execs share it concurrently. The Result's frame may share
// column vectors with the inputs. Budgets from e.Limits are enforced during
// the run, and any panic in the interpreter or a builtin is recovered into
// a Python-like error string.
func (e *Executor) Exec(code string, tables map[string]*dataframe.Frame) (res Result) {
	reg := e.Registry
	if reg == nil {
		reg = script.DefaultRegistry()
	}
	env := script.NewEnv(reg, "")
	env.Tables = tables
	env.Budgets = script.Budgets{
		MaxFuel:          e.Limits.MaxFuel,
		MaxMemBytes:      e.Limits.MaxMemBytes,
		MaxArtifactBytes: e.Limits.MaxArtifactBytes,
		MaxStdoutLines:   e.Limits.MaxStdoutLines,
	}
	if e.Limits.MaxWall > 0 {
		env.Budgets.Deadline = time.Now().Add(e.Limits.MaxWall)
	}

	// The recover barrier: a crasher in the parser, the interpreter or a
	// builtin becomes a structured error the QA repair loop can consume,
	// with whatever artifacts/stdout/fuel accrued before the crash
	// preserved.
	defer func() {
		if r := recover(); r != nil {
			res = Result{
				Error:     fmt.Sprintf("RuntimeError: interpreter panic: %v", r),
				Artifacts: env.Artifacts,
				Stdout:    env.Stdout,
				FuelUsed:  env.FuelUsed,
			}
			e.observe(env.FuelUsed, nil)
		}
	}()

	prog, err := script.Parse(code)
	if err != nil {
		return Result{Error: err.Error(), Stdout: env.Stdout}
	}
	if err := prog.Run(env); err != nil {
		e.observe(env.FuelUsed, err)
		return Result{
			Error:     err.Error(),
			Artifacts: env.Artifacts,
			Stdout:    env.Stdout,
			FuelUsed:  env.FuelUsed,
		}
	}
	e.observe(env.FuelUsed, nil)
	return Result{
		OK:        true,
		Frame:     env.Result,
		Artifacts: env.Artifacts,
		Stdout:    env.Stdout,
		FuelUsed:  env.FuelUsed,
	}
}

// observe records fuel spend and budget-exhaustion kind on the metrics
// registry, if one is attached.
func (e *Executor) observe(fuel int64, runErr error) {
	if e.Metrics == nil {
		return
	}
	e.Metrics.SetHelp("infera_script_fuel_used", "Total script instruction budget (fuel) consumed by sandboxed executions.")
	e.Metrics.Counter("infera_script_fuel_used", e.MetricLabels...).Add(fuel)
	var be *script.BudgetError
	if errors.As(runErr, &be) {
		e.Metrics.SetHelp("infera_script_budget_exceeded_total", "Sandboxed executions aborted for exceeding a budget, by kind (fuel|mem|wall|artifact|stdout).")
		labels := append(append([]telemetry.Label{}, e.MetricLabels...), telemetry.L("kind", be.Kind))
		e.Metrics.Counter("infera_script_budget_exceeded_total", labels...).Inc()
	}
}

// ResultPreview renders a short text preview of an execution for QA
// assessment and provenance records.
func (r Result) Preview() string {
	if !r.OK {
		return "ERROR: " + r.Error
	}
	out := ""
	if r.Frame != nil {
		out += fmt.Sprintf("result frame: %d rows x %d cols (%v)\n", r.Frame.NumRows(), r.Frame.NumCols(), r.Frame.Names())
		out += r.Frame.Head(5).String()
	} else {
		out += "no result frame\n"
	}
	if len(r.Artifacts) > 0 {
		out += fmt.Sprintf("artifacts: %d file(s)\n", len(r.Artifacts))
	}
	return out
}
