package script

import (
	"fmt"
	"time"

	"infera/internal/dataframe"
)

// Budgets bounds one script execution. Every dimension is optional: the
// zero value of a field disables that bound, and the zero Budgets runs
// unrestricted. They are charged at fixed points in evaluation order, so a
// budgeted script yields the same values, errors and counters on every run.
type Budgets struct {
	// MaxFuel caps the instruction budget. Every value-producing operation
	// (literal, variable load, list construction, function call) costs one
	// unit, and each builtin call additionally costs one unit per row of
	// every dataframe argument (plus one per list element) — the row-based
	// cost hook that makes a sort over a huge synthetic frame pay for its
	// size before it runs. 0 = unlimited.
	MaxFuel int64
	// MaxMemBytes caps cumulative tracked allocation: the estimated byte
	// size of every list a script builds and every value a builtin returns
	// (frames by column payload, strings by length). It is a monotone
	// allocation budget, not a live-set bound. 0 = unlimited.
	MaxMemBytes int64
	// Deadline is the wall-clock cutoff, checked between instructions (a
	// single builtin call is never interrupted — its row cost is charged up
	// front instead). Zero = none.
	Deadline time.Time
	// MaxArtifactBytes caps the total payload of env.Artifacts across all
	// save/plot/scene builtins. 0 = unlimited.
	MaxArtifactBytes int64
	// MaxStdoutLines caps print() output lines. 0 = unlimited.
	MaxStdoutLines int
}

// Budget-exhaustion kinds, the Kind values a BudgetError carries and the
// label values of infera_script_budget_exceeded_total.
const (
	BudgetFuel     = "fuel"
	BudgetMem      = "mem"
	BudgetWall     = "wall"
	BudgetArtifact = "artifact"
	BudgetStdout   = "stdout"
)

// BudgetError reports a script exceeding one of its Budgets dimensions.
// The message is Python-like (TimeoutError / MemoryError) because the QA
// repair loop keys off error shapes, exactly as it does for RuntimeError.
type BudgetError struct {
	Kind string // BudgetFuel | BudgetMem | BudgetWall | BudgetArtifact | BudgetStdout
	Line int    // 0 when the overrun happened inside a builtin
	Msg  string
}

func (e *BudgetError) Error() string {
	if e.Line > 0 {
		return fmt.Sprintf("line %d: %s", e.Line, e.Msg)
	}
	return e.Msg
}

// wallCheckInterval is how many fuel charges pass between wall-clock
// checks; time.Now on every node would double evaluation cost.
const wallCheckInterval = 256

// charge adds n fuel units at line, failing with a fuel or wall
// BudgetError when a bound is crossed. The interpreter calls it with 1
// before each node evaluates and with each call's row cost before it runs.
func (env *Env) charge(line int, n int64) error {
	env.FuelUsed += n
	if max := env.Budgets.MaxFuel; max > 0 && env.FuelUsed > max {
		return &BudgetError{Kind: BudgetFuel, Line: line,
			Msg: fmt.Sprintf("TimeoutError: script exceeded its instruction budget (fuel=%d)", max)}
	}
	if !env.Budgets.Deadline.IsZero() {
		env.sinceWallCheck++
		if env.sinceWallCheck >= wallCheckInterval {
			env.sinceWallCheck = 0
			if time.Now().After(env.Budgets.Deadline) {
				return &BudgetError{Kind: BudgetWall, Line: line,
					Msg: "TimeoutError: script exceeded its wall-clock limit"}
			}
		}
	}
	return nil
}

// alloc tracks an allocation of the value's estimated size at line,
// failing with a MemoryError past MaxMemBytes.
func (env *Env) alloc(line int, v Value) error {
	if env.Budgets.MaxMemBytes <= 0 {
		return nil
	}
	env.MemUsed += valueBytes(v)
	if env.MemUsed > env.Budgets.MaxMemBytes {
		return &BudgetError{Kind: BudgetMem, Line: line,
			Msg: fmt.Sprintf("MemoryError: script exceeded its memory budget (%d bytes)", env.Budgets.MaxMemBytes)}
	}
	return nil
}

// valueBytes estimates the heap footprint of a value: frames by column
// payload (8 bytes per numeric cell, length per string cell), strings by
// length, lists by the sum of their elements.
func valueBytes(v Value) int64 {
	switch v.Kind {
	case KindFrame:
		return frameBytes(v.Frame)
	case KindStr:
		return int64(len(v.Str)) + 16
	case KindList:
		var total int64 = 24
		for _, it := range v.List {
			total += valueBytes(it)
		}
		return total
	default:
		return 16
	}
}

func frameBytes(f *dataframe.Frame) int64 {
	if f == nil {
		return 0
	}
	var total int64
	for i := 0; i < f.NumCols(); i++ {
		c := f.ColumnAt(i)
		switch c.Kind {
		case dataframe.Float:
			total += 8 * int64(len(c.F))
		case dataframe.Int:
			total += 8 * int64(len(c.I))
		default:
			for _, s := range c.S {
				total += int64(len(s)) + 16
			}
		}
	}
	return total
}

// callCost is the row-based builtin cost hook: one unit per row of every
// dataframe argument and one per list element, so big-data operations pay
// fuel proportional to the data they touch. The base unit for the call
// itself is charged separately, with the call node.
func callCost(args []Value) int64 {
	var cost int64
	for _, a := range args {
		switch a.Kind {
		case KindFrame:
			cost += int64(a.Frame.NumRows())
		case KindList:
			cost += int64(len(a.List))
		}
	}
	return cost
}

// AddArtifact records an artifact produced by a save/plot/scene builtin,
// enforcing the artifact byte budget — the cap that stops a save_csv loop
// from exhausting shard memory. Builtins must route artifact writes
// through it rather than assigning to Artifacts directly.
func (env *Env) AddArtifact(name string, data []byte) error {
	if max := env.Budgets.MaxArtifactBytes; max > 0 {
		if old, ok := env.Artifacts[name]; ok {
			env.artifactBytes -= int64(len(old))
		}
		env.artifactBytes += int64(len(data))
		if env.artifactBytes > max {
			return &BudgetError{Kind: BudgetArtifact,
				Msg: fmt.Sprintf("MemoryError: artifact budget exceeded (%d bytes)", max)}
		}
	}
	env.Artifacts[name] = data
	return nil
}

// AddStdout appends one print() line, enforcing the stdout line budget.
func (env *Env) AddStdout(line string) error {
	if max := env.Budgets.MaxStdoutLines; max > 0 && len(env.Stdout) >= max {
		return &BudgetError{Kind: BudgetStdout,
			Msg: fmt.Sprintf("MemoryError: stdout line budget exceeded (%d lines)", max)}
	}
	env.Stdout = append(env.Stdout, line)
	return nil
}

// wrapCallError normalizes a builtin error: budget errors pass through
// (stamped with the call line), RuntimeErrors pass through untouched,
// anything else is wrapped with the line.
func wrapCallError(err error, line int) error {
	if be, ok := err.(*BudgetError); ok {
		if be.Line == 0 {
			be.Line = line
		}
		return be
	}
	if _, ok := err.(*RuntimeError); ok {
		return err
	}
	return &RuntimeError{line, err.Error()}
}
