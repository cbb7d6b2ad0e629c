// Package agent implements InferA's multi-agent architecture (§3, Fig. 3):
// a planning stage with human-in-the-loop refinement, and an analysis stage
// in which a supervisor routes work through the data-loading, SQL, Python,
// visualization, quality-assurance and documentation agents over a state
// graph with per-transition provenance checkpoints.
package agent

import (
	"fmt"
	"time"

	"infera/internal/dataframe"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// State is the shared workflow state threaded through the graph. It holds
// only metadata and references — data lives in the staging database and the
// provenance store — so every node transition can checkpoint it as JSON.
type State struct {
	Question string   `json:"question"`
	Plan     llm.Plan `json:"plan"`

	StepIdx   int  `json:"step_idx"`   // next plan step to execute
	PyCount   int  `json:"py_count"`   // python steps completed
	VizCount  int  `json:"viz_count"`  // viz steps completed
	RedoCount int  `json:"redo_count"` // QA-requested regenerations
	Done      bool `json:"done"`
	Failed    bool `json:"failed"`

	FailReason string   `json:"fail_reason,omitempty"`
	Failures   []string `json:"failures,omitempty"`
	Completed  []string `json:"completed,omitempty"`
	// History is the supervisor message log. It is excluded from state
	// checkpoints (json "-") so provenance storage reflects data and code
	// artifacts, not model transcripts.
	History []string `json:"-"`

	// RetrievedContext is the metadata text the RAG retriever assembled;
	// worker agents receive it with every delegated task (so regeneration
	// retries pay its token cost again, as real prompts would). Excluded
	// from checkpoints like History.
	RetrievedContext string `json:"-"`

	LoadedSims  []int               `json:"loaded_sims,omitempty"`
	LoadedSteps []int               `json:"loaded_steps,omitempty"`
	Staged      map[string][]string `json:"staged,omitempty"` // table -> columns

	Usage      llm.Usage `json:"usage"`
	PlanRounds int       `json:"plan_rounds"` // human feedback iterations
	Strategy   int       `json:"strategy"`    // ambiguous-question strategy actually used
	// FuelUsed is the total script instruction budget consumed by this
	// run's sandboxed executions, across all steps and QA retries.
	FuelUsed int64 `json:"fuel_used,omitempty"`
}

// Feedback is the human-in-the-loop hook. A nil Feedback runs fully
// automated (the paper's evaluation condition: "skipping human feedback
// provides a lower bound").
type Feedback interface {
	// ReviewPlan shows the plan; returning approved=false with a comment
	// triggers another planning round with the comment folded in. It
	// calls announce exactly once, after the review window is open, so a
	// reviewer who learns of the plan from announce (the plan event) can
	// always answer it.
	ReviewPlan(plan llm.Plan, announce func()) (approved bool, comment string)
	// OnError may supply a hint (e.g. the correct column name) when a step
	// fails; returning ok=false gives no hint.
	OnError(step llm.PlanStep, errMsg string) (hint string, ok bool)
}

// Runtime bundles the model, substrates and policies for one workflow run.
type Runtime struct {
	Model     llm.Client
	Catalog   *hacc.Catalog
	DB        *sqldb.DB
	Sandbox   sandbox.Runner
	Session   *provenance.Session
	Retriever *rag.Retriever
	Feedback  Feedback

	// Stage is the shared staging cache raw snapshot reads go through, so
	// concurrent workflows over overlapping (sim, step) slices decode each
	// gio file once. Nil uses the process-wide stage.Shared() cache.
	Stage *stage.Cache

	// Events, when set, receives the run's typed lifecycle stream
	// (plan_proposed ... answer) — the substrate the serving layer streams
	// to clients. Nil emits nothing; the workflow is unaffected either way.
	Events *EventLog

	// MaxRevisions caps QA-guided regenerations per step (paper: 5).
	// Zero takes the default; a negative value disables retries entirely
	// (the static-pipeline baseline of §4.4.1).
	MaxRevisions int
	// TrimHistory limits the supervisor's routing context to the last
	// message instead of the full log — the §4.1.4 token optimization.
	TrimHistory bool
	// SkipDocumentation drops the documentation agent's summary call —
	// "not strictly necessary for core analysis" (§4.1.4), the other
	// token-saving lever.
	SkipDocumentation bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)

	// Metrics, when set, receives per-phase span histograms
	// (infera_ask_phase_seconds) for every run. Nil records nothing.
	Metrics *telemetry.Registry
	// MetricLabels are attached to every series this runtime records —
	// the serving layer sets ensemble=<shard> here.
	MetricLabels []telemetry.Label

	// spans accumulates this run's phase durations. Created per run by
	// withDefaults, so a shared Runtime template stays reusable.
	spans *spanSet
	// lease pins Stage for the run (Run); the loader loads through it.
	lease *stage.Lease
}

func (rt *Runtime) logf(format string, args ...any) {
	if rt.Logf != nil {
		rt.Logf(format, args...)
	}
}

// emit appends a lifecycle event when a log is attached.
func (rt *Runtime) emit(ev Event) {
	if rt.Events != nil {
		rt.Events.Append(ev)
	}
}

func (rt *Runtime) withDefaults() *Runtime {
	out := *rt
	switch {
	case out.MaxRevisions == 0:
		out.MaxRevisions = 5
	case out.MaxRevisions < 0:
		out.MaxRevisions = 0
	}
	if out.Stage == nil {
		out.Stage = stage.Shared()
	}
	out.spans = newSpanSet()
	return &out
}

// Result is the outcome of one full workflow.
type Result struct {
	State     State
	Answer    *dataframe.Frame // final analysis frame (may be nil on failure)
	Summary   string
	Artifacts []provenance.Entry
	Duration  time.Duration
}

// TaskCompleteness returns the fraction of planned steps completed.
func (r *Result) TaskCompleteness() float64 {
	if len(r.State.Plan.Steps) == 0 {
		return 0
	}
	return float64(r.State.StepIdx) / float64(len(r.State.Plan.Steps))
}

// ErrFailed marks a run that terminated before completing its plan.
type ErrFailed struct{ Reason string }

func (e *ErrFailed) Error() string { return fmt.Sprintf("agent: run failed: %s", e.Reason) }
