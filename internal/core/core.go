// Package core is InferA's public API: point an Assistant at a HACC-style
// ensemble and ask natural-language questions. Each question runs the full
// two-stage multi-agent workflow (plan -> approve -> supervised analysis)
// against a per-question staging database, an isolated sandbox, and a
// provenance session recording every intermediate artifact.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"infera/internal/agent"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/telemetry"
	"infera/internal/tools"
)

// Config configures an Assistant.
type Config struct {
	// EnsembleDir is the root of a generated ensemble (hacc.Generate).
	EnsembleDir string
	// Catalog reuses an already-loaded ensemble catalog — it is read-only
	// after load, so a caller that holds one need not read it again. Nil
	// loads EnsembleDir.
	Catalog *hacc.Catalog
	// WorkDir holds the provenance sessions (under sessions/); a temp dir
	// is created when empty. Staging databases live in memory only.
	WorkDir string
	// Model is the language model; defaults to llm.NewSim with Seed.
	Model llm.Client
	// Seed seeds the default simulated model.
	Seed int64
	// Feedback enables the human-in-the-loop hooks; nil runs automated.
	Feedback agent.Feedback
	// TrimHistory applies the supervisor-context token optimization.
	TrimHistory bool
	// SkipDocumentation drops the documentation agent's summary (§4.1.4).
	SkipDocumentation bool
	// ScriptLimits budgets every sandboxed script execution (fuel, memory,
	// wall clock, artifact bytes, stdout lines). The zero value runs
	// unrestricted; daemons default it to sandbox.DefaultLimits via flags.
	ScriptLimits sandbox.Limits
	// Stage is the staging cache raw snapshot decodes are shared through;
	// nil uses the process-wide stage.Shared() cache. Set an isolated cache
	// in tests or benchmarks that assert on cache counters.
	Stage *stage.Cache
	// MaxRevisions caps QA-guided retries per step (default 5).
	MaxRevisions int
	// Logf receives progress lines when set.
	Logf func(format string, args ...any)
	// Metrics, when set, receives per-phase ask span histograms and SQL
	// query timings for every question. Nil records nothing.
	Metrics *telemetry.Registry
	// MetricLabels are attached to every series this assistant records;
	// the serving layer sets ensemble=<shard> here.
	MetricLabels []telemetry.Label
}

// Assistant answers questions over one ensemble. It is safe for concurrent
// use: Ask may be called from multiple goroutines, each call running against
// its own session, staging database and sandbox runner. The shared pieces —
// catalog, retrieval index, script registry — are read-only after New, and
// session-ID/workdir allocation is guarded by mu.
type Assistant struct {
	cfg      Config
	catalog  *hacc.Catalog
	model    llm.Client
	store    *provenance.Store
	retr     *rag.Retriever
	registry script.Registry
	workDir  string

	mu     sync.Mutex
	nextID int
}

// New opens the ensemble and prepares the assistant.
func New(cfg Config) (*Assistant, error) {
	cat := cfg.Catalog
	if cat == nil {
		var err error
		cat, err = hacc.Load(cfg.EnsembleDir)
		if err != nil {
			return nil, err
		}
	}
	workDir := cfg.WorkDir
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "infera-work-*")
		if err != nil {
			return nil, err
		}
	}
	store, err := provenance.NewStore(filepath.Join(workDir, "sessions"))
	if err != nil {
		return nil, err
	}
	store.SetMetrics(cfg.Metrics, cfg.MetricLabels...)
	model := cfg.Model
	if model == nil {
		model = llm.NewSim(llm.SimConfig{Seed: cfg.Seed})
	}
	reg := script.DefaultRegistry()
	tools.Register(reg, cat, cfg.Stage)

	return &Assistant{
		cfg:      cfg,
		catalog:  cat,
		model:    model,
		store:    store,
		retr:     rag.NewRetriever(rag.BuildHACCIndex()),
		registry: reg,
		workDir:  workDir,
	}, nil
}

// newExecutor builds a budgeted sandbox executor with the assistant's
// registry, limits and metric sink.
func (a *Assistant) newExecutor() *sandbox.Executor {
	return &sandbox.Executor{
		Registry:     a.registry,
		Limits:       a.cfg.ScriptLimits,
		Metrics:      a.cfg.Metrics,
		MetricLabels: a.cfg.MetricLabels,
	}
}

// Close releases the provenance store (its work directory outlives it).
// Close the assistant once its asks have returned.
func (a *Assistant) Close() error { return a.store.Close() }

// Catalog exposes the loaded ensemble catalog.
func (a *Assistant) Catalog() *hacc.Catalog { return a.catalog }

// WorkDir returns the directory holding the provenance sessions.
func (a *Assistant) WorkDir() string { return a.workDir }

// Model exposes the configured language model.
func (a *Assistant) Model() llm.Client { return a.model }

// Store exposes the provenance store for session inspection and branching.
func (a *Assistant) Store() *provenance.Store { return a.store }

// Answer is the outcome of one question.
type Answer struct {
	*agent.Result
	SessionID string
	// DBBytes is the staging database size — the storage-overhead
	// numerator of §4.1.3.
	DBBytes int64
	// ProvenanceBytes is the artifact trail size.
	ProvenanceBytes int64
	// SourceBytes is the ensemble size (the overhead denominator).
	SourceBytes int64
}

// StorageOverheadFraction returns (DB + provenance) / source size.
func (ans *Answer) StorageOverheadFraction() float64 {
	if ans.SourceBytes == 0 {
		return 0
	}
	return float64(ans.DBBytes+ans.ProvenanceBytes) / float64(ans.SourceBytes)
}

// VerifySession re-hashes every artifact of a session against its
// manifest, returning the entries that fail — the reproducibility audit of
// §4.2.1. An empty slice means the trail is intact.
func (a *Assistant) VerifySession(sessionID string) ([]provenance.Entry, error) {
	sess, err := a.store.OpenSession(sessionID)
	if err != nil {
		return nil, err
	}
	return sess.Verify()
}

// BranchSession copies a session's artifact trail up to and including
// sequence number upTo into a new session, so alternative follow-up steps
// can explore from an established processing stage without recomputation
// (the workflow-branching feature of §4.2.1). It returns the new session
// ID.
func (a *Assistant) BranchSession(sessionID string, upTo int) (string, error) {
	src, err := a.store.OpenSession(sessionID)
	if err != nil {
		return "", err
	}
	newID := fmt.Sprintf("%s-branch-%d", sessionID, upTo)
	if _, err := a.store.Branch(src, newID, upTo); err != nil {
		return "", err
	}
	return newID, nil
}

// AskOptions customizes a single question without reconfiguring the
// Assistant — the per-request knobs the serving layer needs.
type AskOptions struct {
	// Model overrides the Assistant's model for this question only (e.g. a
	// per-request seed). Nil uses the configured model.
	Model llm.Client
	// SessionID names the provenance session explicitly. Empty allocates
	// the next sequential "session-NNN" ID.
	SessionID string
	// Feedback overrides the Assistant's feedback hook for this question
	// only (e.g. a channel-backed approval gate for an interactive session).
	// Nil keeps the configured hook.
	Feedback agent.Feedback
	// Events, when set, receives the run's typed lifecycle event stream
	// (plan_proposed ... answer). The caller owns the log's lifetime; the
	// workflow only appends.
	Events *agent.EventLog
}

// Ask runs the full workflow for one question. The returned error is
// non-nil when the run terminated before completing its plan; the Answer
// still carries partial state, usage and provenance.
func (a *Assistant) Ask(question string) (*Answer, error) {
	return a.AskWith(question, AskOptions{})
}

// allocSessionID hands out the next sequential session ID under the lock;
// concurrent Asks therefore never collide on session directories, which
// are derived from it.
func (a *Assistant) allocSessionID() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.nextID++
	return fmt.Sprintf("session-%03d", a.nextID)
}

// AskWith runs the full workflow for one question with per-request options.
// It is safe to call concurrently: every invocation gets its own provenance
// session, staging database and sandbox runner.
func (a *Assistant) AskWith(question string, opts AskOptions) (*Answer, error) {
	ans, _, err := a.ask(question, opts)
	return ans, err
}

// ask is AskWith, also returning the question's staging database (nil
// when the session could not be created). The database ingests cached
// snapshot frames by reference and is dropped with the answer.
func (a *Assistant) ask(question string, opts AskOptions) (*Answer, *sqldb.DB, error) {
	sessionID := opts.SessionID
	if sessionID == "" {
		sessionID = a.allocSessionID()
	}
	sess, err := a.store.NewSession(sessionID)
	if err != nil {
		return nil, nil, err
	}
	db := sqldb.New()
	db.SetMetrics(a.cfg.Metrics, a.cfg.MetricLabels...)

	model := opts.Model
	if model == nil {
		model = a.model
	}
	feedback := opts.Feedback
	if feedback == nil {
		feedback = a.cfg.Feedback
	}
	rt := &agent.Runtime{
		Model:             model,
		Catalog:           a.catalog,
		DB:                db,
		Sandbox:           a.newExecutor(),
		Session:           sess,
		Retriever:         a.retr,
		Stage:             a.cfg.Stage,
		Events:            opts.Events,
		Feedback:          feedback,
		MaxRevisions:      a.cfg.MaxRevisions,
		TrimHistory:       a.cfg.TrimHistory,
		SkipDocumentation: a.cfg.SkipDocumentation,
		Logf:              a.cfg.Logf,
		Metrics:           a.cfg.Metrics,
		MetricLabels:      a.cfg.MetricLabels,
	}
	res, runErr := agent.Run(rt, question)
	if err := sess.Close(); err != nil && runErr == nil {
		runErr = fmt.Errorf("provenance: %w", err)
	}
	ans := &Answer{
		Result:          res,
		SessionID:       sessionID,
		DBBytes:         db.SizeBytes(),
		ProvenanceBytes: sess.SizeBytes(),
		SourceBytes:     a.catalog.TotalBytes(),
	}
	return ans, db, runErr
}
