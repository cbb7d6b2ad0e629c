// Package service turns the one-shot core.Assistant into a concurrent
// multi-session query service: one Assistant per ensemble, a bounded pool
// of worker goroutines draining a request queue through it so N questions
// run concurrently against isolated staging databases, and an
// LRU answer cache keyed by (ensemble fingerprint, normalized question,
// seed) short-circuits repeat questions. Concurrent identical misses
// single-flight into one computation, and the session-record history is
// bounded by MaxSessions. The HTTP API in http.go exposes the whole thing
// as a daemon (cmd/inferad).
package service

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"infera/internal/agent"
	"infera/internal/core"
	"infera/internal/llm"
	"infera/internal/provenance"
	"infera/internal/sandbox"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// Config configures a Service.
type Config struct {
	// EnsembleDir is the root of a generated ensemble (required).
	EnsembleDir string
	// Name identifies this service in telemetry: every series it records
	// carries ensemble=<Name>. The registry sets it to the shard name;
	// empty records unlabeled series (single-ensemble daemons).
	Name string
	// Metrics is the telemetry registry ask latency histograms, queue
	// gauges and per-phase workflow spans are recorded into. Nil records
	// nothing; the JSON /metrics snapshot is unaffected either way.
	Metrics *telemetry.Registry
	// WorkDir holds the provenance store (WorkDir/sessions/) and the
	// persisted answer cache; a temp dir when empty.
	WorkDir string
	// Workers is the number of worker goroutines asking through the
	// Assistant — the concurrency bound. Defaults to min(4, GOMAXPROCS).
	Workers int
	// QueueDepth bounds pending requests beyond the running ones; a full
	// queue rejects with ErrQueueFull (backpressure, not OOM). Default 64.
	QueueDepth int
	// CacheSize is the answer-cache capacity in entries. Default 128.
	CacheSize int
	// MaxSessions bounds the in-memory session-record history; the oldest
	// finished records are dropped past it (their on-disk provenance
	// remains, but /sessions no longer lists them). Default 4096.
	MaxSessions int
	// Seed is the default model seed for requests that don't set one.
	Seed int64
	// NewModel builds the per-request model from the request seed. Defaults
	// to llm.NewSim(llm.SimConfig{Seed: seed}).
	NewModel func(seed int64) llm.Client
	// TrimHistory and SkipDocumentation are forwarded to the Assistant.
	TrimHistory       bool
	SkipDocumentation bool
	// ScriptLimits budgets every sandboxed script execution (fuel, memory,
	// wall clock, artifact bytes, stdout lines); forwarded to the
	// Assistant. The zero value runs unrestricted; the daemons default it
	// to sandbox.DefaultLimits via the -script-* flags.
	ScriptLimits sandbox.Limits
	// Stage is the staging cache the workers share, so concurrent
	// sessions staging overlapping (sim, step) slices decode each source
	// file once. Nil uses the process-wide stage.Shared() cache; set an
	// isolated cache in tests that assert on its counters.
	Stage *stage.Cache
	// ProvenanceMaxAge, when positive, garbage-collects session artifact
	// trails older than this at Close (shard close, daemon shutdown).
	// Trails whose sessions are still referenced by the answer cache are
	// spared — a revived shard must be able to resolve the provenance
	// behind its persisted answers.
	ProvenanceMaxAge time.Duration
	// ProvenanceMaxBytes, when positive, bounds the total on-disk size of
	// session trails at Close: oldest unreferenced trails are removed until
	// the rest fit.
	ProvenanceMaxBytes int64
	// ApprovalTimeout bounds how long an interactive session's plan review
	// blocks its worker before auto-approving — the expiry for abandoned
	// sessions whose client never comes back. 0 uses
	// agent.DefaultAutoApprove; it applies per review round.
	ApprovalTimeout time.Duration
	// Logf receives progress lines when set.
	Logf func(format string, args ...any)
}

// Errors returned by Ask and the interactive-session methods.
var (
	ErrQueueFull       = errors.New("service: request queue full")
	ErrClosed          = errors.New("service: closed")
	ErrEmptyQuestion   = errors.New("service: empty question")
	ErrUnknownSession  = errors.New("service: unknown session")
	ErrNotInteractive  = errors.New("service: session is not interactive")
	ErrNotFinished     = errors.New("service: session not finished")
	ErrUnknownArtifact = errors.New("service: unknown artifact")
)

// ArtifactRef is the wire form of a provenance artifact pointer: the
// artifact is Bytes bytes at Offset of File in its session directory, and
// GET /v1/ensembles/{eid}/sessions/{id}/artifacts/{seq} serves them.
type ArtifactRef struct {
	Seq    int    `json:"seq"`
	Kind   string `json:"kind"`
	Name   string `json:"name"`
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	Offset int64  `json:"offset"`
}

// AskRequest is one question for the service.
type AskRequest struct {
	Question string `json:"question"`
	// Seed selects the model stream; 0 uses the service default.
	Seed int64 `json:"seed,omitempty"`
	// Interactive runs the ask as a streaming session: the call returns a
	// session handle immediately (HTTP: 202), lifecycle events stream from
	// the session's event log, and the plan blocks for approval/revision
	// until submitted or the approval deadline auto-approves. Interactive
	// answers bypass the answer cache — a human may have reshaped the plan,
	// so the result is not a pure function of (fingerprint, question, seed).
	Interactive bool `json:"interactive,omitempty"`
}

// AskResult is the wire answer for one request.
type AskResult struct {
	// RequestID is the service-level session record for this request.
	RequestID string `json:"request_id"`
	// SessionID is the provenance session holding the artifact trail; for
	// cached answers it points at the session that originally computed it.
	SessionID string `json:"session_id"`
	Question  string `json:"question"`
	Seed      int64  `json:"seed"`
	Cached    bool   `json:"cached"`

	Summary      string        `json:"summary,omitempty"`
	AnswerCSV    string        `json:"answer_csv,omitempty"`
	Rows         int           `json:"rows"`
	PlanSteps    int           `json:"plan_steps"`
	Tokens       int           `json:"tokens"`
	RedoCount    int           `json:"redo_count"`
	StorageBytes int64         `json:"storage_bytes"`
	Artifacts    []ArtifactRef `json:"artifacts,omitempty"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	Error        string        `json:"error,omitempty"`
}

// SessionInfo is the service-level record of one request's lifecycle.
type SessionInfo struct {
	ID       string `json:"id"`
	Question string `json:"question"`
	Seed     int64  `json:"seed"`
	// Status is "queued", "running", "awaiting_approval" (interactive: plan
	// proposed, review pending), "done", "failed", "cached" or "rejected"
	// (backpressure: the request never ran).
	Status string `json:"status"`
	Worker int    `json:"worker"`
	// Interactive marks a streaming session with an event log and plan
	// approval gate.
	Interactive bool `json:"interactive,omitempty"`
	// SourceSession, for cached requests, names the session whose answer
	// was served; its provenance trail answers /provenance for this record.
	SourceSession string    `json:"source_session,omitempty"`
	Enqueued      time.Time `json:"enqueued"`
	Started       time.Time `json:"started"`
	Finished      time.Time `json:"finished"`
	Tokens        int       `json:"tokens"`
	Error         string    `json:"error,omitempty"`
}

// Metrics is the /metrics snapshot.
type Metrics struct {
	Workers     int   `json:"workers"`
	QueueDepth  int   `json:"queue_depth"`
	QueueLen    int   `json:"queue_len"`
	Queued      int64 `json:"queued_total"`
	Running     int64 `json:"running"`
	Completed   int64 `json:"completed_total"`
	Failed      int64 `json:"failed_total"`
	Rejected    int64 `json:"rejected_total"`
	CachedTotal int64 `json:"cached_total"`
	Tokens      int64 `json:"tokens_total"`
	// Interactive counts streaming sessions started; PendingApprovals is
	// the gauge of sessions blocked on a plan decision right now.
	Interactive      int64      `json:"interactive_total"`
	PendingApprovals int        `json:"pending_approvals"`
	Cache            CacheStats `json:"cache"`
	// Stage reports the staging cache this service decodes through. The
	// cache is normally the process-wide stage.Shared() instance, shared
	// by every shard in the registry — so these counters (including
	// stat_saves and partial_hits) are process totals, identical on every
	// shard's snapshot, not per-shard slices. Aggregate consumers must
	// count them once, never sum them across shards; RegistryMetrics does
	// exactly that by reporting the shared cache once at top level.
	Stage       stage.Stats `json:"stage"`
	Fingerprint string      `json:"fingerprint"`
	// FingerprintError reports a failed ensemble-dir walk (e.g. unmounted
	// volume) so monitors can tell a broken fingerprint from a real one.
	FingerprintError string `json:"fingerprint_error,omitempty"`
}

type task struct {
	info *SessionInfo
	req  AskRequest
	key  CacheKey
	// gen is the ensemble generation key.Fingerprint was resolved at.
	gen  uint64
	done chan *AskResult
	// ia is the interactive-session state (event log + approval gate); nil
	// for blocking asks.
	ia *interactive
}

// Service is the concurrent multi-session query front-end over one
// Assistant. Create with New, serve over HTTP with NewServer, release with
// Close.
type Service struct {
	cfg       Config
	assistant *core.Assistant
	cache     *Cache
	queue     chan *task
	wg        sync.WaitGroup

	mu       sync.Mutex
	closed   bool
	nextID   int
	sessions map[string]*SessionInfo
	order    []string
	// interactive holds the event log, approval gate and final result of
	// each streaming session, dropped when its record is trimmed.
	interactive map[string]*interactive
	// pendingApprovals gauges sessions blocked in plan review.
	pendingApprovals int
	// inflight coalesces concurrent identical cache misses: the first
	// request for a key computes, the rest wait on its done channel and
	// then serve from the freshly populated cache (single-flight).
	inflight map[CacheKey]chan struct{}
	m        Metrics

	// pending mirrors the queue channel's FIFO contents (guarded by mu) so
	// queued interactive sessions can be told their 1-based position; the
	// channel itself cannot be inspected. Entries are appended on enqueue
	// and removed when a worker picks the task up.
	pending []*task

	// labels and the pre-resolved instruments below record telemetry when
	// cfg.Metrics is set; all are safe no-ops otherwise.
	labels     []telemetry.Label
	queueLen   *telemetry.Gauge
	queueWait  *telemetry.Histogram
	approvals  *telemetry.Gauge
	queueDepth *telemetry.Gauge

	// fpMu guards the one (generation, fingerprint) pair fingerprint
	// keeps; fpWalks counts the walks it took.
	fpMu    sync.Mutex
	fpGen   uint64
	fpValue string
	fpWalks int64
}

// New builds the Assistant and starts the workers.
func New(cfg Config) (*Service, error) {
	if cfg.EnsembleDir == "" {
		return nil, errors.New("service: EnsembleDir is required")
	}
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:         cfg,
		cache:       NewCache(cfg.CacheSize),
		queue:       make(chan *task, cfg.QueueDepth),
		sessions:    map[string]*SessionInfo{},
		inflight:    map[CacheKey]chan struct{}{},
		interactive: map[string]*interactive{},
	}
	if cfg.Name != "" {
		s.labels = []telemetry.Label{telemetry.L("ensemble", cfg.Name)}
	}
	s.registerMetrics()
	a, err := core.New(core.Config{
		EnsembleDir:       cfg.EnsembleDir,
		WorkDir:           cfg.WorkDir,
		Seed:              cfg.Seed,
		TrimHistory:       cfg.TrimHistory,
		SkipDocumentation: cfg.SkipDocumentation,
		ScriptLimits:      cfg.ScriptLimits,
		Stage:             cfg.Stage,
		Logf:              cfg.Logf,
		Metrics:           cfg.Metrics,
		MetricLabels:      s.labels,
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s.assistant = a
	// Revive the persisted answer cache (if any) before traffic arrives;
	// entries from a changed ensemble are dropped by fingerprint.
	s.loadPersistedCache()
	if cfg.WorkDir != "" {
		s.resumeSessions()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// withDefaults fills the zero fields of cfg with their documented defaults.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = min(runtime.GOMAXPROCS(0), 4)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 128
	}
	if cfg.NewModel == nil {
		cfg.NewModel = func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed})
		}
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 4096
	}
	if cfg.Stage == nil {
		cfg.Stage = stage.Shared()
	}
	return cfg
}

// registerMetrics resolves the service's telemetry instruments when
// cfg.Metrics is set; otherwise they stay nil, which records nothing.
func (s *Service) registerMetrics() {
	r := s.cfg.Metrics
	if r == nil {
		return
	}
	r.SetHelp("infera_ask_seconds", "End-to-end ask latency, labeled by cache hit/miss and interactive/automated mode.")
	r.SetHelp("infera_asks_total", "Total asks served, labeled like infera_ask_seconds.")
	r.SetHelp("infera_queue_wait_seconds", "Time an ask spent waiting in the bounded worker queue.")
	r.SetHelp("infera_queue_len", "Asks currently waiting in the worker queue.")
	r.SetHelp("infera_queue_depth", "Capacity of the bounded worker queue.")
	r.SetHelp("infera_pending_approvals", "Interactive sessions currently blocked on a plan decision.")
	r.SetHelp(agent.MetricAskPhaseSeconds, "Per-ask wall-clock time by workflow phase (plan, stage, query, qa, python, viz, total).")
	s.queueLen = r.Gauge("infera_queue_len", s.labels...)
	s.queueWait = r.Histogram("infera_queue_wait_seconds", nil, s.labels...)
	s.approvals = r.Gauge("infera_pending_approvals", s.labels...)
	s.queueDepth = r.Gauge("infera_queue_depth", s.labels...)
	s.queueDepth.Set(int64(s.cfg.QueueDepth))
}

// resumeSessions readies a stable WorkDir's store, which may hold sessions
// from a previous incarnation (daemon restart, shard revival). It imports
// the trails of a daemon that kept one store per worker, under
// WorkDir/worker-NN/sessions/<id>, then resumes the ID sequence past every
// session, so a new session never takes the ID of an on-disk trail that a
// revived cache entry may name; loadPersistedCache, which runs first,
// already resumed it past cache.json's last_id.
func (s *Service) resumeSessions() {
	store := s.assistant.Store()
	old, _ := filepath.Glob(filepath.Join(s.cfg.WorkDir, "worker-*", "sessions"))
	for _, dir := range old {
		if err := store.Import(dir); err != nil {
			s.logf("service: %v", err)
		}
		// A Remove fails, harmlessly, on a dir still holding anything.
		_ = os.Remove(dir)
		_ = os.Remove(filepath.Dir(dir))
	}
	ids, _ := store.Sessions()
	for _, id := range ids {
		var n int
		if _, err := fmt.Sscanf(id, "q-%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
}

// Close drains the queue, stops the workers and persists the answer cache
// (when WorkDir is stable — see persist.go).
// Pending requests complete; new Asks fail with ErrClosed.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	// Unblock plan reviews (current and queued) with immediate auto-approval
	// so the drain below is never held back by a full approval deadline.
	for _, ia := range s.interactive {
		ia.feedback.Abort()
	}
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	// All workers have stopped, so the cache is quiescent: this snapshot is
	// complete, including answers computed by the final drain.
	err := s.persistCache()
	// Retention sweep after the persist: the snapshot just written defines
	// exactly which sessions the revived cache can still reference.
	if removed, freed := s.sweepProvenance(); removed > 0 {
		s.logf("service: provenance sweep removed %d session trail(s), %d bytes", removed, freed)
	}
	if cerr := s.assistant.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Ask answers one question, serving from the cache when possible and
// otherwise queueing it for a pooled worker. Concurrent identical misses
// coalesce: one request computes, the rest wait and serve from the freshly
// populated cache. Ask blocks until the answer is ready; concurrency comes
// from calling it from many goroutines (each HTTP request does). A full
// queue fails fast with ErrQueueFull.
func (s *Service) Ask(req AskRequest) (*AskResult, error) {
	if req.Question == "" {
		return nil, ErrEmptyQuestion
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.cfg.Seed
	}
	req.Seed = seed
	start := time.Now()
	fp, gen, err := s.fingerprint()
	if err != nil {
		return nil, err
	}
	key := CacheKey{Fingerprint: fp, Question: NormalizeQuestion(req.Question), Seed: seed}

	// Cache lookup and leader election are one atomic step under mu, so a
	// burst of identical questions yields exactly one miss (the leader's);
	// followers wait without touching the counters and score a hit once
	// the leader has populated the cache.
	var done chan struct{}
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		wait := s.inflight[key]
		if wait == nil {
			if hit, ok := s.cache.Get(key); ok {
				s.mu.Unlock()
				return s.serveCached(req, hit, start), nil
			}
			done = make(chan struct{})
			s.inflight[key] = done
			s.mu.Unlock()
			break // this request is the leader: compute below
		}
		s.mu.Unlock()
		// Another request is computing this exact key; wait for it, then
		// re-check (a failed leader leaves the cache unpopulated, and the
		// next pass elects a new leader).
		<-wait
	}
	defer func() {
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(done)
	}()

	t := &task{info: s.newSessionRecord(req, "queued"), req: req, key: key, gen: gen, done: make(chan *AskResult, 1)}
	if _, err := s.admit(t); err != nil {
		return nil, err
	}
	res := <-t.done
	s.observeAsk("miss", "automated", res.Elapsed)
	return res, nil
}

// observeAsk records one completed ask into the latency histogram and
// total counter, split by cache hit/miss and interactive/automated mode.
// A no-op without a metrics registry.
func (s *Service) observeAsk(cache, mode string, elapsed time.Duration) {
	r := s.cfg.Metrics
	if r == nil {
		return
	}
	labels := make([]telemetry.Label, 0, len(s.labels)+2)
	labels = append(labels, s.labels...)
	labels = append(labels, telemetry.L("cache", cache), telemetry.L("mode", mode))
	r.Histogram("infera_ask_seconds", nil, labels...).ObserveDuration(elapsed)
	r.Counter("infera_asks_total", labels...).Inc()
}

// admit is the admission step of Ask and AskInteractive: it sends t to the
// worker queue without blocking and returns t's record as it stood when
// queued (a worker may mutate it from then on). A closed service or a full
// queue rejects t instead: its record finishes as "rejected" and admit
// returns ErrClosed or ErrQueueFull.
func (s *Service) admit(t *task) (SessionInfo, error) {
	s.mu.Lock()
	err := ErrClosed
	if !s.closed {
		select {
		case s.queue <- t:
			s.m.Queued++
			s.enqueuedLocked(t)
			snap := *t.info
			s.mu.Unlock()
			return snap, nil
		default:
			err = ErrQueueFull
		}
	}
	s.m.Rejected++
	s.mu.Unlock()
	s.finishRecord(t.info, "rejected", 0, err.Error())
	return SessionInfo{}, err
}

// enqueuedLocked mirrors a just-queued task into the pending list and
// tells an interactive session its 1-based queue position (1 = next to be
// picked up). Caller holds mu — the channel send and the mirror append
// are one atomic step, so mirror order matches channel FIFO order.
func (s *Service) enqueuedLocked(t *task) {
	s.pending = append(s.pending, t)
	s.queueLen.Set(int64(len(s.pending)))
	if t.ia != nil {
		t.ia.events.Append(agent.Event{Kind: agent.EventQueuePosition, Position: len(s.pending)})
	}
}

// dequeued removes a task a worker just picked up from the pending mirror
// and re-announces the updated position to every interactive session
// still waiting — each SSE stream sees its position count down to 1
// before its own step events begin. The queue is depth-bounded, so the
// O(pending) re-announce is trivially cheap.
func (s *Service) dequeued(t *task) {
	s.mu.Lock()
	for i, p := range s.pending {
		if p == t {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.queueLen.Set(int64(len(s.pending)))
	// Re-announce under mu: a task's removal and every announce targeting
	// it are serialized by the lock, so a session's queue_position events
	// always precede its worker's first step event.
	for i, p := range s.pending {
		if p.ia != nil {
			p.ia.events.Append(agent.Event{Kind: agent.EventQueuePosition, Position: i + 1})
		}
	}
	s.mu.Unlock()
	s.queueWait.ObserveDuration(time.Since(t.info.Enqueued))
}

// serveCached records and returns a cache hit.
func (s *Service) serveCached(req AskRequest, hit *AskResult, start time.Time) *AskResult {
	info := s.newSessionRecord(req, "cached")
	now := time.Now()
	s.mu.Lock()
	info.SourceSession = hit.SessionID
	info.Started, info.Finished = now, now
	info.Tokens = 0 // served from memory: no model calls
	s.m.CachedTotal++
	s.mu.Unlock()
	out := *hit
	out.RequestID = info.ID
	out.Question = req.Question // echo this request's phrasing, not the original's
	out.Cached = true
	out.Elapsed = time.Since(start)
	s.observeAsk("hit", "automated", out.Elapsed)
	s.logf("service: %s cache hit for %q (session %s)", info.ID, req.Question, hit.SessionID)
	return &out
}

// newSessionRecord allocates the next service session ID and records it,
// dropping the oldest finished records past MaxSessions so a long-running
// daemon's history stays bounded.
func (s *Service) newSessionRecord(req AskRequest, status string) *SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	info := &SessionInfo{
		ID:       fmt.Sprintf("q-%04d", s.nextID),
		Question: req.Question,
		Seed:     req.Seed,
		Status:   status,
		Worker:   -1,
		Enqueued: time.Now(),
	}
	s.sessions[info.ID] = info
	s.order = append(s.order, info.ID)
	for len(s.order) > s.cfg.MaxSessions {
		oldest := s.sessions[s.order[0]]
		if oldest.Status == "queued" || oldest.Status == "running" || oldest.Status == "awaiting_approval" {
			break // never drop live requests; trim resumes once they finish
		}
		delete(s.sessions, oldest.ID)
		// A trimmed interactive record releases its event log and stored
		// result with it — the expiry path for long-abandoned streams.
		delete(s.interactive, oldest.ID)
		s.order = s.order[1:]
	}
	return info
}

func (s *Service) finishRecord(info *SessionInfo, status string, tokens int, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info.Status = status
	info.Finished = time.Now()
	info.Tokens = tokens
	info.Error = errMsg
	switch status {
	case "done":
		s.m.Completed++
	case "failed":
		s.m.Failed++
	}
	s.m.Tokens += int64(tokens)
}

// worker drains the queue, asking through the shared Assistant; idx is
// the worker's SessionInfo.Worker.
func (s *Service) worker(idx int) {
	defer s.wg.Done()
	for t := range s.queue {
		s.dequeued(t)
		s.mu.Lock()
		t.info.Status = "running"
		t.info.Worker = idx
		t.info.Started = time.Now()
		s.m.Running++
		s.mu.Unlock()

		res := s.runTask(idx, t)

		s.mu.Lock()
		s.m.Running--
		if t.ia != nil {
			t.ia.result = res
		}
		s.mu.Unlock()
		if t.ia != nil {
			// Store-then-close ordering: a reader that drains the stream to
			// its close is guaranteed to find the result.
			t.ia.events.Close()
			close(t.ia.done)
			// Interactive asks resolve here, not in a blocked Ask call, so
			// their latency is recorded by the worker that finished them.
			s.observeAsk("miss", "interactive", res.Elapsed)
		}
		t.done <- res
	}
}

func (s *Service) runTask(idx int, t *task) *AskResult {
	start := time.Now()
	opts := core.AskOptions{
		Model:     s.cfg.NewModel(t.req.Seed),
		SessionID: t.info.ID,
	}
	if t.ia != nil {
		opts.Feedback = t.ia.feedback
		opts.Events = t.ia.events
	}
	ans, runErr := s.assistant.AskWith(t.req.Question, opts)
	res := &AskResult{
		RequestID: t.info.ID,
		SessionID: t.info.ID,
		Question:  t.req.Question,
		Seed:      t.req.Seed,
		Elapsed:   time.Since(start),
	}
	if ans == nil {
		res.Error = runErr.Error()
		s.finishRecord(t.info, "failed", 0, res.Error)
		return res
	}
	res.Summary = ans.Summary
	res.PlanSteps = len(ans.State.Plan.Steps)
	res.Tokens = ans.State.Usage.Total()
	res.RedoCount = ans.State.RedoCount
	res.StorageBytes = ans.DBBytes + ans.ProvenanceBytes
	for _, e := range ans.Artifacts {
		res.Artifacts = append(res.Artifacts, ArtifactRef{Seq: e.Seq, Kind: e.Kind, Name: e.Name, File: e.File, Bytes: e.Bytes, Offset: e.Offset})
	}
	if ans.Answer != nil {
		res.Rows = ans.Answer.NumRows()
		res.AnswerCSV = frameCSV(ans)
	}
	if runErr != nil {
		res.Error = runErr.Error()
		s.finishRecord(t.info, "failed", res.Tokens, res.Error)
		return res
	}
	s.finishRecord(t.info, "done", res.Tokens, "")
	if t.ia != nil {
		// Interactive answers are not cached: a reviewer may have reshaped
		// the plan, so the result is not reproducible from the cache key.
		s.logf("service: %s answered interactive %q on worker %d in %s (%d tokens)",
			t.info.ID, t.req.Question, idx, res.Elapsed.Round(time.Millisecond), res.Tokens)
		return res
	}
	// The run staged whatever was on disk, so cache only if the ensemble
	// still matches the key: the generation did not move, or a new walk
	// finds the same fingerprint.
	if s.cfg.Stage.Generation(s.cfg.EnsembleDir) == t.gen {
		s.cache.Put(t.key, res)
	} else if fp, _, err := s.fingerprint(); err == nil && fp == t.key.Fingerprint {
		s.cache.Put(t.key, res)
	}
	s.logf("service: %s answered %q on worker %d in %s (%d tokens)",
		t.info.ID, t.req.Question, idx, res.Elapsed.Round(time.Millisecond), res.Tokens)
	return res
}

func frameCSV(ans *core.Answer) string {
	var buf bytes.Buffer
	if err := ans.Answer.WriteCSV(&buf); err != nil {
		return ""
	}
	return buf.String()
}

// Sessions returns the session records in creation order.
func (s *Service) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, *s.sessions[id])
	}
	return out
}

// Session returns one record by ID.
func (s *Service) Session(id string) (SessionInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	info, ok := s.sessions[id]
	if !ok {
		return SessionInfo{}, false
	}
	return *info, true
}

// resolveTarget maps a session-record ID to the provenance session that
// holds its artifact trail (itself, or SourceSession for cached requests).
// The trail is on disk even when the session that computed it was trimmed
// from the bounded history or ran in a previous incarnation.
func (s *Service) resolveTarget(id string) (*provenance.Session, error) {
	s.mu.Lock()
	info, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w %q", ErrUnknownSession, id)
	}
	target := info.ID
	if info.SourceSession != "" {
		target = info.SourceSession
	}
	s.mu.Unlock()
	sess, err := s.assistant.Store().OpenSession(target)
	if errors.Is(err, fs.ErrNotExist) {
		// A running session writes its manifest with its first artifact.
		return nil, fmt.Errorf("%w: %q has no provenance", ErrUnknownSession, id)
	}
	return sess, err
}

// Provenance returns the manifest of the provenance session backing record
// id, following SourceSession for cached requests.
func (s *Service) Provenance(id string) ([]provenance.Entry, error) {
	sess, err := s.resolveTarget(id)
	if err != nil {
		return nil, err
	}
	return sess.Manifest(), nil
}

// Artifact returns the manifest entry and the bytes of artifact seq of the
// provenance session backing record id, following SourceSession for
// cached requests. An unknown seq is ErrUnknownArtifact.
func (s *Service) Artifact(id string, seq int) (provenance.Entry, []byte, error) {
	sess, err := s.resolveTarget(id)
	if err != nil {
		return provenance.Entry{}, nil, err
	}
	for _, e := range sess.Manifest() {
		if e.Seq == seq {
			data, err := sess.Read(e)
			return e, data, err
		}
	}
	return provenance.Entry{}, nil, fmt.Errorf("%w: session %q has no seq %d", ErrUnknownArtifact, id, seq)
}

// VerifySession re-hashes the artifact trail backing record id (§4.2.1
// audit), returning failing entries.
func (s *Service) VerifySession(id string) ([]provenance.Entry, error) {
	sess, err := s.resolveTarget(id)
	if err != nil {
		return nil, err
	}
	return sess.Verify()
}

// fingerprint resolves the ensemble fingerprint and the stage watch
// generation, read before any walk, it holds for: while the generation
// stays put, the stored fingerprint is served without a walk.
func (s *Service) fingerprint() (string, uint64, error) {
	gen := s.cfg.Stage.Generation(s.cfg.EnsembleDir)
	s.fpMu.Lock()
	if s.fpValue != "" && s.fpGen == gen {
		defer s.fpMu.Unlock()
		return s.fpValue, gen, nil
	}
	s.fpMu.Unlock()
	fp, err := Fingerprint(s.cfg.EnsembleDir)
	if err == nil {
		s.fpMu.Lock()
		s.fpGen, s.fpValue = gen, fp
		s.fpWalks++
		s.fpMu.Unlock()
	}
	return fp, gen, err
}

// Workers returns the number of worker goroutines.
func (s *Service) Workers() int { return s.cfg.Workers }

// CacheLen returns the current answer-cache entry count.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Metrics returns a point-in-time snapshot of the counters.
func (s *Service) Metrics() Metrics {
	fp, _, fpErr := s.fingerprint()
	s.mu.Lock()
	m := s.m
	m.PendingApprovals = s.pendingApprovals
	s.mu.Unlock()
	m.Workers = s.cfg.Workers
	m.QueueDepth = cap(s.queue)
	m.QueueLen = len(s.queue)
	m.Cache = s.cache.Stats()
	m.Stage = s.cfg.Stage.Stats()
	m.Fingerprint = fp
	if fpErr != nil {
		m.FingerprintError = fpErr.Error()
	}
	return m
}
