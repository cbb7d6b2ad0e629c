// Package service turns the one-shot core.Assistant into a concurrent
// multi-session query service: a session manager owns a pool of
// per-ensemble Assistants, a bounded worker pool drains a request queue so
// N questions run concurrently against isolated staging databases, and an
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
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"infera/internal/agent"
	"infera/internal/core"
	"infera/internal/hacc"
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
	// WorkDir holds per-worker staging state; temp dirs when empty.
	WorkDir string
	// Workers is the assistant-pool size — the concurrency bound. Defaults
	// to min(4, GOMAXPROCS).
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
	// TrimHistory, SkipDocumentation and MaxRevisions are forwarded to
	// every pooled Assistant.
	TrimHistory       bool
	SkipDocumentation bool
	MaxRevisions      int
	// UseServer executes sandbox code over loopback HTTP per assistant.
	UseServer bool
	// ScriptLimits budgets every sandboxed script execution (fuel, memory,
	// wall clock, artifact bytes, stdout lines); forwarded to every pooled
	// Assistant. The zero value runs unrestricted; the daemons default it
	// to sandbox.DefaultLimits via the -script-* flags.
	ScriptLimits sandbox.Limits
	// ScriptBackend selects the script engine (sandbox.BackendVM when
	// empty, or sandbox.BackendTreeWalk as the reference escape hatch).
	ScriptBackend string
	// Stage is the staging cache the assistant pool shares, so concurrent
	// sessions staging overlapping (sim, step) slices decode each source
	// file once. Nil uses the process-wide stage.Shared() cache; set an
	// isolated cache in tests that assert on its counters.
	Stage *stage.Cache
	// FingerprintTTL memoizes the per-request ensemble fingerprint walk
	// for this long: 0 uses DefaultFingerprintTTL, negative disables
	// memoization (every request re-walks, the pre-memoization behavior).
	FingerprintTTL time.Duration
	// KeepStagingDBs preserves per-question staging databases after the
	// answer is computed. Off by default: the daemon reclaims them once
	// the workflow finishes (the provenance trail, which /sessions serves,
	// is kept either way), so sustained unique-question load doesn't grow
	// disk without bound.
	KeepStagingDBs bool
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
	// EventBuffer caps each interactive session's in-memory event log
	// (oldest events drop past it). 0 uses agent.DefaultEventCapacity.
	EventBuffer int
	// AskSlots, when non-nil, is a process-wide semaphore bounding ask
	// execution across every Service sharing the channel: a worker acquires
	// a slot before running a task and releases it after, so N shards with
	// M workers each still execute at most cap(AskSlots) asks at once. The
	// registry wires one channel into all its shards when
	// RegistryConfig.MaxConcurrentAsks is set — a node-level capacity
	// budget beneath the per-shard pools.
	AskSlots chan struct{}
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
	done chan *AskResult
	// ia is the interactive-session state (event log + approval gate); nil
	// for blocking asks.
	ia *interactive
}

// Service is the concurrent multi-session query front-end over a pool of
// Assistants. Create with New, serve over HTTP with NewServer, release with
// Close.
type Service struct {
	cfg        Config
	assistants []*core.Assistant
	// extraStores are provenance stores from worker dirs of a previous
	// incarnation beyond the current pool size (a restart with fewer
	// workers); revived cache entries may reference sessions in them.
	extraStores []*provenance.Store
	cache       *Cache
	queue       chan *task
	wg          sync.WaitGroup

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
	// sessionWorker maps provenance session ID -> assistant index, so the
	// provenance endpoint can find the right store.
	sessionWorker map[string]int
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
}

// New builds the assistant pool and starts the workers.
func New(cfg Config) (*Service, error) {
	if cfg.EnsembleDir == "" {
		return nil, errors.New("service: EnsembleDir is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 4 {
			cfg.Workers = 4
		}
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

	s := &Service{
		cfg:           cfg,
		cache:         NewCache(cfg.CacheSize),
		queue:         make(chan *task, cfg.QueueDepth),
		sessions:      map[string]*SessionInfo{},
		sessionWorker: map[string]int{},
		inflight:      map[CacheKey]chan struct{}{},
		interactive:   map[string]*interactive{},
	}
	if cfg.Name != "" {
		s.labels = []telemetry.Label{telemetry.L("ensemble", cfg.Name)}
	}
	if r := cfg.Metrics; r != nil {
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
		s.queueDepth.Set(int64(cfg.QueueDepth))
	}
	// The catalog is read-only after load; one load serves the whole pool.
	cat, err := hacc.Load(cfg.EnsembleDir)
	if err != nil {
		return nil, fmt.Errorf("service: load ensemble: %w", err)
	}
	for i := 0; i < cfg.Workers; i++ {
		workDir := ""
		if cfg.WorkDir != "" {
			workDir = filepath.Join(cfg.WorkDir, fmt.Sprintf("worker-%02d", i))
		}
		a, err := core.New(core.Config{
			EnsembleDir:       cfg.EnsembleDir,
			Catalog:           cat,
			WorkDir:           workDir,
			Seed:              cfg.Seed,
			TrimHistory:       cfg.TrimHistory,
			SkipDocumentation: cfg.SkipDocumentation,
			MaxRevisions:      cfg.MaxRevisions,
			UseServer:         cfg.UseServer,
			ScriptLimits:      cfg.ScriptLimits,
			ScriptBackend:     cfg.ScriptBackend,
			Stage:             cfg.Stage,
			// Kept staging DBs must survive on disk, so only then does the
			// session DB pay eager persistence; the default reclaim path
			// stages zero-copy in memory.
			DurableStaging: cfg.KeepStagingDBs,
			Logf:           cfg.Logf,
			Metrics:        cfg.Metrics,
			MetricLabels:   s.labels,
		})
		if err != nil {
			for _, prev := range s.assistants {
				prev.Close()
			}
			return nil, fmt.Errorf("service: assistant %d: %w", i, err)
		}
		s.assistants = append(s.assistants, a)
	}
	// Revive the persisted answer cache (if any) before traffic arrives;
	// entries from a changed ensemble are dropped by fingerprint.
	s.loadPersistedCache()
	// A stable WorkDir may hold provenance sessions from a previous
	// incarnation (daemon restart, shard revival); resume the ID sequence
	// past ALL of them — including worker dirs beyond the current pool
	// size, whose sessions persisted cache entries may still reference —
	// so new sessions never collide with (or shadow) on-disk trails. The
	// orphaned dirs' stores stay readable for provenance resolution.
	if cfg.WorkDir != "" {
		current := map[string]bool{}
		for _, a := range s.assistants {
			current[a.WorkDir()] = true
		}
		workerDirs, _ := filepath.Glob(filepath.Join(cfg.WorkDir, "worker-*"))
		for _, w := range workerDirs {
			entries, err := os.ReadDir(filepath.Join(w, "sessions"))
			if err != nil {
				continue
			}
			for _, e := range entries {
				var n int
				if _, err := fmt.Sscanf(e.Name(), "q-%d", &n); err == nil && n > s.nextID {
					s.nextID = n
				}
			}
			if !current[w] && len(entries) > 0 {
				if store, err := provenance.NewStore(filepath.Join(w, "sessions")); err == nil {
					s.extraStores = append(s.extraStores, store)
				}
			}
		}
	}
	for i, a := range s.assistants {
		s.wg.Add(1)
		go s.worker(i, a)
	}
	return s, nil
}

// Close drains the queue, stops the workers, persists the answer cache
// (when WorkDir is stable — see persist.go) and releases the assistants.
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
	var first error
	// All workers have stopped, so the cache is quiescent: this snapshot is
	// complete, including answers computed by the final drain.
	if err := s.persistCache(); err != nil {
		first = err
	}
	// Retention sweep after the persist: the snapshot just written defines
	// exactly which sessions the revived cache can still reference.
	if removed, freed := s.sweepProvenance(); removed > 0 {
		s.logf("service: provenance sweep removed %d session trail(s), %d bytes", removed, freed)
	}
	for _, a := range s.assistants {
		if err := a.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
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
	fp, err := s.fingerprint()
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

	info := s.newSessionRecord(req, "queued")
	t := &task{info: info, req: req, key: key, done: make(chan *AskResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.m.Rejected++
		s.mu.Unlock()
		s.finishRecord(info, "rejected", 0, ErrClosed.Error())
		return nil, ErrClosed
	}
	select {
	case s.queue <- t:
		s.m.Queued++
		s.enqueuedLocked(t)
		s.mu.Unlock()
	default:
		s.m.Rejected++
		s.mu.Unlock()
		s.finishRecord(info, "rejected", 0, ErrQueueFull.Error())
		return nil, ErrQueueFull
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
		delete(s.sessionWorker, oldest.ID)
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

// worker drains the queue with exclusive ownership of one Assistant.
func (s *Service) worker(idx int, a *core.Assistant) {
	defer s.wg.Done()
	for t := range s.queue {
		s.dequeued(t)
		s.mu.Lock()
		t.info.Status = "running"
		t.info.Worker = idx
		t.info.Started = time.Now()
		s.sessionWorker[t.info.ID] = idx
		s.m.Running++
		s.mu.Unlock()

		// The node-wide ask budget (when configured) is held only for the
		// execution itself — queueing above stays unbounded by it.
		if s.cfg.AskSlots != nil {
			s.cfg.AskSlots <- struct{}{}
		}
		res := s.runTask(idx, a, t)
		if s.cfg.AskSlots != nil {
			<-s.cfg.AskSlots
		}

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

func (s *Service) runTask(idx int, a *core.Assistant, t *task) *AskResult {
	start := time.Now()
	opts := core.AskOptions{
		Model:     s.cfg.NewModel(t.req.Seed),
		SessionID: t.info.ID,
	}
	if t.ia != nil {
		opts.Feedback = t.ia.feedback
		opts.Events = t.ia.events
	}
	ans, runErr := a.AskWith(t.req.Question, opts)
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
	if !s.cfg.KeepStagingDBs {
		// The staging DB is scratch space once the run finishes; artifacts
		// live in the provenance trail.
		_ = a.RemoveStagingDB(t.info.ID)
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
	// Cache only under a fingerprint that still matches the ensemble. The
	// key was resolved (possibly from the TTL memo) at enqueue time, but
	// the workflow staged whatever bytes were on disk during the run — if
	// the ensemble changed in between, this answer must not be keyed to
	// the old state. The uncached walk is not free: on the benchmark's
	// warm_mixed workload (160 files, 2-core box) it is about 1.7 ms of
	// lstat and readdir per computed answer, 7 % of process CPU. Driving
	// the fingerprint from the stage cache's file watcher would remove it
	// (ROADMAP.md).
	if fp, err := Fingerprint(s.cfg.EnsembleDir); err == nil && fp == t.key.Fingerprint {
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
// holds its artifact trail (itself, or SourceSession for cached requests),
// opened from the store that contains it. When the backing record was
// trimmed from the bounded history — or revived from a persisted cache and
// computed by a previous incarnation — the trail is still on disk, so
// resolution falls back to scanning the pool's stores and any orphaned
// worker stores a restart left behind.
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
	idx, ok := s.sessionWorker[target]
	s.mu.Unlock()
	if ok {
		return s.assistants[idx].Store().OpenSession(target)
	}
	stores := make([]*provenance.Store, 0, len(s.assistants)+len(s.extraStores))
	for _, a := range s.assistants {
		stores = append(stores, a.Store())
	}
	stores = append(stores, s.extraStores...)
	for _, store := range stores {
		if sess, err := store.OpenSession(target); err == nil {
			return sess, nil
		}
	}
	return nil, fmt.Errorf("%w: %q has no provenance", ErrUnknownSession, id)
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

// fingerprint resolves the ensemble fingerprint, memoized per
// FingerprintTTL so the cached-answer path skips the stat walk.
func (s *Service) fingerprint() (string, error) {
	if s.cfg.FingerprintTTL < 0 {
		return Fingerprint(s.cfg.EnsembleDir)
	}
	return CachedFingerprint(s.cfg.EnsembleDir, s.cfg.FingerprintTTL)
}

// Workers returns the assistant-pool size.
func (s *Service) Workers() int { return len(s.assistants) }

// CacheLen returns the current answer-cache entry count.
func (s *Service) CacheLen() int { return s.cache.Len() }

// Metrics returns a point-in-time snapshot of the counters.
func (s *Service) Metrics() Metrics {
	fp, fpErr := s.fingerprint()
	s.mu.Lock()
	m := s.m
	m.PendingApprovals = s.pendingApprovals
	s.mu.Unlock()
	m.Workers = len(s.assistants)
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
