package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"infera/internal/agent"
	"infera/internal/provenance"
	"infera/internal/telemetry"
)

// Server exposes a shard Registry over HTTP as a versioned JSON resource
// API:
//
//	GET    /v1/ensembles                                 -> []ShardInfo
//	POST   /v1/ensembles                                 {"name", "dir", "workers"?, "cache_capacity"?} -> ShardInfo (201)
//	GET    /v1/ensembles/{eid}                           -> ShardInfo (live/cold, workers, cache, fingerprint age)
//	DELETE /v1/ensembles/{eid}[?purge=provenance]        -> 204 (unregister; purge removes the on-disk trail)
//	POST   /v1/ensembles/{eid}/warm                      -> ShardInfo (spin the pool + fingerprint up before a burst)
//	POST   /v1/ensembles/{eid}/ask                       {"question", "seed"?} -> AskResult
//	                                                     {..., "interactive": true} -> SessionInfo (202)
//	GET    /v1/ensembles/{eid}/sessions                  -> []SessionInfo
//	GET    /v1/ensembles/{eid}/sessions/{id}             -> SessionInfo
//	GET    /v1/ensembles/{eid}/sessions/{id}/events      -> SSE stream (resume with Last-Event-ID or ?from=N)
//	POST   /v1/ensembles/{eid}/sessions/{id}/plan        {"approve", "comment"?} -> 200 / 409 when nothing pending
//	GET    /v1/ensembles/{eid}/sessions/{id}/result      -> AskResult (409 until the session finishes)
//	GET    /v1/ensembles/{eid}/sessions/{id}/provenance  -> []provenance.Entry
//	GET    /v1/ensembles/{eid}/sessions/{id}/artifacts/{seq} -> the artifact's bytes (Content-Type by kind)
//	GET    /v1/ensembles/{eid}/metrics                   -> Metrics (one shard)
//	GET    /v1/metrics                                   -> RegistryMetrics (aggregate)
//	GET    /v1/metrics/prometheus                        -> Prometheus text exposition (fleet-wide, ensemble=<shard> labels)
//	GET    /healthz                                      -> HealthInfo (node identity, shard counts, uptime)
type Server struct {
	reg  *Registry
	http *http.Server
	ln   net.Listener
}

// NewServer returns an unstarted HTTP front-end for reg.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/ensembles", s.handleList)
	mux.HandleFunc("POST /v1/ensembles", s.handleRegister)
	mux.HandleFunc("GET /v1/ensembles/{eid}", s.handleDetail)
	mux.HandleFunc("DELETE /v1/ensembles/{eid}", s.handleUnregister)
	mux.HandleFunc("POST /v1/ensembles/{eid}/warm", s.handleWarm)
	mux.HandleFunc("POST /v1/ensembles/{eid}/ask", s.handleAsk)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions", s.handleSessions)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions/{id}", s.handleSession)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/ensembles/{eid}/sessions/{id}/plan", s.handleSubmitPlan)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions/{id}/provenance", s.handleProvenance)
	mux.HandleFunc("GET /v1/ensembles/{eid}/sessions/{id}/artifacts/{seq}", s.handleArtifact)
	mux.HandleFunc("GET /v1/ensembles/{eid}/metrics", s.handleShardMetrics)
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.reg.Metrics())
	})
	mux.HandleFunc("GET /v1/metrics/prometheus", s.handlePrometheus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		// JSON node detail (identity, shard counts, uptime) for fleet
		// probers; plain liveness checks only need the 200.
		writeJSON(w, s.reg.Health())
	})
	s.http = &http.Server{Handler: mux, ReadTimeout: 30 * time.Second}
	return s
}

// Start listens on addr ("" = 127.0.0.1:0) and serves in the background.
func (s *Server) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go func() { _ = s.http.Serve(ln) }()
	return nil
}

// Addr returns the listening address (host:port); empty before Start.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close gracefully shuts the HTTP listener down, waiting for active
// handlers (the Registry itself is closed separately by its owner — close
// it first so handlers blocked in Ask drain rather than hang here).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

// Abort hard-closes the server: the listener and every active connection
// die immediately, in-flight requests included. This simulates a node
// crash for fleet failover tests — production shutdown is Close.
func (s *Server) Abort() error {
	return s.http.Close()
}

// errorBody is the wire form of a failed request.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON encodes v as the JSON response body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// decodeBody decodes the JSON request body, at most MaxBodyBytes bytes, into
// v. On failure it answers the request — 413 for an oversized body, 400
// for anything else — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxBodyBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
	} else {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
	}
	return false
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

// writeRegistryError maps registry/shard errors onto HTTP statuses shared
// by every eid-scoped handler.
func writeRegistryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrUnknownEnsemble), errors.Is(err, ErrUnknownSession), errors.Is(err, ErrUnknownArtifact):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrShardCold):
		// The resource exists but has no live session state; 404 on the
		// sub-resource with the reason spelled out.
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, ErrNotInteractive):
		// The record exists but has no event log / approval gate.
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrNotFinished), errors.Is(err, agent.ErrNoPendingPlan):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrClosed), errors.Is(err, ErrRegistryClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrEmptyQuestion):
		writeError(w, http.StatusBadRequest, err)
	default:
		// Anything else is a server-side condition (e.g. the ensemble dir
		// became unreadable mid-fingerprint), not a client mistake.
		writeError(w, http.StatusInternalServerError, err)
	}
}

// MaxBodyBytes bounds every JSON request body (ask, register, plan
// decision); questions and comments are sentences, so anything past 1 MB is
// abuse, not traffic. The fleet router enforces the same cap at its edge.
const MaxBodyBytes = 1 << 20

// RegisterRequest is the POST /v1/ensembles payload. Workers and
// CacheCapacity, when set, override the daemon-wide defaults for this shard
// (applied at every spin-up).
type RegisterRequest struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	// Workers overrides the shard's worker count (0 inherits).
	Workers int `json:"workers,omitempty"`
	// CacheCapacity overrides the shard's answer-cache capacity (0 inherits).
	CacheCapacity int `json:"cache_capacity,omitempty"`
	// ScriptFuel / ScriptMemBytes / ScriptTimeoutMS override the shard's
	// sandbox execution budgets (0 inherits the daemon-wide -script-* flags).
	ScriptFuel      int64 `json:"script_fuel,omitempty"`
	ScriptMemBytes  int64 `json:"script_mem_bytes,omitempty"`
	ScriptTimeoutMS int64 `json:"script_timeout_ms,omitempty"`
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.reg.Ensembles())
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeBody(w, r, &req) {
		return
	}
	info, err := s.reg.RegisterWith(req.Name, req.Dir, ShardOptions{
		Workers: req.Workers, CacheSize: req.CacheCapacity,
		ScriptFuel: req.ScriptFuel, ScriptMemBytes: req.ScriptMemBytes, ScriptTimeoutMS: req.ScriptTimeoutMS,
	})
	switch {
	case errors.Is(err, ErrEnsembleExists):
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ErrBadEnsembleName):
		writeError(w, http.StatusBadRequest, err)
		return
	case errors.Is(err, ErrRegistryClosed):
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		// An unloadable catalog is the client's mistake: wrong directory.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Headers must precede WriteHeader, or writeJSON's Content-Type is lost.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	writeJSON(w, info)
}

func (s *Server) handleDetail(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Ensemble(r.PathValue("eid"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleAsk(w http.ResponseWriter, r *http.Request) {
	var req AskRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Interactive {
		info, err := s.reg.AskInteractive(r.PathValue("eid"), req)
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		// 202: the job is accepted and running; follow the session's event
		// stream and submit plan decisions while it does.
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Location", fmt.Sprintf("/v1/ensembles/%s/sessions/%s", r.PathValue("eid"), info.ID))
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, info)
		return
	}
	res, err := s.reg.Ask(r.PathValue("eid"), req)
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	// Workflow failures still return 200 with res.Error set: the request
	// was served and its partial state is inspectable via provenance.
	writeJSON(w, res)
}

// pinned serves one request of shard {eid}'s session state or metrics: it
// pins the shard live, calls serve with the shard's Service and releases
// the pin when serve returns, so these routes never spin a pool up. A
// registry error answers through writeRegistryError. A cold shard has no
// session state and answers 404, unless cold is given: cold then answers
// from the metrics the shard reports while cold. A handler checks its own
// request (cursor, body, seq) before it calls pinned, so a malformed
// request answers 400 whatever state the shard is in.
func (s *Server) pinned(w http.ResponseWriter, r *http.Request, cold func(Metrics), serve func(*Service)) {
	sh, svc, stub, err := s.reg.pinLive(r.PathValue("eid"))
	if errors.Is(err, ErrShardCold) && cold != nil {
		cold(stub)
		return
	}
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	defer s.reg.release(sh)
	serve(svc)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	s.pinned(w, r, func(Metrics) {
		// A cold shard's session records died with its pool.
		writeJSON(w, []SessionInfo{})
	}, func(svc *Service) {
		writeJSON(w, svc.Sessions())
	})
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.pinned(w, r, nil, func(svc *Service) {
		info, ok := svc.Session(id)
		if !ok {
			writeRegistryError(w, fmt.Errorf("%w %q", ErrUnknownSession, id))
			return
		}
		writeJSON(w, info)
	})
}

func (s *Server) handleProvenance(w http.ResponseWriter, r *http.Request) {
	s.pinned(w, r, nil, func(svc *Service) {
		entries, err := svc.Provenance(r.PathValue("id"))
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		writeJSON(w, entries)
	})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad artifact seq %q", r.PathValue("seq")))
		return
	}
	s.pinned(w, r, nil, func(svc *Service) {
		e, data, err := svc.Artifact(r.PathValue("id"), seq)
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		w.Header().Set("Content-Type", artifactContentType(e))
		w.Header().Set("Content-Length", strconv.Itoa(len(data)))
		w.Write(data)
	})
}

// artifactContentType is the Content-Type an artifact is served with,
// chosen by its kind (and, for plots, its name's extension).
func artifactContentType(e provenance.Entry) string {
	switch e.Kind {
	case "data":
		return "text/csv; charset=utf-8"
	case "checkpoint":
		return "application/json"
	case "summary":
		return "text/markdown; charset=utf-8"
	case "plot":
		if strings.HasSuffix(e.Name, ".svg") {
			return "image/svg+xml"
		}
		return "application/octet-stream"
	default: // code, plan, retrieval, report, scene (legacy VTK text)
		return "text/plain; charset=utf-8"
	}
}

func (s *Server) handleShardMetrics(w http.ResponseWriter, r *http.Request) {
	s.pinned(w, r, func(stub Metrics) {
		writeJSON(w, stub)
	}, func(svc *Service) {
		writeJSON(w, svc.Metrics())
	})
}

// handlePrometheus encodes the shared telemetry registry in the
// Prometheus text exposition format. One endpoint serves the whole
// fleet: per-shard series are distinguished by their ensemble=<name>
// label rather than per-shard scrape targets.
func (s *Server) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.TextContentType)
	if err := s.reg.Telemetry().WritePrometheus(w); err != nil {
		// Headers are already out; all we can do is drop the connection.
		s.reg.logf("http: prometheus encode: %v", err)
	}
}

func (s *Server) handleUnregister(w http.ResponseWriter, r *http.Request) {
	purge := r.URL.Query().Get("purge") == "provenance"
	if err := s.reg.Unregister(r.PathValue("eid"), purge); err != nil {
		writeRegistryError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleWarm(w http.ResponseWriter, r *http.Request) {
	info, err := s.reg.Warm(r.PathValue("eid"))
	if err != nil {
		writeRegistryError(w, err)
		return
	}
	writeJSON(w, info)
}

func (s *Server) handleSubmitPlan(w http.ResponseWriter, r *http.Request) {
	var d agent.PlanDecision
	if !decodeBody(w, r, &d) {
		return
	}
	s.pinned(w, r, nil, func(svc *Service) {
		if err := svc.SubmitPlan(r.PathValue("id"), d); err != nil {
			writeRegistryError(w, err)
			return
		}
		writeJSON(w, map[string]string{"status": "accepted"})
	})
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.pinned(w, r, nil, func(svc *Service) {
		res, err := svc.Result(r.PathValue("id"))
		if err != nil {
			writeRegistryError(w, err)
			return
		}
		writeJSON(w, res)
	})
}

// sseHeartbeat is how often an idle SSE stream emits a comment frame.
const sseHeartbeat = 15 * time.Second

// handleEvents streams a session's event log. Default is server-sent
// events: one frame per event with id == Seq, resumable via the standard
// Last-Event-ID header (or ?from=N), terminated by an "event: done"
// sentinel once the stream completes. The shard stays pinned for the
// whole stream, so a watched session's shard is never idle-evicted under
// it.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	after, err := eventCursor(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	s.pinned(w, r, nil, func(svc *Service) {
		streamEvents(w, flusher, r.Context(), svc, r.PathValue("id"), after)
	})
}

// streamEvents writes session id's events past after as SSE frames until
// the stream completes or ctx is done.
func streamEvents(w http.ResponseWriter, flusher http.Flusher, ctx context.Context, svc *Service, id string, after int) {
	// Validate the session before committing to the stream content type, so
	// a bad ID still gets a proper JSON error status.
	if _, err := svc.lookupInteractive(id); err != nil {
		writeRegistryError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		// Each wait is bounded by the heartbeat interval: an idle stream
		// (e.g. a plan sitting in review) emits a comment frame every
		// sseHeartbeat so intermediaries with idle timeouts keep the
		// connection open and clients can tell alive from dead.
		waitCtx, cancel := context.WithTimeout(ctx, sseHeartbeat)
		events, done, err := svc.WaitEvents(waitCtx, id, after)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
			continue
		}
		if err != nil {
			// The client went away, or the session record was trimmed;
			// either way the stream is over. A resuming client reconnects
			// with Last-Event-ID and picks up exactly where it left off.
			return
		}
		for _, ev := range events {
			data, err := json.Marshal(ev)
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Kind, data)
			after = ev.Seq
		}
		flusher.Flush()
		if done {
			fmt.Fprint(w, "event: done\ndata: {}\n\n")
			flusher.Flush()
			return
		}
	}
}

// eventCursor reads an events request's resume cursor: the Last-Event-ID
// header, else ?from=N, else 0 (the whole stream). A cursor that does not
// parse must fail loudly, and so must ?after=, which names no cursor this
// endpoint serves: silently restarting from 0 would replay the whole
// stream and break the no-duplication contract for consumers that trust
// it.
func eventCursor(r *http.Request) (int, error) {
	q := r.URL.Query()
	if q.Has("after") {
		return 0, errors.New("?after= is not supported: follow the SSE stream and resume it with the Last-Event-ID header or ?from=N")
	}
	name, v := "Last-Event-ID", r.Header.Get("Last-Event-ID")
	if v == "" {
		name, v = "from cursor", q.Get("from")
	}
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", name, v)
	}
	return n, nil
}
