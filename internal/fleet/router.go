package fleet

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"infera/internal/service"
	"infera/internal/telemetry"
)

// Config parameterizes a Router. The zero value of every field is usable —
// New fills in the defaults below.
type Config struct {
	// Nodes are the member node specs: "http://host:port" or
	// "name=http://host:port". The name is the member's ring identity —
	// placement hashes it, so naming nodes keeps the keyspace assignment
	// stable when a node restarts on a different port or moves hosts.
	// Unnamed specs use the base URL as the name. Members join the ring
	// optimistically healthy and are ejected by the prober if they turn out
	// dead.
	Nodes []string

	// ProbeInterval is how often each healthy member is health-checked
	// (500ms). ProbeTimeout bounds one probe round trip (2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// DialTimeout bounds connecting to a member (2s) — a dead node must
	// fail fast so the ask can fail over instead of wedging a router
	// worker. ResponseHeaderTimeout bounds how long a member may think
	// before answering (5m: a non-interactive ask responds only at workflow
	// completion, so this is the ask deadline, not a socket nicety).
	DialTimeout           time.Duration
	ResponseHeaderTimeout time.Duration
	// StreamIdleTimeout kills a proxied response body that goes silent
	// (90s; SSE heartbeats tick every 15s, so a healthy stream never
	// trips it).
	StreamIdleTimeout time.Duration

	// Metrics receives the infera_fleet_* series (nil = metrics off, via
	// telemetry's nil-safe registry).
	Metrics *telemetry.Registry
	// Logf logs fleet events (nil = silent).
	Logf func(format string, args ...any)
}

func (c *Config) defaults() {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.ResponseHeaderTimeout <= 0 {
		c.ResponseHeaderTimeout = 5 * time.Minute
	}
	if c.StreamIdleTimeout <= 0 {
		c.StreamIdleTimeout = 90 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// FleetStatus is the GET /v1/fleet payload: ring membership, per-member
// health, and the current ensemble → owner assignment.
type FleetStatus struct {
	HealthyNodes int            `json:"healthy_nodes"`
	TotalNodes   int            `json:"total_nodes"`
	Ensembles    int            `json:"ensembles"`
	Members      []MemberStatus `json:"members"`
	// Owners maps each cataloged ensemble to the member currently owning
	// it on the ring.
	Owners map[string]string `json:"owners,omitempty"`
}

// Router reverse-proxies the /v1 API across a fleet of inferad nodes. Each
// request resolves its ensemble's ring owner and forwards there; transport
// failures mark the member suspect (accelerating its ejection) and retry
// the ring successor with the buffered body, so a node crash mid-ask
// surfaces as a slower answer, not an error. The router also keeps a
// catalog of every ensemble registered through it and lazily re-registers
// one on a node that answers "unknown ensemble" — the node may have
// restarted, or be meeting this ensemble for the first time after a
// failover reassignment.
type Router struct {
	cfg     Config
	ring    *Ring
	pool    *pool
	metrics *telemetry.Registry
	logf    func(string, ...any)

	transport   *http.Transport
	probeClient *http.Client

	mu sync.Mutex
	// ensembles is the catalog: every RegisterRequest accepted through the
	// router, keyed by name. registered marks which members have each
	// ensemble (so failover knows to register before forwarding).
	ensembles  map[string]service.RegisterRequest
	registered map[string]map[string]bool

	httpSrv *http.Server
	ln      net.Listener
	stop    chan struct{}
	wg      sync.WaitGroup
	closed  bool

	forwards  func(node string) *telemetry.Counter
	failovers *telemetry.Counter
	retries   *telemetry.Counter
}

// New returns a router over cfg.Nodes with its health prober running.
func New(cfg Config) *Router {
	cfg.defaults()
	metrics := cfg.Metrics // nil is fine: telemetry registries are nil-safe
	ring := NewRing()
	rt := &Router{
		cfg:        cfg,
		ring:       ring,
		metrics:    metrics,
		logf:       cfg.Logf,
		ensembles:  map[string]service.RegisterRequest{},
		registered: map[string]map[string]bool{},
		stop:       make(chan struct{}),
	}
	rt.pool = newPool(ring, cfg.ProbeInterval, metrics, cfg.Logf)
	rt.transport = &http.Transport{
		DialContext:           (&net.Dialer{Timeout: cfg.DialTimeout}).DialContext,
		ResponseHeaderTimeout: cfg.ResponseHeaderTimeout,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       60 * time.Second,
	}
	rt.probeClient = &http.Client{Transport: &http.Transport{
		DialContext:         (&net.Dialer{Timeout: cfg.ProbeTimeout}).DialContext,
		MaxIdleConnsPerHost: 2,
		IdleConnTimeout:     60 * time.Second,
	}}
	metrics.SetHelp("infera_fleet_forwards_total", "Requests forwarded to each member node.")
	metrics.SetHelp("infera_fleet_failovers_total", "Requests retried on a ring successor after a member failed mid-request.")
	metrics.SetHelp("infera_fleet_retries_total", "Same-node retries after lazy ensemble re-registration.")
	rt.forwards = func(node string) *telemetry.Counter {
		return metrics.Counter("infera_fleet_forwards_total", telemetry.L("node", node))
	}
	rt.failovers = metrics.Counter("infera_fleet_failovers_total")
	rt.retries = metrics.Counter("infera_fleet_retries_total")
	for _, n := range cfg.Nodes {
		rt.pool.add(parseNodeSpec(n))
	}
	rt.wg.Add(1)
	go rt.probeLoop()
	return rt
}

// parseNodeSpec splits a Config.Nodes entry into ring name and dial base.
// "name=http://host:port" names the member explicitly; a bare URL is its
// own name.
func parseNodeSpec(spec string) (name, base string) {
	spec = strings.TrimSpace(spec)
	if i := strings.Index(spec, "="); i > 0 && strings.Contains(spec[i+1:], "://") {
		return spec[:i], strings.TrimRight(spec[i+1:], "/")
	}
	base = strings.TrimRight(spec, "/")
	return base, base
}

// Handler returns the router's HTTP handler (for tests and embedding).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /v1/fleet", rt.handleFleet)
	mux.HandleFunc("GET /v1/metrics", rt.handleFleet)
	mux.HandleFunc("GET /v1/metrics/prometheus", rt.handlePrometheus)
	mux.HandleFunc("GET /v1/ensembles", rt.handleList)
	mux.HandleFunc("POST /v1/ensembles", rt.handleRegister)
	mux.HandleFunc("DELETE /v1/ensembles/{eid}", rt.handleUnregister)
	mux.HandleFunc("/v1/ensembles/{eid}", rt.handleProxy)
	mux.HandleFunc("/v1/ensembles/{eid}/{rest...}", rt.handleProxy)
	return mux
}

// Start listens on addr ("" = 127.0.0.1:0) and serves in the background.
func (rt *Router) Start(addr string) error {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	rt.ln = ln
	rt.httpSrv = &http.Server{Handler: rt.Handler()}
	go func() { _ = rt.httpSrv.Serve(ln) }()
	return nil
}

// Addr returns the listening address (host:port); empty before Start.
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// Close stops the prober and (if started) the HTTP listener.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return nil
	}
	rt.closed = true
	rt.mu.Unlock()
	close(rt.stop)
	var err error
	if rt.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = rt.httpSrv.Shutdown(ctx)
	}
	rt.wg.Wait()
	rt.transport.CloseIdleConnections()
	rt.probeClient.CloseIdleConnections()
	return err
}

// Status snapshots the fleet (also served as GET /v1/fleet).
func (rt *Router) Status() FleetStatus {
	members := rt.pool.statuses()
	rt.mu.Lock()
	owners := make(map[string]string, len(rt.ensembles))
	for name := range rt.ensembles {
		if node := rt.pool.owner(name); node != "" {
			owners[name] = node
		}
	}
	n := len(rt.ensembles)
	rt.mu.Unlock()
	return FleetStatus{
		HealthyNodes: rt.pool.healthyCount(),
		TotalNodes:   len(members),
		Ensembles:    n,
		Members:      members,
		Owners:       owners,
	}
}

// handleHealthz answers 200 while at least one member is healthy — the
// fleet can serve — and 503 otherwise, so client.WaitReady against the
// router blocks until the fleet is usable.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	healthy := rt.pool.healthyCount()
	status := "ok"
	w.Header().Set("Content-Type", "application/json")
	if healthy == 0 {
		status = "no healthy nodes"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":        status,
		"role":          "router",
		"healthy_nodes": healthy,
	})
}

func (rt *Router) handleFleet(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(rt.Status())
}

// handlePrometheus serves the router-local infera_fleet_* series. Node
// process metrics stay on the nodes — scrape each member directly.
func (rt *Router) handlePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.TextContentType)
	if rt.metrics != nil {
		_ = rt.metrics.WritePrometheus(w)
	}
}

// handleList fans GET /v1/ensembles out to every healthy member and merges
// the shard lists (deduplicated by name — one ensemble lives on exactly one
// owner, but a recent failover can leave a cold leftover on the old node;
// the ring owner's entry wins).
func (rt *Router) handleList(w http.ResponseWriter, r *http.Request) {
	byName := map[string]service.ShardInfo{}
	for _, m := range rt.pool.healthyMembers() {
		infos, err := rt.listNode(r.Context(), m.base)
		if err != nil {
			rt.logf("fleet: list %s: %v", m.name, err)
			continue
		}
		for _, info := range infos {
			if _, dup := byName[info.Name]; !dup || rt.pool.owner(info.Name) == m.name {
				byName[info.Name] = info
			}
		}
	}
	out := make([]service.ShardInfo, 0, len(byName))
	for _, info := range byName {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

func (rt *Router) listNode(ctx context.Context, base string) ([]service.ShardInfo, error) {
	ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/ensembles", nil)
	if err != nil {
		return nil, err
	}
	resp, err := rt.probeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var infos []service.ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// handleRegister catalogs the ensemble at the router, then proxies the
// registration to the ring owner. Subsequent failovers re-register from
// the catalog on whichever member inherits the ensemble.
func (rt *Router) handleRegister(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	var req service.RegisterRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("bad request: %w", err))
		return
	}
	if req.Name == "" {
		writeJSONError(w, http.StatusBadRequest, errors.New("fleet: ensemble name must be non-empty"))
		return
	}
	rt.mu.Lock()
	rt.ensembles[req.Name] = req
	if rt.registered[req.Name] == nil {
		rt.registered[req.Name] = map[string]bool{}
	}
	rt.mu.Unlock()
	rt.forward(w, r, req.Name, body, true)
}

// handleUnregister proxies the delete to the ring owner, then best-effort
// deletes the ensemble from every other member that ever held it, and drops
// it from the catalog.
func (rt *Router) handleUnregister(w http.ResponseWriter, r *http.Request) {
	eid := r.PathValue("eid")
	rt.mu.Lock()
	var others []string
	owner := rt.pool.owner(eid)
	for node := range rt.registered[eid] {
		if node != owner {
			others = append(others, node)
		}
	}
	delete(rt.ensembles, eid)
	delete(rt.registered, eid)
	rt.mu.Unlock()
	for _, node := range others {
		m := rt.pool.get(node)
		if m == nil {
			continue
		}
		func() {
			ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, m.base+"/v1/ensembles/"+eid+"?"+r.URL.RawQuery, nil)
			if err != nil {
				return
			}
			resp, err := rt.probeClient.Do(req)
			if err != nil {
				rt.logf("fleet: unregister %s on %s: %v", eid, node, err)
				return
			}
			resp.Body.Close()
		}()
	}
	rt.forward(w, r, eid, nil, false)
}

// handleProxy forwards any /v1/ensembles/{eid}[/...] request to the
// ensemble's ring owner.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	body, ok := rt.readBody(w, r)
	if !ok {
		return
	}
	rt.forward(w, r, r.PathValue("eid"), body, false)
}

// readBody buffers the request body (nil when absent), enforcing the
// node's own body cap (service.MaxBodyBytes) at the router edge with a 413.
// The buffer is what makes failover possible: the original body is
// consumed by the first attempt, the buffer replays on the successor, so
// the cap is also the replay budget.
func (rt *Router) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	if r.Body == nil || r.ContentLength == 0 {
		return nil, true
	}
	if r.ContentLength > service.MaxBodyBytes {
		writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("fleet: request body exceeds %d bytes", service.MaxBodyBytes))
		return nil, false
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, service.MaxBodyBytes+1))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, fmt.Errorf("fleet: reading request body: %w", err))
		return nil, false
	}
	if len(body) > service.MaxBodyBytes {
		writeJSONError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("fleet: request body exceeds %d bytes", service.MaxBodyBytes))
		return nil, false
	}
	return body, true
}

// forward proxies r (with its buffered body) to the member owning eid,
// walking ring successors on transport failure until every member has been
// tried once. A member that fails is reported to the prober (immediate
// re-probe → fast ejection) and never retried for this request.
// selfRegister marks that the request IS the registration (so
// ensureRegistered must not race it).
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, eid string, body []byte, selfRegister bool) {
	reqID := r.Header.Get("X-Request-ID")
	if reqID == "" {
		reqID = newRequestID()
	}
	tried := map[string]bool{}
	var lastErr error
	for attempt := 0; ; attempt++ {
		m, ok := rt.pool.pick(eid, tried)
		if !ok {
			break
		}
		if attempt > 0 {
			rt.failovers.Inc()
			rt.logf("fleet: %s %s: failing %q over to %s", r.Method, r.URL.Path, eid, m.name)
		}
		if !selfRegister {
			if err := rt.ensureRegistered(r.Context(), eid, m); err != nil {
				rt.pool.reportFailure(m, err, true)
				tried[m.name] = true
				lastErr = err
				continue
			}
		}
		resp, err := rt.send(r, m.base, body, reqID)
		if err != nil {
			// Transport-level failure: the member is suspect. Mark it for an
			// immediate verification probe and try the ring successor with
			// the replayed body.
			rt.pool.reportFailure(m, err, true)
			tried[m.name] = true
			lastErr = err
			continue
		}
		rt.forwards(m.name).Inc()
		if resp.StatusCode == http.StatusNotFound && !selfRegister && rt.knows(eid) && rt.sniffUnknownEnsemble(resp) {
			// The node forgot the ensemble (restart, eviction of a member we
			// thought had it). Re-register from the catalog and retry the
			// same node once.
			rt.unmark(eid, m.name)
			if err := rt.ensureRegistered(r.Context(), eid, m); err == nil {
				rt.retries.Inc()
				if resp, err = rt.send(r, m.base, body, reqID); err != nil {
					rt.pool.reportFailure(m, err, true)
					tried[m.name] = true
					lastErr = err
					continue
				}
			} else {
				rt.pool.reportFailure(m, err, true)
				tried[m.name] = true
				lastErr = err
				continue
			}
		}
		if selfRegister && (resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusConflict) {
			rt.mark(eid, m.name)
		}
		rt.writeResponse(w, resp, m.name, reqID)
		return
	}
	if lastErr == nil {
		lastErr = errors.New("fleet: no healthy nodes")
	}
	w.Header().Set("Retry-After", "1")
	w.Header().Set("X-Request-ID", reqID)
	writeJSONError(w, http.StatusBadGateway, fmt.Errorf("fleet: all nodes failed: %w", lastErr))
}

// send replays one attempt of the proxied request against base.
func (rt *Router) send(r *http.Request, base string, body []byte, reqID string) (*http.Response, error) {
	uri := r.URL.RequestURI()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+uri, rd)
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, r.Header)
	req.Header.Set("X-Request-ID", reqID)
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		if prior := r.Header.Get("X-Forwarded-For"); prior != "" {
			req.Header.Set("X-Forwarded-For", prior+", "+host)
		} else {
			req.Header.Set("X-Forwarded-For", host)
		}
	}
	if body != nil {
		req.ContentLength = int64(len(body))
	}
	return rt.transport.RoundTrip(req)
}

// sniffUnknownEnsemble peeks at a 404 body for the registry's typed
// "unknown ensemble" error. The body is consumed either way: on a hit the
// caller re-registers and retries, on a miss (a genuinely missing
// sub-resource, e.g. an unknown session) the buffered bytes are re-stuffed
// for passthrough.
func (rt *Router) sniffUnknownEnsemble(resp *http.Response) bool {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	if bytes.Contains(data, []byte("unknown ensemble")) {
		return true
	}
	resp.Body = io.NopCloser(bytes.NewReader(data))
	return false
}

// writeResponse relays the upstream response: headers minus hop-by-hop,
// the upstream member's ring name surfaced as X-Infera-Upstream, and the body streamed
// with per-chunk flushing so SSE events cross the proxy as they happen. An
// idle watchdog severs a stream whose upstream goes silent past
// StreamIdleTimeout (node SSE heartbeats every 15s keep healthy streams
// alive indefinitely).
func (rt *Router) writeResponse(w http.ResponseWriter, resp *http.Response, node, reqID string) {
	defer resp.Body.Close()
	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("X-Infera-Upstream", node)
	w.Header().Set("X-Request-ID", reqID)
	w.WriteHeader(resp.StatusCode)

	watchdog := time.AfterFunc(rt.cfg.StreamIdleTimeout, func() { resp.Body.Close() })
	defer watchdog.Stop()

	flusher, _ := w.(http.Flusher)
	streaming := strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream")
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			watchdog.Reset(rt.cfg.StreamIdleTimeout)
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if streaming && flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}

// knows reports whether eid is in the router's catalog.
func (rt *Router) knows(eid string) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	_, ok := rt.ensembles[eid]
	return ok
}

func (rt *Router) mark(eid, node string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.ensembles[eid]; !ok {
		return
	}
	if rt.registered[eid] == nil {
		rt.registered[eid] = map[string]bool{}
	}
	rt.registered[eid][node] = true
}

func (rt *Router) unmark(eid, node string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	delete(rt.registered[eid], node)
}

// ensureRegistered lazily registers eid on member m from the catalog if
// the router believes the node doesn't have it yet — the mechanism by
// which a failover successor (or a freshly readmitted node) learns about
// the ensembles the ring just handed it. Unknown-to-the-catalog ensembles
// forward as-is and let the node 404.
func (rt *Router) ensureRegistered(ctx context.Context, eid string, m *Member) error {
	rt.mu.Lock()
	req, known := rt.ensembles[eid]
	done := known && rt.registered[eid][m.name]
	rt.mu.Unlock()
	if !known || done {
		return nil
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.base+"/v1/ensembles", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := rt.transport.RoundTrip(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusCreated, http.StatusOK:
		rt.mark(eid, m.name)
		rt.logf("fleet: registered %q on %s", eid, m.name)
		return nil
	case http.StatusConflict:
		// Same name, different dir — the node has a conflicting shard; treat
		// as registered so the request surfaces the node's own error.
		rt.mark(eid, m.name)
		return nil
	default:
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("fleet: registering %q on %s: HTTP %d: %s", eid, m.name, resp.StatusCode, strings.TrimSpace(string(data)))
	}
}

// hopByHop are the connection-scoped headers a proxy must not relay.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if hopByHop[http.CanonicalHeaderKey(k)] {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// newRequestID mints a request correlation ID ("r-" + 12 hex chars).
func newRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "r-000000000000"
	}
	return "r-" + hex.EncodeToString(b[:])
}

func writeJSONError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
