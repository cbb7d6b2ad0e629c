package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/agent"
	"infera/internal/client"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/service"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

const topHalosQ = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"

func testEnsembleDir(t *testing.T) string {
	t.Helper()
	return testEnsembleDirSeeded(t, 3)
}

func testEnsembleDirSeeded(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 350, 498, 624},
		HalosPerRun:      100,
		ParticlesPerStep: 100,
		BoxSize:          128,
		Seed:             seed,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

// testNode is one inferad-equivalent process: registry + HTTP server.
type testNode struct {
	reg *service.Registry
	srv *service.Server
}

func (n *testNode) base() string { return "http://" + n.srv.Addr() }

// newTestNode starts a node over the shared work root. Latency makes asks
// slow enough for a mid-load abort to catch them in flight.
func newTestNode(t *testing.T, workRoot, nodeID string, latency time.Duration) *testNode {
	t.Helper()
	return newTestNodeStage(t, workRoot, nodeID, latency, nil)
}

// newTestNodeStage is newTestNode over the given stage cache (nil: the
// process-wide one).
func newTestNodeStage(t *testing.T, workRoot, nodeID string, latency time.Duration, st *stage.Cache) *testNode {
	t.Helper()
	reg := service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{
			Stage:   st,
			Workers: 2,
			Metrics: telemetry.NewRegistry(),
			NewModel: func(seed int64) llm.Client {
				return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9, Latency: latency})
			},
		},
		WorkDir: workRoot,
		NodeID:  nodeID,
	})
	srv := service.NewServer(reg)
	if err := srv.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		reg.Close()
		srv.Close()
	})
	return &testNode{reg: reg, srv: srv}
}

func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if cfg.Metrics == nil {
		cfg.Metrics = telemetry.NewRegistry()
	}
	cfg.Logf = t.Logf
	rt := New(cfg)
	if err := rt.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// TestRouterProxyEndToEnd drives the full /v1 surface through the router
// against one real node: register, ask (miss then cache hit), session and
// provenance reads, an interactive ask with SSE plan approval, list
// fan-out, fleet status, and unregister.
func TestRouterProxyEndToEnd(t *testing.T) {
	work := t.TempDir()
	node := newTestNode(t, work, "node-a", 0)
	rt := newTestRouter(t, Config{Nodes: []string{node.base()}})
	c := client.NewRouted(rt.Addr())
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	dir := testEnsembleDir(t)
	if _, err := c.Register("ens", dir); err != nil {
		t.Fatalf("register through router: %v", err)
	}

	res, err := c.Ask("ens", service.AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatalf("ask through router: %v", err)
	}
	if res.Error != "" || res.Rows == 0 {
		t.Fatalf("ask result: %+v", res)
	}
	hit, err := c.Ask("ens", service.AskRequest{Question: topHalosQ})
	if err != nil || !hit.Cached {
		t.Fatalf("second ask: err=%v cached=%v", err, hit != nil && hit.Cached)
	}

	// Session + provenance reads proxy through.
	sessions, err := c.Sessions("ens")
	if err != nil || len(sessions) == 0 {
		t.Fatalf("sessions: %v (%d)", err, len(sessions))
	}
	entries, err := c.Provenance("ens", res.SessionID)
	if err != nil || len(entries) == 0 {
		t.Fatalf("provenance: %v (%d)", err, len(entries))
	}
	if art, err := c.Artifact("ens", res.SessionID, entries[0].Seq); err != nil || int64(len(art)) != entries[0].Bytes {
		t.Fatalf("artifact through the router: %v (%d bytes, want %d)", err, len(art), entries[0].Bytes)
	}

	// Interactive ask: SSE events and the plan approval POST cross the
	// proxy; ReviewedAsk is the same path the REPL drives.
	var sawPlan bool
	ires, err := c.ReviewedAsk("ens", service.AskRequest{Question: topHalosQ, Seed: 9, Interactive: true},
		func(ev agent.Event) agent.PlanDecision {
			sawPlan = true
			return agent.PlanDecision{Approve: true}
		}, nil)
	if err != nil {
		t.Fatalf("interactive ask through router: %v", err)
	}
	if !sawPlan || ires.Error != "" {
		t.Fatalf("interactive: sawPlan=%v res=%+v", sawPlan, ires)
	}

	// List fan-out sees the shard; fleet status names the owner.
	infos, err := c.Ensembles()
	if err != nil || len(infos) != 1 || infos[0].Name != "ens" {
		t.Fatalf("list through router: %v %+v", err, infos)
	}
	st := rt.Status()
	if st.HealthyNodes != 1 || st.Owners["ens"] != node.base() {
		t.Fatalf("fleet status: %+v", st)
	}

	if err := c.Unregister("ens", false); err != nil {
		t.Fatalf("unregister through router: %v", err)
	}
	if infos, _ := c.Ensembles(); len(infos) != 0 {
		t.Fatalf("shard survived unregister: %+v", infos)
	}
}

// TestRouterFreshness asks through the router, serves the repeat as a
// cache hit, then replaces the asked snapshot on the node's disk: once the
// node's stage watch has seen the change, the same routed ask is computed
// again and answers what a fresh service over the changed tree answers.
func TestRouterFreshness(t *testing.T) {
	st := stage.New(1<<30, 0)
	t.Cleanup(func() { st.Close() })
	if err := st.SetWatch(true); err != nil {
		t.Fatalf("SetWatch: %v", err)
	}
	node := newTestNodeStage(t, t.TempDir(), "node-a", 0, st)
	rt := newTestRouter(t, Config{Nodes: []string{node.base()}})
	c := client.NewRouted(rt.Addr())
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir, alt := testEnsembleDir(t), testEnsembleDirSeeded(t, 11)
	if _, err := c.Register("ens", dir); err != nil {
		t.Fatal(err)
	}
	req := service.AskRequest{Question: topHalosQ, Seed: 5}
	first, err := c.Ask("ens", req)
	if err != nil || first.Error != "" {
		t.Fatalf("first ask: %v %+v", err, first)
	}
	if hit, err := c.Ask("ens", req); err != nil || !hit.Cached {
		t.Fatalf("repeat ask: err=%v cached=%v", err, hit != nil && hit.Cached)
	}

	cat, err := hacc.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := cat.Find(0, 498, hacc.FileHalos)
	data, err := os.ReadFile(filepath.Join(alt, f.Path))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(t.TempDir(), "halos.gio")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	events := st.Stats().WatchEvents
	if err := os.Rename(tmp, filepath.Join(dir, f.Path)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); st.Stats().WatchEvents <= events; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for a watch event")
		}
	}

	after, err := c.Ask("ens", req)
	if err != nil || after.Error != "" || after.Cached {
		t.Fatalf("ask after the change: err=%v res=%+v", err, after)
	}
	fresh, err := service.New(service.Config{
		Workers: 1, EnsembleDir: dir, WorkDir: t.TempDir(), Stage: stage.New(1<<30, 0),
		NewModel: func(seed int64) llm.Client {
			return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	want, err := fresh.Ask(req)
	if err != nil {
		t.Fatal(err)
	}
	if after.AnswerCSV != want.AnswerCSV || after.AnswerCSV == first.AnswerCSV {
		t.Fatalf("routed answer after the change: fresh = %v, changed = %v",
			after.AnswerCSV == want.AnswerCSV, after.AnswerCSV != first.AnswerCSV)
	}
}

// TestRouterFailover is the zero-failed-asks acceptance test: two nodes,
// one killed mid-load (listener and active connections severed), every ask
// still answers. Run under -race by CI.
func TestRouterFailover(t *testing.T) {
	work := t.TempDir()
	a := newTestNode(t, work, "node-a", 10*time.Millisecond)
	b := newTestNode(t, work, "node-b", 10*time.Millisecond)
	metrics := telemetry.NewRegistry()
	rt := newTestRouter(t, Config{
		Nodes:   []string{a.base(), b.base()},
		Metrics: metrics,
	})
	c := client.NewRouted(rt.Addr())
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir := testEnsembleDir(t)
	if _, err := c.Register("ens", dir); err != nil {
		t.Fatal(err)
	}

	owner := rt.Status().Owners["ens"]
	victim, survivor := a, b
	if owner == b.base() {
		victim, survivor = b, a
	}

	const asks = 12
	errs := make(chan error, asks)
	var wg sync.WaitGroup
	var once sync.Once
	for i := 0; i < asks; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			// Unique seeds force cache misses: every ask runs the workflow,
			// so asks in flight on the victim when it dies must replay.
			res, err := c.Ask("ens", service.AskRequest{Question: topHalosQ, Seed: seed})
			if err != nil {
				errs <- fmt.Errorf("seed %d: %v", seed, err)
				return
			}
			if res.Error != "" {
				errs <- fmt.Errorf("seed %d: workflow error %s", seed, res.Error)
			}
		}(int64(i + 1))
		if i == asks/3 {
			// Kill the owner once load is in flight, exactly once.
			once.Do(func() {
				if err := victim.srv.Abort(); err != nil {
					t.Errorf("abort: %v", err)
				}
				t.Logf("aborted owner %s", victim.base())
			})
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("failed ask: %v", err)
	}

	// The prober must have ejected the corpse; the survivor owns the shard.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := rt.Status()
		if st.HealthyNodes == 1 && st.Owners["ens"] == survivor.base() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never ejected: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if v := metrics.Counter("infera_fleet_failovers_total").Value(); v == 0 {
		t.Error("no failovers recorded despite mid-load abort")
	}
	if v := metrics.Counter("infera_fleet_ejections_total", telemetry.L("node", victim.base())).Value(); v == 0 {
		t.Error("no ejection recorded for the victim")
	}

	// Post-failover asks keep answering from the survivor.
	res, err := c.Ask("ens", service.AskRequest{Question: topHalosQ, Seed: 99})
	if err != nil || res.Error != "" {
		t.Fatalf("post-failover ask: %v %+v", err, res)
	}
}

// TestRouterFailoverRevivesPersistedCache proves the lazy-spin-up story:
// the shard's answer cache, persisted by the dying owner, is revived by
// the ring successor — a repeated question stays a cache hit across the
// failover.
func TestRouterFailoverRevivesPersistedCache(t *testing.T) {
	work := t.TempDir()
	a := newTestNode(t, work, "node-a", 0)
	b := newTestNode(t, work, "node-b", 0)
	rt := newTestRouter(t, Config{Nodes: []string{a.base(), b.base()}})
	c := client.NewRouted(rt.Addr())
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	dir := testEnsembleDir(t)
	if _, err := c.Register("ens", dir); err != nil {
		t.Fatal(err)
	}
	res, err := c.Ask("ens", service.AskRequest{Question: topHalosQ})
	if err != nil || res.Error != "" {
		t.Fatalf("first ask: %v %+v", err, res)
	}

	victim, survivor := a, b
	if rt.Status().Owners["ens"] == b.base() {
		victim, survivor = b, a
	}
	// Crash the owner's listener, then close its registry — the orderly
	// half of a drain — so cache.json lands in the shared work root where
	// the successor's lazy spin-up finds it.
	if err := victim.srv.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := victim.reg.Close(); err != nil {
		t.Fatal(err)
	}

	hit, err := c.Ask("ens", service.AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatalf("ask after failover: %v", err)
	}
	if !hit.Cached {
		t.Errorf("answer recomputed, not revived from the persisted cache: %+v", hit)
	}
	if hit.AnswerCSV != res.AnswerCSV {
		t.Errorf("revived answer differs:\n%s\nvs\n%s", hit.AnswerCSV, res.AnswerCSV)
	}

	// And the successor is now the owner per the ring.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Status().Owners["ens"] != survivor.base() {
		if time.Now().After(deadline) {
			t.Fatalf("ownership never moved: %+v", rt.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterRequestHygiene checks the proxy-edge contract against a stub
// upstream: X-Request-ID propagation/generation, X-Forwarded-For, the 413
// body cap, and hop-by-hop header stripping.
func TestRouterRequestHygiene(t *testing.T) {
	var mu sync.Mutex
	var got http.Header
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "node": "stub"})
	})
	mux.HandleFunc("POST /v1/ensembles", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "{}")
	})
	mux.HandleFunc("POST /v1/ensembles/{eid}/ask", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = r.Header.Clone()
		mu.Unlock()
		w.Header().Set("Connection", "keep-alive") // hop-by-hop: must not relay
		fmt.Fprint(w, "{}")
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	rt := newTestRouter(t, Config{Nodes: []string{stub.URL}})
	base := "http://" + rt.Addr()
	reg, err := http.Post(base+"/v1/ensembles", "application/json", strings.NewReader(`{"name":"e","dir":"/d"}`))
	if err != nil || reg.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v %v", err, reg)
	}
	reg.Body.Close()

	// Client-supplied request ID propagates; X-Forwarded-For is stamped.
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/ensembles/e/ask", strings.NewReader(`{"question":"q"}`))
	req.Header.Set("X-Request-ID", "req-caller-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mu.Lock()
	upstream := got.Clone()
	mu.Unlock()
	if v := upstream.Get("X-Request-ID"); v != "req-caller-1" {
		t.Errorf("upstream X-Request-ID = %q", v)
	}
	if v := upstream.Get("X-Forwarded-For"); v == "" {
		t.Error("upstream missing X-Forwarded-For")
	}
	if v := resp.Header.Get("X-Request-ID"); v != "req-caller-1" {
		t.Errorf("response X-Request-ID = %q", v)
	}
	if v := resp.Header.Get("X-Infera-Upstream"); v != stub.URL {
		t.Errorf("X-Infera-Upstream = %q; want %q", v, stub.URL)
	}
	if v := resp.Header.Get("Connection"); strings.EqualFold(v, "keep-alive") && resp.ProtoMajor == 1 {
		// Go's HTTP/1.1 server manages its own Connection header; the
		// router must not have blindly relayed the upstream's.
		t.Logf("note: Connection header = %q (server-managed)", v)
	}

	// No request ID: the router mints one and reports it both ways.
	resp2, err := http.Post(base+"/v1/ensembles/e/ask", "application/json", strings.NewReader(`{"question":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	mu.Lock()
	minted := got.Get("X-Request-ID")
	mu.Unlock()
	if !strings.HasPrefix(minted, "r-") || len(minted) != 14 {
		t.Errorf("generated request ID = %q", minted)
	}
	if resp2.Header.Get("X-Request-ID") != minted {
		t.Errorf("response/upstream request ID mismatch: %q vs %q", resp2.Header.Get("X-Request-ID"), minted)
	}

	// Oversized body: rejected at the router edge, never forwarded.
	mu.Lock()
	got = nil
	mu.Unlock()
	big := bytes.Repeat([]byte("x"), service.MaxBodyBytes+1)
	resp3, err := http.Post(base+"/v1/ensembles/e/ask", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body status = %d; want 413", resp3.StatusCode)
	}
	mu.Lock()
	forwarded := got != nil
	mu.Unlock()
	if forwarded {
		t.Error("oversized body reached the upstream")
	}
}

// TestRouterHealthzGatesOnMembers: with every member dead the router
// itself reports 503, so WaitReady blocks until the fleet can serve.
func TestRouterHealthzGatesOnMembers(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok"}`)
	}))
	rt := newTestRouter(t, Config{Nodes: []string{stub.URL}})
	base := "http://" + rt.Addr()

	if err := client.New(base).WaitReady(5 * time.Second); err != nil {
		t.Fatalf("router not ready with live member: %v", err)
	}
	stub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router healthz stayed 200 with all members dead")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestParseNodeSpec pins the node-spec grammar: bare URLs are their own
// ring name, "name=url" names the member explicitly, and trailing slashes
// are normalized off the base either way.
func TestParseNodeSpec(t *testing.T) {
	for _, tc := range []struct{ spec, name, base string }{
		{"http://h:1", "http://h:1", "http://h:1"},
		{"http://h:1/", "http://h:1", "http://h:1"},
		{"n1=http://h:1", "n1", "http://h:1"},
		{"n1=http://h:1/", "n1", "http://h:1"},
		{" n1=https://h:1 ", "n1", "https://h:1"},
		// '=' without a URL after it is not a named spec.
		{"weird=name", "weird=name", "weird=name"},
	} {
		name, base := parseNodeSpec(tc.spec)
		if name != tc.name || base != tc.base {
			t.Errorf("parseNodeSpec(%q) = (%q, %q); want (%q, %q)", tc.spec, name, base, tc.name, tc.base)
		}
	}
}

// TestRouterNamedNodes: a named spec decouples ring identity from the dial
// address — status, owners and X-Infera-Upstream all speak the stable name,
// and placement therefore survives the member moving to a new port.
func TestRouterNamedNodes(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "ok", "node": "stub"})
	})
	mux.HandleFunc("POST /v1/ensembles", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "{}")
	})
	mux.HandleFunc("POST /v1/ensembles/{eid}/ask", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "{}")
	})
	stub := httptest.NewServer(mux)
	defer stub.Close()

	rt := newTestRouter(t, Config{Nodes: []string{"alpha=" + stub.URL}})
	base := "http://" + rt.Addr()
	reg, err := http.Post(base+"/v1/ensembles", "application/json", strings.NewReader(`{"name":"e","dir":"/d"}`))
	if err != nil || reg.StatusCode != http.StatusCreated {
		t.Fatalf("register: %v %v", err, reg)
	}
	reg.Body.Close()

	st := rt.Status()
	if len(st.Members) != 1 || st.Members[0].Name != "alpha" || st.Members[0].Base != stub.URL {
		t.Fatalf("member status = %+v", st.Members)
	}
	if st.Owners["e"] != "alpha" {
		t.Errorf("owner = %q; want ring name alpha", st.Owners["e"])
	}
	resp, err := http.Post(base+"/v1/ensembles/e/ask", "application/json", strings.NewReader(`{"question":"q"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if v := resp.Header.Get("X-Infera-Upstream"); v != "alpha" {
		t.Errorf("X-Infera-Upstream = %q; want alpha", v)
	}
}
