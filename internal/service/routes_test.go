package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/agent"
)

// shardRoutes are the routes that read one shard's session state or
// metrics, keyed by a short name; %[1]s is the shard and %[2]s the session.
var shardRoutes = []struct {
	name, method, path string
}{
	{"sessions", http.MethodGet, "/v1/ensembles/%[1]s/sessions"},
	{"session", http.MethodGet, "/v1/ensembles/%[1]s/sessions/%[2]s"},
	{"events", http.MethodGet, "/v1/ensembles/%[1]s/sessions/%[2]s/events"},
	{"plan", http.MethodPost, "/v1/ensembles/%[1]s/sessions/%[2]s/plan"},
	{"result", http.MethodGet, "/v1/ensembles/%[1]s/sessions/%[2]s/result"},
	{"provenance", http.MethodGet, "/v1/ensembles/%[1]s/sessions/%[2]s/provenance"},
	{"artifact", http.MethodGet, "/v1/ensembles/%[1]s/sessions/%[2]s/artifacts/0"},
	{"metrics", http.MethodGet, "/v1/ensembles/%[1]s/metrics"},
}

// callRoute sends one request to the named shard route and returns its
// status and body.
func callRoute(t *testing.T, base, route, eid, id string) (int, string) {
	t.Helper()
	for _, rt := range shardRoutes {
		if rt.name != route {
			continue
		}
		var body io.Reader
		if rt.method == http.MethodPost {
			body = strings.NewReader(`{"approve": true}`)
		}
		req, err := http.NewRequest(rt.method, base+fmt.Sprintf(rt.path, eid, id), body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", rt.method, req.URL.Path, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	t.Fatalf("no route %q", route)
	return 0, ""
}

// errJSON is the exact body writeError answers with.
func errJSON(msg string) string {
	data, _ := json.Marshal(errorBody{Error: msg})
	return string(data) + "\n"
}

// TestHTTPSessionRouteStatuses pins the status and the exact body of every
// session sub-resource and of the per-shard metrics in each state a request
// can find them: an unknown ensemble, a cold shard, an unknown session, a
// non-interactive session, an unfinished one, one with no plan pending, and
// a closed registry. The fleet router relies on these bodies: a 404 that
// names "unknown ensemble" makes it re-register the shard, any other 404
// passes through.
func TestHTTPSessionRouteStatuses(t *testing.T) {
	// A plan left in review waits for its reviewer, not for a deadline.
	srv, base := startServer(t, Config{Workers: 1, ApprovalTimeout: 10 * time.Minute})
	if _, err := srv.reg.Register("cold", testEnsembleSeeded(t, 11)); err != nil {
		t.Fatal(err)
	}

	// q-0001: a blocking ask. q-0002: an interactive session reviewed to the
	// end. q-0003: an interactive session still queued or in review.
	plain, code := postAsk(t, base, AskRequest{Question: topHalosQ})
	if code != http.StatusOK || plain.RequestID != "q-0001" {
		t.Fatalf("blocking ask: %d %+v", code, plain)
	}
	done := startInteractive(t, base, "default", topHalosQ, 2)
	deadline := time.Now().Add(30 * time.Second)
	for submitPlan(t, base, "default", done.ID, agent.PlanDecision{Approve: true}) != http.StatusOK {
		if time.Now().After(deadline) {
			t.Fatal("plan never became pending")
		}
		time.Sleep(2 * time.Millisecond)
	}
	for {
		if code, _ := callRoute(t, base, "result", "default", done.ID); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interactive session never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	held := startInteractive(t, base, "default", topHalosQ, 3)
	if done.ID != "q-0002" || held.ID != "q-0003" {
		t.Fatalf("session ids %s, %s; want q-0002, q-0003", done.ID, held.ID)
	}

	type want struct {
		code int
		body string
	}
	check := func(state, route, eid, id string, w want) {
		t.Helper()
		code, body := callRoute(t, base, route, eid, id)
		if code != w.code || body != w.body {
			t.Errorf("%s: %s = %d %q, want %d %q", state, route, code, body, w.code, w.body)
		}
	}

	unknownEnsemble := want{http.StatusNotFound, errJSON("service: unknown ensemble")}
	for _, rt := range shardRoutes {
		check("unknown ensemble", rt.name, "nope", plain.RequestID, unknownEnsemble)
	}

	shardCold := want{http.StatusNotFound, errJSON("service: shard is cold (no live session state)")}
	for _, rt := range shardRoutes {
		switch rt.name {
		case "sessions":
			check("cold shard", rt.name, "cold", plain.RequestID, want{http.StatusOK, "[]\n"})
		case "metrics":
			// A never-opened shard reports zero counters, no fingerprint and
			// no persisted cache; the stage object is the shared cache's.
			code, body := callRoute(t, base, rt.name, "cold", "")
			var m Metrics
			if err := json.Unmarshal([]byte(body), &m); code != http.StatusOK || err != nil {
				t.Fatalf("cold shard: metrics = %d %q (%v)", code, body, err)
			}
			if m.Fingerprint != "" || m.Cache.Len != 0 || m.Workers != 0 || m.Queued != 0 || m.Stage.BudgetBytes <= 0 {
				t.Errorf("cold shard: metrics stub = %+v", m)
			}
		default:
			check("cold shard", rt.name, "cold", plain.RequestID, shardCold)
		}
	}

	unknownID := `"q-9999"`
	for route, w := range map[string]want{
		"session":    {http.StatusNotFound, errJSON("service: unknown session " + unknownID)},
		"events":     {http.StatusNotFound, errJSON("service: unknown session: " + unknownID)},
		"plan":       {http.StatusNotFound, errJSON("service: unknown session: " + unknownID)},
		"result":     {http.StatusNotFound, errJSON("service: unknown session: " + unknownID)},
		"provenance": {http.StatusNotFound, errJSON("service: unknown session " + unknownID)},
		"artifact":   {http.StatusNotFound, errJSON("service: unknown session " + unknownID)},
	} {
		check("unknown session", route, "default", "q-9999", w)
	}

	notInteractive := want{http.StatusConflict, errJSON(`service: session is not interactive: "q-0001"`)}
	for _, route := range []string{"events", "plan", "result"} {
		check("non-interactive session", route, "default", plain.RequestID, notInteractive)
	}
	check("unfinished session", "result", "default", held.ID,
		want{http.StatusConflict, errJSON(`service: session not finished: "q-0003"`)})
	check("no pending plan", "plan", "default", done.ID,
		want{http.StatusConflict, errJSON("agent: no plan awaiting review")})

	if err := srv.reg.Close(); err != nil {
		t.Fatal(err)
	}
	closed := want{http.StatusServiceUnavailable, errJSON("service: registry closed")}
	for _, eid := range []string{"default", "cold", "nope"} {
		for _, rt := range shardRoutes {
			check("closed registry", rt.name, eid, plain.RequestID, closed)
		}
	}
}

// TestHTTPColdMetricsRaceUnregister reads a cold shard's metrics while the
// shard is unregistered and registered again, over and over. Every read
// must answer the cold stub or "unknown ensemble": the stub is built under
// the lock hold that saw the shard cold, so an Unregister cannot delete the
// shard between the check and the stub. Run under -race.
func TestHTTPColdMetricsRaceUnregister(t *testing.T) {
	reg, _ := testRegistry(t, 1, nil)
	dir := testEnsemble(t)
	if _, err := reg.Register("x", dir); err != nil {
		t.Fatal(err)
	}
	h := NewServer(reg).http.Handler

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := reg.Unregister("x", false); err != nil {
				t.Error(err)
				return
			}
			if _, err := reg.Register("x", dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	const rounds = 3000
	unknown := errJSON("service: unknown ensemble")
	var stubs, gone int
	for i := 0; i < rounds; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/ensembles/x/metrics", nil))
		var m Metrics
		switch {
		case rec.Code == http.StatusNotFound && rec.Body.String() == unknown:
			gone++
		case rec.Code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &m) == nil && m.Workers == 0 && m.Queued == 0:
			stubs++
		default:
			t.Fatalf("round %d: %d %q, want the cold stub or %q", i, rec.Code, rec.Body.String(), unknown)
		}
	}
	t.Logf("%d cold stubs, %d unknown-ensemble answers", stubs, gone)
}

// TestHTTPProvenanceBeforeFirstArtifact: a running session writes its
// manifest with its first artifact, so one held in plan review has no trail
// yet. Its provenance and artifacts answer 404 "has no provenance", like a
// record with no trail anywhere, and not the store's file-system error.
func TestHTTPProvenanceBeforeFirstArtifact(t *testing.T) {
	_, base := startServer(t, Config{Workers: 1, ApprovalTimeout: 10 * time.Minute})
	held := startInteractive(t, base, "default", topHalosQ, 3)
	deadline := time.Now().Add(30 * time.Second)
	for {
		var info SessionInfo
		if code := getJSON(t, base+defaultShard+"/sessions/"+held.ID, &info); code == http.StatusOK && info.Status == "awaiting_approval" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("plan never became pending")
		}
		time.Sleep(2 * time.Millisecond)
	}
	want := errJSON(fmt.Sprintf("service: unknown session: %q has no provenance", held.ID))
	for _, route := range []string{"provenance", "artifact"} {
		if code, body := callRoute(t, base, route, "default", held.ID); code != http.StatusNotFound || body != want {
			t.Errorf("%s in plan review = %d %q, want 404 %q", route, code, body, want)
		}
	}
}
