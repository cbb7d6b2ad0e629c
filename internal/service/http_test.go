package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/provenance"
)

// startServer serves one "default" shard built from cfg through a registry,
// mirroring a single-ensemble daemon; defaultShard is its resource path.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.EnsembleDir == "" {
		cfg.EnsembleDir = testEnsemble(t)
	}
	if cfg.NewModel == nil {
		cfg.NewModel = errFreeModel
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	dir := cfg.EnsembleDir
	cfg.EnsembleDir, cfg.WorkDir = "", "" // per-shard, registry-managed
	reg := NewRegistry(RegistryConfig{Defaults: cfg, WorkDir: t.TempDir()})
	if _, err := reg.Register("default", dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := NewServer(reg)
	if err := srv.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + srv.Addr()
}

const defaultShard = "/v1/ensembles/default"

func postAsk(t *testing.T, base string, req AskRequest) (*AskResult, int) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+defaultShard+"/ask", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out AskResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestHTTPAskSessionsProvenanceMetrics(t *testing.T) {
	_, base := startServer(t, Config{Workers: 2})

	// healthz first.
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	res, code := postAsk(t, base, AskRequest{Question: topHalosQ})
	if code != http.StatusOK || res.Error != "" || res.Rows != 20 {
		t.Fatalf("ask: code=%d res=%+v", code, res)
	}

	// Repeat over the wire: cache hit.
	res2, _ := postAsk(t, base, AskRequest{Question: topHalosQ})
	if !res2.Cached || res2.SessionID != res.SessionID {
		t.Fatalf("second ask = %+v", res2)
	}

	var sessions []SessionInfo
	if code := getJSON(t, base+defaultShard+"/sessions", &sessions); code != http.StatusOK || len(sessions) != 2 {
		t.Fatalf("sessions: %d %v", code, sessions)
	}

	var one SessionInfo
	if code := getJSON(t, base+defaultShard+"/sessions/"+res.RequestID, &one); code != http.StatusOK || one.Status != "done" {
		t.Fatalf("session: %d %+v", code, one)
	}

	var entries []provenance.Entry
	if code := getJSON(t, base+defaultShard+"/sessions/"+res.RequestID+"/provenance", &entries); code != http.StatusOK || len(entries) == 0 {
		t.Fatalf("provenance: %d %d entries", code, len(entries))
	}
	// The cached record resolves to the same trail.
	var viaCache []provenance.Entry
	if code := getJSON(t, base+defaultShard+"/sessions/"+res2.RequestID+"/provenance", &viaCache); code != http.StatusOK || len(viaCache) != len(entries) {
		t.Fatalf("cached provenance: %d %d vs %d", code, len(viaCache), len(entries))
	}

	var m Metrics
	if code := getJSON(t, base+defaultShard+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if m.Completed != 1 || m.CachedTotal != 1 || m.Cache.Hits != 1 || m.Fingerprint == "" {
		t.Errorf("metrics = %+v", m)
	}
	// The staging cache is surfaced on /metrics: budget configured and the
	// ask's snapshot decodes accounted for.
	if m.Stage.BudgetBytes <= 0 || m.Stage.Opens == 0 {
		t.Errorf("stage metrics = %+v", m.Stage)
	}

	// Unknown session -> 404.
	var dummy SessionInfo
	if code := getJSON(t, base+defaultShard+"/sessions/q-9999", &dummy); code != http.StatusNotFound {
		t.Errorf("unknown session code = %d", code)
	}
	// Bad body -> 400.
	badResp, err := http.Post(base+defaultShard+"/ask", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body code = %d", badResp.StatusCode)
	}
	// Empty question -> 400 (validation, not a server error).
	emptyResp, err := http.Post(base+defaultShard+"/ask", "application/json", bytes.NewReader([]byte("{}")))
	if err != nil {
		t.Fatal(err)
	}
	emptyResp.Body.Close()
	if emptyResp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty question code = %d", emptyResp.StatusCode)
	}
	// Oversized body -> 413, not a generic 400, on every route that takes a
	// JSON body: the body limit is a size condition the client can act on,
	// distinct from malformed JSON.
	filler := string(bytes.Repeat([]byte("x"), MaxBodyBytes+1024))
	for _, c := range []struct{ path, body string }{
		{defaultShard + "/ask", `{"question": "` + filler + `"}`},
		{"/v1/ensembles", `{"name": "big", "dir": "` + filler + `"}`},
		{defaultShard + "/sessions/" + res.RequestID + "/plan", `{"approve": false, "comment": "` + filler + `"}`},
	} {
		hugeResp, err := http.Post(base+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		hugeResp.Body.Close()
		if hugeResp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: oversized body code = %d, want 413", c.path, hugeResp.StatusCode)
		}
	}

	// The flat pre-registry routes are gone.
	if code := getJSON(t, base+"/metrics", &m); code != http.StatusNotFound {
		t.Errorf("flat /metrics route code = %d, want 404", code)
	}
}

// TestHTTPV1EnsembleResources exercises the versioned resource API
// end-to-end: runtime registration, per-shard ask/sessions/provenance
// routing, the shard detail endpoint and the aggregate /v1/metrics.
func TestHTTPV1EnsembleResources(t *testing.T) {
	_, base := startServer(t, Config{Workers: 1})

	// Register a second ensemble over the wire.
	dirB := testEnsembleSeeded(t, 11)
	body, _ := json.Marshal(RegisterRequest{Name: "survey-b", Dir: dirB})
	resp, err := http.Post(base+"/v1/ensembles", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created ShardInfo
	if err := json.NewDecoder(resp.Body).Decode(&created); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || created.Name != "survey-b" || created.State != "cold" {
		t.Fatalf("register: %d %+v", resp.StatusCode, created)
	}

	// Conflicting re-registration -> 409; bad name -> 400.
	conflict, _ := json.Marshal(RegisterRequest{Name: "survey-b", Dir: t.TempDir()})
	resp, err = http.Post(base+"/v1/ensembles", "application/json", bytes.NewReader(conflict))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("conflicting register = %d, want 409", resp.StatusCode)
	}
	badName, _ := json.Marshal(RegisterRequest{Name: "no/slashes", Dir: dirB})
	resp, err = http.Post(base+"/v1/ensembles", "application/json", bytes.NewReader(badName))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad name register = %d, want 400", resp.StatusCode)
	}
	// A timeout whose Duration overflows -> 400, like a negative one.
	hugeTimeout, _ := json.Marshal(RegisterRequest{Name: "slow", Dir: dirB, ScriptTimeoutMS: 1 << 62})
	resp, err = http.Post(base+"/v1/ensembles", "application/json", bytes.NewReader(hugeTimeout))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing script_timeout_ms register = %d, want 400", resp.StatusCode)
	}

	var list []ShardInfo
	if code := getJSON(t, base+"/v1/ensembles", &list); code != http.StatusOK || len(list) != 2 {
		t.Fatalf("list: %d %v", code, list)
	}

	// Ask through each shard; answers come from different ensembles.
	askV1 := func(eid, q string) *AskResult {
		t.Helper()
		body, _ := json.Marshal(AskRequest{Question: q})
		resp, err := http.Post(base+"/v1/ensembles/"+eid+"/ask", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ask %s: %d", eid, resp.StatusCode)
		}
		var out AskResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return &out
	}
	resA := askV1("default", topHalosQ)
	resB := askV1("survey-b", topHalosQ)
	if resA.Error != "" || resB.Error != "" || resA.AnswerCSV == resB.AnswerCSV {
		t.Fatalf("shard answers must come from their own ensembles: %+v vs %+v", resA, resB)
	}

	// Sessions and provenance are shard-scoped.
	var sessB []SessionInfo
	if code := getJSON(t, base+"/v1/ensembles/survey-b/sessions", &sessB); code != http.StatusOK || len(sessB) != 1 {
		t.Fatalf("survey-b sessions: %d %v", code, sessB)
	}
	var entries []provenance.Entry
	if code := getJSON(t, base+"/v1/ensembles/survey-b/sessions/"+resB.RequestID+"/provenance", &entries); code != http.StatusOK || len(entries) == 0 {
		t.Fatalf("survey-b provenance: %d %d entries", code, len(entries))
	}
	// The same record ID does not exist on the other shard.
	var miss SessionInfo
	if code := getJSON(t, base+"/v1/ensembles/survey-b/sessions/q-9999", &miss); code != http.StatusNotFound {
		t.Errorf("cross-shard session = %d, want 404", code)
	}

	// Detail endpoint: live shard with workers, cache entry and a resolved
	// fingerprint.
	var detail ShardInfo
	if code := getJSON(t, base+"/v1/ensembles/survey-b", &detail); code != http.StatusOK {
		t.Fatalf("detail: %d", code)
	}
	if detail.State != "live" || detail.Workers != 1 || detail.CacheEntries != 1 ||
		detail.Fingerprint == "" || detail.Opens != 1 {
		t.Errorf("detail = %+v", detail)
	}
	if code := getJSON(t, base+"/v1/ensembles/nope", &detail); code != http.StatusNotFound {
		t.Errorf("unknown detail = %d, want 404", code)
	}

	// Per-shard and aggregate metrics.
	var sm Metrics
	if code := getJSON(t, base+"/v1/ensembles/survey-b/metrics", &sm); code != http.StatusOK || sm.Completed != 1 {
		t.Fatalf("shard metrics: %d %+v", code, sm)
	}
	var am RegistryMetrics
	if code := getJSON(t, base+"/v1/metrics", &am); code != http.StatusOK {
		t.Fatalf("aggregate metrics: %d", code)
	}
	if am.Shards != 2 || am.Live != 2 || am.Completed != 2 || am.ShardOpens != 2 {
		t.Errorf("aggregate = %+v", am)
	}
}

// TestHTTPConcurrentAsks is the acceptance check: >= 8 concurrent POST /ask
// against one daemon, per-session provenance intact.
func TestHTTPConcurrentAsks(t *testing.T) {
	srv, base := startServer(t, Config{Workers: 4, QueueDepth: 32})

	questions := []string{
		topHalosQ,
		"Across all the simulations, what is the average size (fof_halo_count) of halos at each time step?",
	}
	const parallel = 8
	results := make([]*AskResult, parallel)
	codes := make([]int, parallel)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], codes[i] = postAsk(t, base, AskRequest{
				Question: questions[i%len(questions)],
				Seed:     int64(i) + 1,
			})
		}(i)
	}
	wg.Wait()
	t.Logf("%d concurrent asks served in %s", parallel, time.Since(start).Round(time.Millisecond))

	seen := map[string]bool{}
	for i := 0; i < parallel; i++ {
		if codes[i] != http.StatusOK || results[i] == nil || results[i].Error != "" {
			t.Fatalf("ask %d: code=%d res=%+v", i, codes[i], results[i])
		}
		if seen[results[i].SessionID] {
			t.Fatalf("duplicate session %q", results[i].SessionID)
		}
		seen[results[i].SessionID] = true
		var entries []provenance.Entry
		if code := getJSON(t, fmt.Sprintf("%s%s/sessions/%s/provenance", base, defaultShard, results[i].RequestID), &entries); code != http.StatusOK || len(entries) == 0 {
			t.Fatalf("ask %d provenance: %d with %d entries", i, code, len(entries))
		}
		var bad []provenance.Entry
		var err error
		onLive(t, srv.reg, "default", func(svc *Service) { bad, err = svc.VerifySession(results[i].RequestID) })
		if err != nil || len(bad) != 0 {
			t.Fatalf("ask %d verify: %v %v", i, bad, err)
		}
	}
}

// TestHTTPArtifacts serves every artifact of an ask's trail — directly and
// through the cached record that points at it — byte-exact against the
// manifest's hashes, with a Content-Type chosen by kind; an unknown seq is
// 404 and a malformed one 400.
func TestHTTPArtifacts(t *testing.T) {
	_, base := startServer(t, Config{Workers: 1})
	res, code := postAsk(t, base, AskRequest{Question: topHalosQ})
	if code != http.StatusOK || res.Error != "" {
		t.Fatalf("ask: code=%d res=%+v", code, res)
	}
	cached, _ := postAsk(t, base, AskRequest{Question: topHalosQ})
	if !cached.Cached {
		t.Fatalf("second ask not cached: %+v", cached)
	}
	if len(res.Artifacts) == 0 {
		t.Fatal("ask returned no artifact refs")
	}
	var next int64
	for i, a := range res.Artifacts {
		if a.Seq != i || a.Offset != next {
			t.Fatalf("artifact ref %d = %+v, want seq %d at offset %d", i, a, i, next)
		}
		next += a.Bytes
	}
	var entries []provenance.Entry
	if code := getJSON(t, base+"/v1/ensembles/default/sessions/"+res.RequestID+"/provenance", &entries); code != http.StatusOK {
		t.Fatalf("provenance: %d", code)
	}
	kinds := map[string]string{"data": "text/csv", "checkpoint": "application/json", "code": "text/plain"}
	for _, id := range []string{res.RequestID, cached.RequestID} {
		for _, e := range entries {
			resp, err := http.Get(fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/artifacts/%d", base, id, e.Seq))
			if err != nil {
				t.Fatal(err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s seq %d: %d %v", id, e.Seq, resp.StatusCode, err)
			}
			if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != e.SHA256 || int64(len(data)) != e.Bytes {
				t.Fatalf("%s seq %d (%s): served bytes do not match the manifest", id, e.Seq, e.Name)
			}
			if want, ok := kinds[e.Kind]; ok && !strings.HasPrefix(resp.Header.Get("Content-Type"), want) {
				t.Errorf("seq %d kind %s served as %q", e.Seq, e.Kind, resp.Header.Get("Content-Type"))
			}
		}
	}
	for path, want := range map[string]int{
		"/sessions/" + res.RequestID + "/artifacts/9999": http.StatusNotFound,
		"/sessions/" + res.RequestID + "/artifacts/-1":   http.StatusNotFound,
		"/sessions/" + res.RequestID + "/artifacts/x":    http.StatusBadRequest,
		"/sessions/q-9999/artifacts/0":                   http.StatusNotFound,
	} {
		resp, err := http.Get(base + "/v1/ensembles/default" + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}
