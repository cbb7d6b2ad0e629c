package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"infera/internal/agent"
)

// sseConn is a raw server-sent-events reader, deliberately independent of
// internal/client so these tests exercise the wire format itself.
type sseConn struct {
	resp *http.Response
	br   *bufio.Reader
}

// dialSSE opens the event stream at url, resuming after lastEventID when
// it is positive.
func dialSSE(url string, lastEventID int) (*sseConn, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if lastEventID > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(lastEventID))
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("events stream: %d %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		return nil, fmt.Errorf("content type = %q", ct)
	}
	return &sseConn{resp: resp, br: bufio.NewReader(resp.Body)}, nil
}

func openSSE(t *testing.T, base, eid, id string, lastEventID int) *sseConn {
	t.Helper()
	c, err := dialSSE(base+"/v1/ensembles/"+eid+"/sessions/"+id+"/events", lastEventID)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// read reads one SSE frame; done reports the terminal sentinel.
func (c *sseConn) read() (ev agent.Event, done bool, err error) {
	var kind string
	var data []byte
	for {
		line, err := c.br.ReadString('\n')
		if err != nil {
			return agent.Event{}, false, fmt.Errorf("sse read: %w", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if kind == "done" {
				return agent.Event{}, true, nil
			}
			if len(data) == 0 {
				kind = ""
				continue
			}
			if err := json.Unmarshal(data, &ev); err != nil {
				return agent.Event{}, false, fmt.Errorf("sse frame %q: %w", data, err)
			}
			if string(ev.Kind) != kind {
				return agent.Event{}, false, fmt.Errorf("frame type %q != payload kind %q", kind, ev.Kind)
			}
			return ev, false, nil
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = append(data, line[len("data: "):]...)
		}
	}
}

// next is read for the test goroutine: any error fails the test.
func (c *sseConn) next(t *testing.T) (agent.Event, bool) {
	t.Helper()
	ev, done, err := c.read()
	if err != nil {
		t.Fatal(err)
	}
	return ev, done
}

func (c *sseConn) close() { c.resp.Body.Close() }

func postJSON(t *testing.T, url string, body any, into any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if into != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func startInteractive(t *testing.T, base, eid, question string, seed int64) SessionInfo {
	t.Helper()
	var info SessionInfo
	code := postJSON(t, base+"/v1/ensembles/"+eid+"/ask",
		AskRequest{Question: question, Seed: seed, Interactive: true}, &info)
	if code != http.StatusAccepted || info.ID == "" || !info.Interactive {
		t.Fatalf("interactive ask: code=%d info=%+v", code, info)
	}
	return info
}

func submitPlan(t *testing.T, base, eid, id string, d agent.PlanDecision) int {
	t.Helper()
	return postJSON(t, fmt.Sprintf("%s/v1/ensembles/%s/sessions/%s/plan", base, eid, id), d, nil)
}

// TestHTTPInteractiveSSEResume is the acceptance + resume check: an HTTP
// client starts an interactive ask, receives plan_proposed over SSE, kills
// the connection mid-plan, reconnects with Last-Event-ID, POSTs a
// revision, receives plan_revised, approves, and streams step events
// through to the terminal answer — with no event lost or duplicated across
// the reconnect — while sibling interactive sessions run and approve
// concurrently. Run under -race.
func TestHTTPInteractiveSSEResume(t *testing.T) {
	_, base := startServer(t, Config{Workers: 4, QueueDepth: 16, ApprovalTimeout: 60 * time.Second})

	// Sibling sessions on the same shard: start, approve over their own SSE
	// streams, drain to completion — concurrency on the approval gate and
	// the event logs while the main session does the kill/resume dance.
	// Each approval is sent the moment its plan event arrives, so it must
	// find the review window open.
	const siblings = 3
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			info := startInteractive(t, base, "default", topHalosQ, int64(i)+2)
			conn, err := dialSSE(base+"/v1/ensembles/default/sessions/"+info.ID+"/events", 0)
			if err != nil {
				t.Errorf("sibling %d: %v", i, err)
				return
			}
			defer conn.close()
			approved := false
			for {
				ev, done, err := conn.read()
				if err != nil {
					t.Errorf("sibling %d: %v", i, err)
					return
				}
				if done {
					break
				}
				if !approved && (ev.Kind == agent.EventPlanProposed || ev.Kind == agent.EventPlanRevised) {
					if code := submitPlan(t, base, "default", info.ID, agent.PlanDecision{Approve: true}); code != http.StatusOK {
						t.Errorf("sibling %d: approve code %d", i, code)
						return
					}
					approved = true
				}
			}
			var res AskResult
			if code := getJSON(t, fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/result", base, info.ID), &res); code != http.StatusOK || res.Rows != 20 {
				t.Errorf("sibling %d: result code=%d res=%+v", i, code, &res)
			}
		}(i)
	}

	// Main session: SSE with a mid-plan reconnect.
	info := startInteractive(t, base, "default", topHalosQ, 1)
	conn := openSSE(t, base, "default", info.ID, 0)
	var seqs []int
	var kinds []agent.EventKind
	// The stream opens with queue_position frames (one on enqueue, more as
	// the queue drains) and then plan_proposed; consume up to it.
	var first agent.Event
	for {
		ev, done := conn.next(t)
		if done {
			t.Fatalf("stream ended before plan_proposed: %v", kinds)
		}
		seqs = append(seqs, ev.Seq)
		kinds = append(kinds, ev.Kind)
		if ev.Kind == agent.EventQueuePosition {
			if ev.Position < 1 {
				t.Fatalf("queue_position frame with position %d: %+v", ev.Position, ev)
			}
			continue
		}
		if ev.Kind != agent.EventPlanProposed || ev.Plan == nil || len(ev.Plan.Steps) == 0 {
			t.Fatalf("expected plan_proposed frame, got %+v", ev)
		}
		first = ev
		break
	}
	// Kill the connection mid-plan, before any decision.
	conn.close()

	// Reconnect with Last-Event-ID and drive the session to completion.
	conn2 := openSSE(t, base, "default", info.ID, first.Seq)
	if code := submitPlan(t, base, "default", info.ID, agent.PlanDecision{Approve: false, Comment: "also include halo mass"}); code != http.StatusOK {
		t.Fatalf("revise code = %d", code)
	}
	approved := false
	for {
		ev, done := conn2.next(t)
		if done {
			break
		}
		seqs = append(seqs, ev.Seq)
		kinds = append(kinds, ev.Kind)
		if ev.Kind == agent.EventPlanRevised && !approved {
			if code := submitPlan(t, base, "default", info.ID, agent.PlanDecision{Approve: true}); code != http.StatusOK {
				t.Fatalf("approve code = %d", code)
			}
			approved = true
		}
	}
	conn2.close()

	// No event lost, none duplicated: the union of both connections is
	// exactly 1..N.
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("event %d has seq %d — lost or duplicated across resume: %v", i, seq, seqs)
		}
	}
	var sawRevised, sawStart, sawFinish, sawQA, sawAnswer bool
	for _, k := range kinds {
		switch k {
		case agent.EventPlanRevised:
			sawRevised = true
		case agent.EventStepStarted:
			sawStart = true
		case agent.EventStepFinished:
			sawFinish = true
		case agent.EventQAVerdict:
			sawQA = true
		case agent.EventAnswer:
			sawAnswer = true
		}
	}
	if !sawRevised || !sawStart || !sawFinish || !sawQA || !sawAnswer {
		t.Fatalf("lifecycle incomplete: revised=%v start=%v finish=%v qa=%v answer=%v (%v)",
			sawRevised, sawStart, sawFinish, sawQA, sawAnswer, kinds)
	}
	if kinds[len(kinds)-1] != agent.EventAnswer {
		t.Fatalf("stream must end with answer, got %v", kinds[len(kinds)-1])
	}

	var res AskResult
	if code := getJSON(t, fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/result", base, info.ID), &res); code != http.StatusOK {
		t.Fatalf("result code = %d", code)
	}
	if res.Error != "" || res.Rows != 20 || res.Cached {
		t.Fatalf("result = %+v", &res)
	}
	// The session record reflects two plan rounds (proposed + revised).
	var rec SessionInfo
	if code := getJSON(t, fmt.Sprintf("%s/v1/ensembles/default/sessions/%s", base, info.ID), &rec); code != http.StatusOK || rec.Status != "done" || !rec.Interactive {
		t.Fatalf("record = %d %+v", code, rec)
	}

	wg.Wait()

	// A finished session replays its whole stream at once from ?from=0.
	replay, err := dialSSE(fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/events?from=0", base, info.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.close()
	replayed := 0
	for {
		ev, done := replay.next(t)
		if done {
			break
		}
		if replayed++; ev.Seq != replayed {
			t.Fatalf("replayed event %d has seq %d", replayed, ev.Seq)
		}
	}
	if replayed != len(seqs) {
		t.Fatalf("replay = %d events, want %d", replayed, len(seqs))
	}

	// ?after= is no cursor of this endpoint: it answers 400 and points at
	// the SSE resume cursors instead of replaying from 0.
	resp, err := http.Get(fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/events?after=0", base, info.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("Last-Event-ID")) || !bytes.Contains(body, []byte("?from=")) {
		t.Fatalf("?after=0 = %d %s, want 400 naming Last-Event-ID and ?from=", resp.StatusCode, body)
	}
}

// TestHTTPEventsErrors: bad session IDs and non-interactive records map to
// proper statuses on the event/plan/result sub-resources.
func TestHTTPEventsErrors(t *testing.T) {
	_, base := startServer(t, Config{Workers: 1})

	// Unknown session.
	resp, err := http.Get(base + "/v1/ensembles/default/sessions/q-9999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown events code = %d", resp.StatusCode)
	}

	// A blocking ask's record has no event log: 409.
	res, code := postAsk(t, base, AskRequest{Question: topHalosQ})
	if code != http.StatusOK {
		t.Fatal("seed ask failed")
	}
	for _, sub := range []string{"events", "result"} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/ensembles/default/sessions/%s/%s", base, res.RequestID, sub))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("%s on non-interactive = %d, want 409", sub, resp.StatusCode)
		}
	}
	if code := submitPlan(t, base, "default", res.RequestID, agent.PlanDecision{Approve: true}); code != http.StatusConflict {
		t.Fatalf("plan on non-interactive = %d, want 409", code)
	}
}

// TestHTTPShardAdmin covers the registry satellites over the wire:
// per-shard overrides on POST /v1/ensembles, POST .../warm and
// DELETE /v1/ensembles/{eid} with provenance purge.
func TestHTTPShardAdmin(t *testing.T) {
	cfg := Config{Workers: 2, NewModel: errFreeModel, Seed: 1}
	dir := testEnsemble(t)
	work := t.TempDir()
	reg := NewRegistry(RegistryConfig{Defaults: cfg, WorkDir: work})
	if _, err := reg.Register("default", dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := NewServer(reg)
	if err := srv.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + srv.Addr()

	// Register with per-shard overrides of the daemon defaults.
	var created ShardInfo
	code := postJSON(t, base+"/v1/ensembles",
		RegisterRequest{Name: "tuned", Dir: testEnsembleSeeded(t, 7), Workers: 1, CacheCapacity: 2}, &created)
	if code != http.StatusCreated || created.Overrides == nil || created.Overrides.Workers != 1 || created.Overrides.CacheSize != 2 {
		t.Fatalf("register with overrides: %d %+v", code, created)
	}

	// Warm spins the pool up with the overrides applied, before any ask.
	var warmed ShardInfo
	if code := postJSON(t, base+"/v1/ensembles/tuned/warm", nil, &warmed); code != http.StatusOK {
		t.Fatalf("warm code = %d", code)
	}
	if warmed.State != "live" || warmed.Workers != 1 || warmed.Opens != 1 || warmed.Fingerprint == "" {
		t.Fatalf("warmed = %+v", warmed)
	}

	// The warm pool serves the first ask without a spin-up (Opens stays 1).
	var res AskResult
	if code := postJSON(t, base+"/v1/ensembles/tuned/ask", AskRequest{Question: topHalosQ}, &res); code != http.StatusOK || res.Error != "" {
		t.Fatalf("tuned ask: %d %+v", code, &res)
	}
	var detail ShardInfo
	if code := getJSON(t, base+"/v1/ensembles/tuned", &detail); code != http.StatusOK || detail.Opens != 1 {
		t.Fatalf("post-warm detail = %d %+v", code, detail)
	}

	// DELETE unregisters, closing the live shard; its work dir persists
	// without purge.
	tunedWork := filepath.Join(work, "shards", "tuned")
	doDelete := func(path string) int {
		req, err := http.NewRequest(http.MethodDelete, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := doDelete("/v1/ensembles/tuned"); code != http.StatusNoContent {
		t.Fatalf("delete code = %d", code)
	}
	if _, err := os.Stat(tunedWork); err != nil {
		t.Fatalf("work dir must survive an unpurged delete: %v", err)
	}
	var list []ShardInfo
	if code := getJSON(t, base+"/v1/ensembles", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("post-delete list = %d %+v", code, list)
	}
	if code := doDelete("/v1/ensembles/tuned"); code != http.StatusNotFound {
		t.Fatalf("double delete code = %d", code)
	}

	// Re-register and purge: the on-disk trail goes too.
	if code := postJSON(t, base+"/v1/ensembles", RegisterRequest{Name: "tuned", Dir: testEnsembleSeeded(t, 7)}, nil); code != http.StatusCreated {
		t.Fatalf("re-register code = %d", code)
	}
	if code := postJSON(t, base+"/v1/ensembles/tuned/ask", AskRequest{Question: topHalosQ}, nil); code != http.StatusOK {
		t.Fatalf("re-register ask code = %d", code)
	}
	if code := doDelete("/v1/ensembles/tuned?purge=provenance"); code != http.StatusNoContent {
		t.Fatalf("purge delete code = %d", code)
	}
	if _, err := os.Stat(tunedWork); !os.IsNotExist(err) {
		t.Fatalf("purged work dir still present: %v", err)
	}

	// Deleting the shard named "default" leaves the other one serving.
	if code := postJSON(t, base+"/v1/ensembles", RegisterRequest{Name: "backup", Dir: dir}, nil); code != http.StatusCreated {
		t.Fatalf("backup register code = %d", code)
	}
	if code := doDelete("/v1/ensembles/default"); code != http.StatusNoContent {
		t.Fatalf("delete default code = %d", code)
	}
	var backup ShardInfo
	if code := getJSON(t, base+"/v1/ensembles/backup", &backup); code != http.StatusOK {
		t.Fatalf("backup after default delete = %d %+v", code, backup)
	}
}
