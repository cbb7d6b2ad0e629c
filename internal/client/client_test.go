package client

import (
	"errors"
	"net/http"
	"testing"
	"time"

	"infera/internal/agent"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/service"
)

func testEnsemble(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	spec := hacc.Spec{
		Runs:             2,
		Steps:            []int{99, 498},
		HalosPerRun:      80,
		ParticlesPerStep: 50,
		BoxSize:          128,
		Seed:             seed,
	}
	if _, err := hacc.Generate(dir, spec); err != nil {
		t.Fatal(err)
	}
	return dir
}

func startDaemon(t *testing.T) (*Client, string) {
	t.Helper()
	reg := service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{
			Workers: 1,
			Seed:    1,
			NewModel: func(seed int64) llm.Client {
				return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
			},
		},
		WorkDir: t.TempDir(),
	})
	if _, err := reg.Register("default", testEnsemble(t, 3)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	srv := service.NewServer(reg)
	if err := srv.Start(""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return New(srv.Addr()), srv.Addr()
}

const topHalosQ = "Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?"

func TestClientRoundTrip(t *testing.T) {
	c, _ := startDaemon(t)
	if err := c.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Register a second shard through the API.
	info, err := c.Register("survey-b", testEnsemble(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "survey-b" || info.State != "cold" {
		t.Fatalf("register = %+v", info)
	}
	list, err := c.Ensembles()
	if err != nil || len(list) != 2 {
		t.Fatalf("ensembles = %v (%v)", list, err)
	}

	res, err := c.Ask("survey-b", service.AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || res.Rows != 20 || res.Cached {
		t.Fatalf("ask = %+v", res)
	}
	hit, err := c.Ask("survey-b", service.AskRequest{Question: topHalosQ})
	if err != nil || !hit.Cached {
		t.Fatalf("second ask = %+v (%v)", hit, err)
	}

	sessions, err := c.Sessions("survey-b")
	if err != nil || len(sessions) != 2 {
		t.Fatalf("sessions = %v (%v)", sessions, err)
	}
	one, err := c.Session("survey-b", res.RequestID)
	if err != nil || one.Status != "done" {
		t.Fatalf("session = %+v (%v)", one, err)
	}
	entries, err := c.Provenance("survey-b", res.RequestID)
	if err != nil || len(entries) == 0 {
		t.Fatalf("provenance = %d entries (%v)", len(entries), err)
	}
	last := entries[len(entries)-1]
	art, err := c.Artifact("survey-b", hit.RequestID, last.Seq)
	if err != nil || int64(len(art)) != last.Bytes {
		t.Fatalf("artifact %d = %d bytes (%v), want %d", last.Seq, len(art), err, last.Bytes)
	}
	if _, err := c.Artifact("survey-b", res.RequestID, last.Seq+1); !IsNotFound(err) {
		t.Fatalf("artifact past the trail: err = %v", err)
	}

	detail, err := c.Ensemble("survey-b")
	if err != nil || detail.State != "live" || detail.CacheEntries != 1 {
		t.Fatalf("detail = %+v (%v)", detail, err)
	}
	sm, err := c.ShardMetrics("survey-b")
	if err != nil || sm.Completed != 1 || sm.CachedTotal != 1 {
		t.Fatalf("shard metrics = %+v (%v)", sm, err)
	}
	am, err := c.Metrics()
	if err != nil || am.Shards != 2 || am.Completed != 1 {
		t.Fatalf("aggregate metrics = %+v (%v)", am, err)
	}

	// Typed errors: unknown shard -> 404 APIError.
	_, err = c.Ask("nope", service.AskRequest{Question: topHalosQ})
	if !IsNotFound(err) {
		t.Fatalf("unknown shard err = %v", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || ae.Message == "" {
		t.Fatalf("error shape = %+v", err)
	}
	// Conflicting registration -> 409.
	_, err = c.Register("survey-b", t.TempDir())
	if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
		t.Fatalf("conflict err = %v", err)
	}
}

// TestClientInteractiveStream is the streaming smoke: an interactive ask
// driven end to end through the typed client — 202 handle, SSE event
// stream, a plan revision, approval, and the stored result. This is the
// same ReviewedAsk path the infera REPL runs.
func TestClientInteractiveStream(t *testing.T) {
	c, _ := startDaemon(t)

	var (
		rounds   int
		kinds    []agent.EventKind
		lastSeq  int
		outOfSeq bool
	)
	res, err := c.ReviewedAsk("default", service.AskRequest{Question: topHalosQ},
		func(ev agent.Event) agent.PlanDecision {
			rounds++
			if ev.Plan == nil || len(ev.Plan.Steps) == 0 {
				t.Errorf("review called without a plan: %+v", ev)
			}
			if rounds == 1 {
				if ev.Kind != agent.EventPlanProposed {
					t.Errorf("round 1 kind = %v", ev.Kind)
				}
				return agent.PlanDecision{Approve: false, Comment: "also include halo mass"}
			}
			if ev.Kind != agent.EventPlanRevised {
				t.Errorf("round %d kind = %v", rounds, ev.Kind)
			}
			return agent.PlanDecision{Approve: true}
		},
		func(ev agent.Event) {
			kinds = append(kinds, ev.Kind)
			if ev.Seq != lastSeq+1 {
				outOfSeq = true
			}
			lastSeq = ev.Seq
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || res.Rows != 20 || res.Cached {
		t.Fatalf("result = %+v", res)
	}
	if rounds != 2 {
		t.Fatalf("review rounds = %d, want 2 (propose + revise)", rounds)
	}
	if outOfSeq {
		t.Fatalf("stream delivered out-of-sequence events: %v", kinds)
	}
	if len(kinds) == 0 || kinds[len(kinds)-1] != agent.EventAnswer {
		t.Fatalf("stream kinds = %v", kinds)
	}

	// Manual resume: replay the finished session's stream from an offset.
	sessions, err := c.Sessions("default")
	if err != nil || len(sessions) == 0 {
		t.Fatalf("sessions = %v (%v)", sessions, err)
	}
	id := sessions[len(sessions)-1].ID
	stream, err := c.StreamEvents("default", id, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	first, err := stream.Next()
	if err != nil || first.Seq != 3 {
		t.Fatalf("resumed stream starts at %d (%v), want 3", first.Seq, err)
	}
}

// TestClientShardAdmin covers the admin wrappers: overrides, warm, delete.
func TestClientShardAdmin(t *testing.T) {
	c, _ := startDaemon(t)
	info, err := c.RegisterShard(service.RegisterRequest{Name: "tuned", Dir: testEnsemble(t, 9), Workers: 1, CacheCapacity: 2})
	if err != nil || info.Overrides == nil || info.Overrides.Workers != 1 {
		t.Fatalf("register shard = %+v (%v)", info, err)
	}
	warmed, err := c.Warm("tuned")
	if err != nil || warmed.State != "live" || warmed.Workers != 1 {
		t.Fatalf("warm = %+v (%v)", warmed, err)
	}
	if err := c.Unregister("tuned", true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ensemble("tuned"); !IsNotFound(err) {
		t.Fatalf("deleted shard err = %v", err)
	}
}
