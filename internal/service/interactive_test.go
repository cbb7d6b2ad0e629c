package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"infera/internal/agent"
)

// driveToPending starts an interactive ask and blocks until its plan is
// awaiting approval, returning the session info and done channel.
func driveToPending(t *testing.T, svc *Service, req AskRequest) (SessionInfo, <-chan struct{}) {
	t.Helper()
	info, done, err := svc.AskInteractive(req)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, info.ID, "awaiting_approval")
	return info, done
}

func waitStatus(t *testing.T, svc *Service, id, want string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got, ok := svc.Session(id)
		if ok && got.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s never reached %q (last %+v)", id, want, got)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitDone(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("interactive session never finished")
	}
}

// TestInteractiveAskFlow drives one full streaming session: plan proposed,
// revision submitted, plan revised, approved, steps stream through to the
// terminal answer event, and the stored result is fetchable.
func TestInteractiveAskFlow(t *testing.T) {
	svc := newService(t, Config{Workers: 1, ApprovalTimeout: 30 * time.Second})
	info, done := driveToPending(t, svc, AskRequest{Question: topHalosQ, Interactive: true})
	if !info.Interactive {
		t.Fatalf("info = %+v", info)
	}
	if svc.PendingApprovals() != 1 {
		t.Fatalf("pending gauge = %d", svc.PendingApprovals())
	}

	// The proposed plan is in the log before any decision, preceded only by
	// the queue_position frame stamped at enqueue time.
	events, closed, err := svc.WaitEvents(context.Background(), info.ID, 0)
	if err != nil || closed {
		t.Fatalf("events: %v closed=%v", err, closed)
	}
	if len(events) < 2 || events[0].Kind != agent.EventQueuePosition || events[0].Position != 1 {
		t.Fatalf("first event = %+v", events)
	}
	if events[1].Kind != agent.EventPlanProposed || events[1].Plan == nil {
		t.Fatalf("second event = %+v", events)
	}

	// Revise, then approve the revision.
	if err := svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: false, Comment: "revise"}); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, svc, info.ID, "awaiting_approval")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	revised, _, err := svc.WaitEvents(ctx, info.ID, events[len(events)-1].Seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(revised) == 0 || revised[0].Kind != agent.EventPlanRevised {
		t.Fatalf("revision events = %+v", revised)
	}
	if err := svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: true}); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)

	// The stream is complete and ends with the answer event.
	all, closed, err := svc.WaitEvents(context.Background(), info.ID, 0)
	if err != nil || !closed {
		t.Fatalf("final events: %v closed=%v", err, closed)
	}
	last := all[len(all)-1]
	if last.Kind != agent.EventAnswer || last.Answer == nil || last.Answer.Failed {
		t.Fatalf("last event = %+v", last)
	}
	for i, ev := range all {
		if ev.Seq != i+1 {
			t.Fatalf("event %d seq %d: stream not contiguous", i, ev.Seq)
		}
	}

	res, err := svc.Result(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Error != "" || res.Rows != 20 || res.Cached {
		t.Fatalf("result = %+v", res)
	}
	if got, _ := svc.Session(info.ID); got.Status != "done" {
		t.Fatalf("final status = %q", got.Status)
	}
	m := svc.Metrics()
	if m.Interactive != 1 || m.PendingApprovals != 0 || m.Completed != 1 {
		t.Fatalf("metrics = %+v", m)
	}

	// Interactive answers are never cached: the same question again computes.
	res2, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cached {
		t.Fatal("interactive answer must not populate the cache")
	}
}

// TestInteractiveApprovalTimeout: an abandoned session auto-approves at the
// deadline and completes on its own.
func TestInteractiveApprovalTimeout(t *testing.T) {
	svc := newService(t, Config{Workers: 1, ApprovalTimeout: 50 * time.Millisecond})
	info, done, err := svc.AskInteractive(AskRequest{Question: topHalosQ, Interactive: true})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody ever reviews; the deadline must drive it to completion.
	waitDone(t, done)
	res, err := svc.Result(info.ID)
	if err != nil || res.Error != "" || res.Rows != 20 {
		t.Fatalf("result = %+v (%v)", res, err)
	}
	if svc.PendingApprovals() != 0 {
		t.Fatalf("pending gauge = %d", svc.PendingApprovals())
	}
}

// TestInteractiveErrors covers the typed failure modes of the session
// sub-resources.
func TestInteractiveErrors(t *testing.T) {
	svc := newService(t, Config{Workers: 1, ApprovalTimeout: 30 * time.Second})

	if _, _, err := svc.WaitEvents(context.Background(), "q-9999", 0); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown session err = %v", err)
	}
	if err := svc.SubmitPlan("q-9999", agent.PlanDecision{Approve: true}); !errors.Is(err, ErrUnknownSession) {
		t.Fatalf("unknown submit err = %v", err)
	}

	// A blocking ask's record is not interactive.
	res, err := svc.Ask(AskRequest{Question: topHalosQ})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.WaitEvents(context.Background(), res.RequestID, 0); !errors.Is(err, ErrNotInteractive) {
		t.Fatalf("non-interactive events err = %v", err)
	}

	info, done := driveToPending(t, svc, AskRequest{Question: topHalosQ, Seed: 5, Interactive: true})
	// Result before completion -> ErrNotFinished.
	if _, err := svc.Result(info.ID); !errors.Is(err, ErrNotFinished) {
		t.Fatalf("early result err = %v", err)
	}
	if err := svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: true}); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	// No plan pending after the run -> ErrNoPendingPlan.
	if err := svc.SubmitPlan(info.ID, agent.PlanDecision{Approve: true}); !errors.Is(err, agent.ErrNoPendingPlan) {
		t.Fatalf("late submit err = %v", err)
	}

	// Empty question rejected up front.
	if _, _, err := svc.AskInteractive(AskRequest{Interactive: true}); !errors.Is(err, ErrEmptyQuestion) {
		t.Fatalf("empty question err = %v", err)
	}
}

// TestInteractiveCloseDrains: Close with a session blocked in review must
// abort the review (auto-approve) and drain rather than hang on the
// approval deadline.
func TestInteractiveCloseDrains(t *testing.T) {
	svc := newService(t, Config{Workers: 1, ApprovalTimeout: time.Hour})
	_, done := driveToPending(t, svc, AskRequest{Question: topHalosQ, Interactive: true})
	start := time.Now()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 90*time.Second {
		t.Fatalf("close took %s (held by approval deadline?)", elapsed)
	}
	waitDone(t, done)
}
