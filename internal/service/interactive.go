package service

import (
	"context"
	"fmt"

	"infera/internal/agent"
	"infera/internal/llm"
)

// interactive is the server-side state of one streaming session: the event
// log consumers resume from, the channel-backed approval gate the planner
// blocks on, and the final result once the worker finishes. It lives in
// Service.interactive until the session record is trimmed.
type interactive struct {
	events   *agent.EventLog
	feedback *agent.AsyncFeedback
	done     chan struct{} // closed after result is stored and events closed
	result   *AskResult    // guarded by Service.mu
}

// AskInteractive runs one question as a streaming session: it enqueues the
// job and returns the session record immediately, with a channel that
// closes once the result is stored. Lifecycle events (plan_proposed ...
// answer) flow through WaitEvents; plan decisions arrive through
// SubmitPlan, or the ApprovalTimeout auto-approves (the abandoned-session
// expiry). Interactive answers bypass the answer cache and single-flight
// coalescing — a reviewer may reshape the plan, so no two sessions are
// interchangeable.
func (s *Service) AskInteractive(req AskRequest) (SessionInfo, <-chan struct{}, error) {
	if req.Question == "" {
		return SessionInfo{}, nil, ErrEmptyQuestion
	}
	if req.Seed == 0 {
		req.Seed = s.cfg.Seed
	}
	info := s.newSessionRecord(req, "queued")
	ia := &interactive{
		events: agent.NewEventLog(0),
		done:   make(chan struct{}),
	}
	ia.feedback = &agent.AsyncFeedback{
		AutoApprove: s.cfg.ApprovalTimeout,
		Hinter:      agent.AutoHinter{},
		// Surface the review window as a session status so operators (and
		// the registry) can see which sessions are blocked on a human.
		OnAwait:   func(llm.Plan) { s.markAwaiting(info, true) },
		OnResolve: func(bool) { s.markAwaiting(info, false) },
	}
	t := &task{info: info, req: req, done: make(chan *AskResult, 1), ia: ia}

	s.mu.Lock()
	info.Interactive = true
	s.interactive[info.ID] = ia
	s.mu.Unlock()
	snap, err := s.admit(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		// The record never became a streaming session: clear the flag so its
		// sub-resources answer "unknown/not interactive" consistently with
		// the rejected state instead of advertising an event log it lost.
		delete(s.interactive, info.ID)
		info.Interactive = false
		return SessionInfo{}, nil, err
	}
	s.m.Interactive++
	return snap, ia.done, nil
}

// lookupInteractive resolves a session-record ID to its interactive state.
func (s *Service) lookupInteractive(id string) (*interactive, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ia, ok := s.interactive[id]
	if !ok {
		if _, exists := s.sessions[id]; exists {
			return nil, fmt.Errorf("%w: %q", ErrNotInteractive, id)
		}
		return nil, fmt.Errorf("%w: %q", ErrUnknownSession, id)
	}
	return ia, nil
}

// WaitEvents blocks until session id has events past after, its stream
// completes, or ctx is done — the SSE stream's substrate. On a finished
// session it returns at once with every retained event past after.
func (s *Service) WaitEvents(ctx context.Context, id string, after int) ([]agent.Event, bool, error) {
	ia, err := s.lookupInteractive(id)
	if err != nil {
		return nil, false, err
	}
	return ia.events.Wait(ctx, after)
}

// SubmitPlan delivers a plan decision to session id's blocked review.
// agent.ErrNoPendingPlan reports that no plan is currently awaiting one
// (not proposed yet, already decided, or auto-approved by deadline).
func (s *Service) SubmitPlan(id string, d agent.PlanDecision) error {
	ia, err := s.lookupInteractive(id)
	if err != nil {
		return err
	}
	return ia.feedback.Submit(d)
}

// Result returns session id's final AskResult once the worker has stored
// it; before that it fails with ErrNotFinished. The worker stores the
// result before it closes the event stream, so a reader that drained the
// stream always finds it, even before the done channel closes.
func (s *Service) Result(id string) (*AskResult, error) {
	ia, err := s.lookupInteractive(id)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ia.result == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFinished, id)
	}
	out := *ia.result
	return &out, nil
}

// PendingApprovals gauges how many sessions are blocked in plan review.
func (s *Service) PendingApprovals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingApprovals
}

// markAwaiting flips session id's status for the duration of one review
// window and maintains the pending gauge.
func (s *Service) markAwaiting(info *SessionInfo, awaiting bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if awaiting {
		info.Status = "awaiting_approval"
		s.pendingApprovals++
	} else {
		if info.Status == "awaiting_approval" {
			info.Status = "running"
		}
		s.pendingApprovals--
	}
	s.approvals.Set(int64(s.pendingApprovals))
}
