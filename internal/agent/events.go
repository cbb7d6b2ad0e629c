package agent

import (
	"context"
	"errors"
	"sync"
	"time"

	"infera/internal/llm"
)

// EventKind names one lifecycle event of a workflow run.
type EventKind string

// The lifecycle events a Runtime emits onto its EventLog.
const (
	// EventPlanProposed carries the first plan of a run, before review.
	EventPlanProposed EventKind = "plan_proposed"
	// EventPlanRevised carries a plan regenerated after review feedback.
	EventPlanRevised EventKind = "plan_revised"
	// EventStepStarted marks a worker agent picking up a plan step.
	EventStepStarted EventKind = "step_started"
	// EventStepFinished marks a plan step completing (OK) or aborting.
	EventStepFinished EventKind = "step_finished"
	// EventQAVerdict carries the QA agent's pass/fail for a step output.
	EventQAVerdict EventKind = "qa_verdict"
	// EventErrorHint marks the feedback hook being consulted on a step
	// error; Hint carries the supplied correction, if any.
	EventErrorHint EventKind = "error_hint_requested"
	// EventAnswer is the terminal event of every run, carrying the outcome.
	EventAnswer EventKind = "answer"
	// EventQueuePosition reports where a queued ask currently sits in the
	// service's bounded worker queue (Position, 1-based; 1 = next to be
	// picked up). Emitted by the serving layer, not the workflow: once on
	// enqueue and again whenever the ask moves up.
	EventQueuePosition EventKind = "queue_position"
)

// Event is one entry of a run's lifecycle stream. Seq is a contiguous,
// 1-based sequence number assigned by the log — consumers resume a dropped
// stream by asking for everything after the last Seq they saw.
type Event struct {
	Seq  int       `json:"seq"`
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`

	// Plan events.
	Round int       `json:"round,omitempty"`
	Plan  *llm.Plan `json:"plan,omitempty"`

	// Step / QA / hint events. OK and Step serialize unconditionally:
	// ok=false is the failure verdict consumers key on, and step=0 is the
	// first plan step's index — omitempty would drop both exactly when
	// they matter.
	Agent string `json:"agent,omitempty"`
	Task  string `json:"task,omitempty"`
	Step  int    `json:"step"` // plan step index

	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	Hint   string `json:"hint,omitempty"`

	// Position is the 1-based queue slot on EventQueuePosition events.
	Position int `json:"position,omitempty"`

	// ElapsedNS is the wall-clock duration of the work the event reports:
	// the planning round on plan events, the whole step on step_finished,
	// the QA model call on qa_verdict. Zero on events that mark an instant
	// rather than a span (step_started, queue_position).
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`

	// FuelUsed is the script instruction budget the step consumed across
	// all sandbox attempts, stamped on step_finished events of code-running
	// steps (python, viz) — the per-step CPU accounting unit for future
	// fair scheduling. Zero for steps that run no sandboxed code.
	FuelUsed int64 `json:"fuel_used,omitempty"`

	// Answer is set on the terminal EventAnswer.
	Answer *AnswerEvent `json:"answer,omitempty"`
}

// AnswerEvent is the payload of the terminal answer event.
type AnswerEvent struct {
	Summary    string `json:"summary,omitempty"`
	Rows       int    `json:"rows"`
	PlanSteps  int    `json:"plan_steps"`
	Tokens     int    `json:"tokens"`
	RedoCount  int    `json:"redo_count"`
	Failed     bool   `json:"failed,omitempty"`
	Error      string `json:"error,omitempty"`
	DurationNS int64  `json:"duration_ns"`
	// PhasesNS breaks DurationNS down by workflow phase (plan, stage,
	// query, qa, python, viz, total) in nanoseconds. Phases the run never
	// entered are absent.
	PhasesNS map[string]int64 `json:"phases_ns,omitempty"`
	// FuelUsed is the total script instruction budget the run's sandboxed
	// executions consumed.
	FuelUsed int64 `json:"fuel_used,omitempty"`
}

// DefaultEventCapacity bounds an EventLog when NewEventLog is given no
// capacity. A full two-stage run emits a few dozen events; 512 leaves room
// for pathological retry loops without unbounded memory per session.
const DefaultEventCapacity = 512

// EventLog is a bounded, append-only event log for one session. Appends
// never block; past the capacity the oldest events are dropped (readers
// detect the gap by a jump in Seq). Readers poll with Since or block with
// Wait, resuming from any sequence number — the substrate for server-sent
// events with Last-Event-ID resume.
type EventLog struct {
	mu       sync.Mutex
	capacity int
	start    int // Seq of buf[0]; events hold seqs start..start+len(buf)-1
	buf      []Event
	next     int // next Seq to assign (1-based)
	closed   bool
	notify   chan struct{} // closed and replaced on every append/close
}

// NewEventLog returns an empty log holding at most capacity events
// (DefaultEventCapacity when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventLog{capacity: capacity, start: 1, next: 1, notify: make(chan struct{})}
}

// Append stamps ev with the next sequence number and current time, appends
// it and wakes all waiting readers. Appending to a closed log is a no-op
// returning 0.
func (l *EventLog) Append(ev Event) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0
	}
	ev.Seq = l.next
	ev.Time = time.Now()
	l.next++
	l.buf = append(l.buf, ev)
	if len(l.buf) > l.capacity {
		drop := len(l.buf) - l.capacity
		l.buf = append(l.buf[:0], l.buf[drop:]...)
		l.start += drop
	}
	close(l.notify)
	l.notify = make(chan struct{})
	return ev.Seq
}

// Close marks the log complete: no further events will arrive. Waiting
// readers wake immediately; Since keeps serving the retained events.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.notify)
	l.notify = make(chan struct{})
}

// Since returns every retained event with Seq > after, plus whether the log
// is closed (no more events will ever arrive).
func (l *EventLog) Since(after int) ([]Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	events, closed, _ := l.sinceLocked(after)
	return events, closed
}

func (l *EventLog) sinceLocked(after int) ([]Event, bool, chan struct{}) {
	if after < l.start-1 {
		after = l.start - 1 // events before the retention window are gone
	}
	idx := after - (l.start - 1)
	if idx >= len(l.buf) {
		return nil, l.closed, l.notify
	}
	out := make([]Event, len(l.buf)-idx)
	copy(out, l.buf[idx:])
	return out, l.closed, l.notify
}

// Wait blocks until at least one event with Seq > after exists (returning
// all of them), the log closes (returning nil, true), or ctx is done.
func (l *EventLog) Wait(ctx context.Context, after int) ([]Event, bool, error) {
	for {
		// The read and the notify-channel capture are one atomic step: an
		// Append landing between them would otherwise go unnoticed and the
		// waiter would sleep on the post-append channel (lost wakeup).
		l.mu.Lock()
		events, closed, ch := l.sinceLocked(after)
		l.mu.Unlock()
		if len(events) > 0 || closed {
			return events, closed, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// PlanDecision is one reviewer verdict on a proposed plan: approve as-is,
// or reject with a comment that seeds the next planning round.
type PlanDecision struct {
	Approve bool   `json:"approve"`
	Comment string `json:"comment,omitempty"`
}

// ErrNoPendingPlan reports a decision submitted while no plan was awaiting
// review (not yet proposed, already decided, or auto-approved by deadline).
var ErrNoPendingPlan = errors.New("agent: no plan awaiting review")

// DefaultAutoApprove is the AsyncFeedback review deadline when none is
// configured: an abandoned interactive session stops blocking a worker
// after this long and proceeds as if approved.
const DefaultAutoApprove = 60 * time.Second

// AsyncFeedback satisfies Feedback asynchronously: ReviewPlan blocks the
// planner until a decision arrives through Submit — from another goroutine,
// typically an HTTP approval endpoint — or the AutoApprove deadline passes,
// which approves the plan as-is (the expiry path for abandoned sessions).
// Error hints delegate to Hinter so interactive sessions keep the scripted
// column-correction behavior of §4.2.2.
type AsyncFeedback struct {
	// AutoApprove is the per-review deadline; <= 0 uses DefaultAutoApprove.
	AutoApprove time.Duration
	// Hinter answers OnError; nil supplies no hints.
	Hinter Feedback
	// OnAwait/OnResolve, when set, observe the review window opening and
	// closing (auto reports a deadline or abort resolution) — the serving
	// layer uses them to expose an "awaiting_approval" session status.
	OnAwait   func(plan llm.Plan)
	OnResolve func(auto bool)

	mu      sync.Mutex
	waiting chan PlanDecision
	aborted bool
	abortCh chan struct{}
}

var _ Feedback = (*AsyncFeedback)(nil)

// NewAsyncFeedback returns an AsyncFeedback with the given review deadline
// (<= 0 uses DefaultAutoApprove) delegating error hints to hinter.
func NewAsyncFeedback(deadline time.Duration, hinter Feedback) *AsyncFeedback {
	return &AsyncFeedback{AutoApprove: deadline, Hinter: hinter}
}

func (f *AsyncFeedback) abortChan() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.abortCh == nil {
		f.abortCh = make(chan struct{})
		if f.aborted {
			close(f.abortCh)
		}
	}
	return f.abortCh
}

// ReviewPlan opens the review window, announces the plan, and blocks until
// Submit delivers a decision, the deadline passes (approve as-is), or Abort
// has been called (approve immediately). Submit succeeds from the moment
// announce runs.
func (f *AsyncFeedback) ReviewPlan(plan llm.Plan, announce func()) (bool, string) {
	deadline := f.AutoApprove
	if deadline <= 0 {
		deadline = DefaultAutoApprove
	}
	ch := make(chan PlanDecision, 1)
	abort := f.abortChan()
	f.mu.Lock()
	if f.aborted {
		f.mu.Unlock()
		announce()
		return true, ""
	}
	f.waiting = ch
	f.mu.Unlock()
	announce()
	if f.OnAwait != nil {
		f.OnAwait(plan)
	}

	timer := time.NewTimer(deadline)
	defer timer.Stop()
	auto := false
	var d PlanDecision
	select {
	case d = <-ch:
	case <-timer.C:
		auto = true
	case <-abort:
		auto = true
	}
	f.mu.Lock()
	f.waiting = nil
	f.mu.Unlock()
	if auto {
		// A Submit may have raced the deadline and won the channel send just
		// before the window closed; honor it rather than dropping it.
		select {
		case d = <-ch:
			auto = false
		default:
			d = PlanDecision{Approve: true}
		}
	}
	if f.OnResolve != nil {
		f.OnResolve(auto)
	}
	return d.Approve, d.Comment
}

// Submit delivers a decision to the blocked ReviewPlan. It fails with
// ErrNoPendingPlan when no plan is currently awaiting review.
func (f *AsyncFeedback) Submit(d PlanDecision) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waiting == nil {
		return ErrNoPendingPlan
	}
	select {
	case f.waiting <- d:
		f.waiting = nil
		return nil
	default:
		return ErrNoPendingPlan // window already consumed
	}
}

// Pending reports whether a plan is currently awaiting review.
func (f *AsyncFeedback) Pending() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.waiting != nil
}

// Abort unblocks the current and all future reviews with immediate
// auto-approval — the shutdown path, so draining a service is never held
// back by a full review deadline.
func (f *AsyncFeedback) Abort() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.aborted {
		return
	}
	f.aborted = true
	if f.abortCh != nil {
		close(f.abortCh)
	}
}

// OnError delegates to Hinter.
func (f *AsyncFeedback) OnError(step llm.PlanStep, errMsg string) (string, bool) {
	if f.Hinter == nil {
		return "", false
	}
	return f.Hinter.OnError(step, errMsg)
}
