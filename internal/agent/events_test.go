package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"infera/internal/llm"
)

func TestEventLogAppendSinceWait(t *testing.T) {
	l := NewEventLog(0)
	if seq := l.Append(Event{Kind: EventPlanProposed}); seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	l.Append(Event{Kind: EventStepStarted})

	events, closed := l.Since(0)
	if len(events) != 2 || closed {
		t.Fatalf("since(0) = %d events closed=%v", len(events), closed)
	}
	if events[0].Seq != 1 || events[1].Seq != 2 || events[0].Time.IsZero() {
		t.Fatalf("events = %+v", events)
	}
	events, _ = l.Since(1)
	if len(events) != 1 || events[0].Kind != EventStepStarted {
		t.Fatalf("since(1) = %+v", events)
	}
	if events, _ := l.Since(2); len(events) != 0 {
		t.Fatalf("since(2) = %+v", events)
	}

	// Wait wakes on append.
	done := make(chan []Event, 1)
	go func() {
		evs, _, _ := l.Wait(context.Background(), 2)
		done <- evs
	}()
	time.Sleep(10 * time.Millisecond)
	l.Append(Event{Kind: EventAnswer})
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Kind != EventAnswer {
			t.Fatalf("waited events = %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait never woke")
	}

	// Wait wakes on close; appends after close are dropped.
	l.Close()
	if seq := l.Append(Event{Kind: EventAnswer}); seq != 0 {
		t.Fatalf("append after close = %d", seq)
	}
	evs, closed, err := l.Wait(context.Background(), 3)
	if err != nil || len(evs) != 0 || !closed {
		t.Fatalf("wait after close = %v %v %v", evs, closed, err)
	}

	// Wait honors context cancellation.
	l2 := NewEventLog(4)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := l2.Wait(ctx, 0); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait err = %v", err)
	}
}

func TestEventLogBounded(t *testing.T) {
	l := NewEventLog(3)
	for i := 0; i < 5; i++ {
		l.Append(Event{Kind: EventStepStarted})
	}
	events, _ := l.Since(0)
	if len(events) != 3 || events[0].Seq != 3 || events[2].Seq != 5 {
		t.Fatalf("bounded log = %+v", events)
	}
	// A cursor inside the dropped range clamps to the retention window.
	events, _ = l.Since(1)
	if len(events) != 3 || events[0].Seq != 3 {
		t.Fatalf("clamped read = %+v", events)
	}
}

func TestAsyncFeedbackSubmitAndDeadline(t *testing.T) {
	f := NewAsyncFeedback(5*time.Second, nil)
	if err := f.Submit(PlanDecision{Approve: true}); !errors.Is(err, ErrNoPendingPlan) {
		t.Fatalf("submit without review = %v", err)
	}

	type verdict struct {
		approved bool
		comment  string
	}
	got := make(chan verdict, 1)
	go func() {
		a, c := f.ReviewPlan(llm.Plan{}, func() {})
		got <- verdict{a, c}
	}()
	waitPending(t, f)
	if err := f.Submit(PlanDecision{Approve: false, Comment: "add a plot"}); err != nil {
		t.Fatal(err)
	}
	v := <-got
	if v.approved || v.comment != "add a plot" {
		t.Fatalf("verdict = %+v", v)
	}
	// The window is consumed: a second submit has nothing to answer.
	if err := f.Submit(PlanDecision{Approve: true}); !errors.Is(err, ErrNoPendingPlan) {
		t.Fatalf("stale submit = %v", err)
	}

	// Deadline auto-approves.
	fast := NewAsyncFeedback(30*time.Millisecond, nil)
	var autoSeen bool
	fast.OnResolve = func(auto bool) { autoSeen = auto }
	a, c := fast.ReviewPlan(llm.Plan{}, func() {})
	if !a || c != "" || !autoSeen {
		t.Fatalf("deadline verdict = %v %q auto=%v", a, c, autoSeen)
	}

	// Abort unblocks current and future reviews immediately.
	ab := NewAsyncFeedback(time.Hour, nil)
	res := make(chan bool, 1)
	go func() {
		a, _ := ab.ReviewPlan(llm.Plan{}, func() {})
		res <- a
	}()
	waitPending(t, ab)
	ab.Abort()
	select {
	case a := <-res:
		if !a {
			t.Fatal("abort must auto-approve")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not unblock review")
	}
	if a, _ := ab.ReviewPlan(llm.Plan{}, func() {}); !a {
		t.Fatal("post-abort review must auto-approve")
	}
}

func waitPending(t *testing.T, f *AsyncFeedback) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !f.Pending() {
		if time.Now().After(deadline) {
			t.Fatal("review never became pending")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPlanEventOpensReviewWindow pins the order of the plan-review
// handshake: the review window is open before the plan event is visible,
// so a Submit made the moment the event is appended never sees
// ErrNoPendingPlan. First through AsyncFeedback alone, then through a full
// run whose reviewer submits inside the plan event's append.
func TestPlanEventOpensReviewWindow(t *testing.T) {
	// The deadlines only bound how long a regression takes to report: a
	// Submit that finds the window closed leaves the review to them.
	const deadline = 10 * time.Second
	f := NewAsyncFeedback(deadline, nil)
	var submitErr error
	approved, comment := f.ReviewPlan(llm.Plan{}, func() {
		submitErr = f.Submit(PlanDecision{Approve: false, Comment: "narrow it"})
	})
	if submitErr != nil || approved || comment != "narrow it" {
		t.Fatalf("submit inside announce = %v, verdict %v %q", submitErr, approved, comment)
	}

	rt := testRuntime(t, nil)
	rt.Events = NewEventLog(0)
	eager := &eagerReviewer{
		AsyncFeedback: NewAsyncFeedback(deadline, AutoHinter{}),
		events:        rt.Events,
		decisions:     []PlanDecision{{Approve: false, Comment: "please revise the plan"}, {Approve: true}},
	}
	rt.Feedback = eager
	res, err := Run(rt, "Can you find me the top 5 largest friends-of-friends halos from timestep 624 in simulation 1?")
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range eager.errs {
		t.Error(err)
	}
	if res.State.PlanRounds != 2 || len(eager.decisions) != 0 {
		t.Fatalf("plan rounds = %d, %d decisions left; want 2 and 0", res.State.PlanRounds, len(eager.decisions))
	}
}

// eagerReviewer answers each plan the instant its event is appended: it
// checks that the planner left the append to announce, and submits its
// next decision from inside the append.
type eagerReviewer struct {
	*AsyncFeedback
	events    *EventLog
	decisions []PlanDecision
	errs      []error
}

func (r *eagerReviewer) ReviewPlan(plan llm.Plan, announce func()) (bool, string) {
	before, _ := r.events.Since(0)
	return r.AsyncFeedback.ReviewPlan(plan, func() {
		announce()
		after, _ := r.events.Since(0)
		if len(after) != len(before)+1 {
			r.errs = append(r.errs, fmt.Errorf("announce appended %d events, want the plan event alone", len(after)-len(before)))
			return
		}
		ev := after[len(after)-1]
		if ev.Kind != EventPlanProposed && ev.Kind != EventPlanRevised {
			r.errs = append(r.errs, fmt.Errorf("announce appended %s, want a plan event", ev.Kind))
			return
		}
		if len(r.decisions) == 0 {
			r.errs = append(r.errs, fmt.Errorf("%s (seq %d) after the last decision", ev.Kind, ev.Seq))
			return
		}
		if err := r.Submit(r.decisions[0]); err != nil {
			r.errs = append(r.errs, fmt.Errorf("submit on %s (seq %d): %w", ev.Kind, ev.Seq, err))
			return
		}
		r.decisions = r.decisions[1:]
	})
}

// TestRunEmitsLifecycleEvents runs the full workflow with an event log and
// an async reviewer attached and audits the stream: plan_proposed first, a
// revision round producing plan_revised, step started/finished pairs, and
// the terminal answer event.
func TestRunEmitsLifecycleEvents(t *testing.T) {
	rt := testRuntime(t, nil)
	rt.Events = NewEventLog(0)
	fb := NewAsyncFeedback(30*time.Second, AutoHinter{})
	rt.Feedback = fb

	// Reviewer goroutine: reject round 0 with a comment, approve round 1.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		waitPending(t, fb)
		if err := fb.Submit(PlanDecision{Approve: false, Comment: "please revise the plan"}); err != nil {
			t.Error(err)
			return
		}
		waitPending(t, fb)
		if err := fb.Submit(PlanDecision{Approve: true}); err != nil {
			t.Error(err)
		}
	}()

	res, err := Run(rt, "Can you find me the top 5 largest friends-of-friends halos from timestep 624 in simulation 1?")
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.State.PlanRounds != 2 {
		t.Fatalf("plan rounds = %d, want 2", res.State.PlanRounds)
	}

	events, closed := rt.Events.Since(0)
	if closed {
		t.Fatal("run does not close the log; its owner does")
	}
	if len(events) == 0 || events[0].Kind != EventPlanProposed || events[0].Plan == nil {
		t.Fatalf("first event = %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != EventAnswer || last.Answer == nil || last.Answer.Failed || last.Answer.Rows != 5 {
		t.Fatalf("last event = %+v (answer %+v)", last, last.Answer)
	}
	counts := map[EventKind]int{}
	var started, finished int
	for i, ev := range events {
		if ev.Seq != i+1 {
			t.Fatalf("event %d has seq %d (not contiguous)", i, ev.Seq)
		}
		counts[ev.Kind]++
		switch ev.Kind {
		case EventStepStarted:
			started++
		case EventStepFinished:
			finished++
			if !ev.OK {
				t.Fatalf("step failed: %+v", ev)
			}
		}
	}
	if counts[EventPlanRevised] != 1 {
		t.Fatalf("plan_revised count = %d, want 1 (events %v)", counts[EventPlanRevised], counts)
	}
	if started == 0 || started != finished {
		t.Fatalf("step events unbalanced: %d started, %d finished", started, finished)
	}
	if counts[EventQAVerdict] == 0 {
		t.Fatal("no qa_verdict events")
	}
	if counts[EventAnswer] != 1 {
		t.Fatalf("answer count = %d", counts[EventAnswer])
	}
}
