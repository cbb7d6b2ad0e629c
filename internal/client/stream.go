package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"infera/internal/agent"
	"infera/internal/service"
)

// AskInteractive starts a streaming session on shard eid and returns its
// session handle immediately (HTTP 202). Follow the lifecycle with
// StreamEvents, answer plan proposals with SubmitPlan, and fetch the final
// answer with Result once the stream completes.
func (c *Client) AskInteractive(eid string, req service.AskRequest) (service.SessionInfo, error) {
	req.Interactive = true
	var out service.SessionInfo
	err := c.do(http.MethodPost, eidPath(eid, "ask"), req, &out)
	return out, err
}

// SubmitPlan delivers an approve/revise decision for the plan currently
// awaiting review on session id. A 409 APIError means no plan is pending
// (not proposed yet, already decided, or auto-approved by deadline).
func (c *Client) SubmitPlan(eid, id string, d agent.PlanDecision) error {
	return c.do(http.MethodPost, eidPath(eid, "sessions", id, "plan"), d, nil)
}

// Result fetches the final AskResult of interactive session id. A 409
// APIError means the session has not finished yet.
func (c *Client) Result(eid, id string) (*service.AskResult, error) {
	var out service.AskResult
	if err := c.do(http.MethodGet, eidPath(eid, "sessions", id, "result"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Unregister removes shard eid from the daemon, closing it first if live.
// purgeProvenance also removes the shard's on-disk trail (provenance
// sessions and persisted answer cache).
func (c *Client) Unregister(eid string, purgeProvenance bool) error {
	path := eidPath(eid)
	if purgeProvenance {
		path += "?purge=provenance"
	}
	return c.do(http.MethodDelete, path, nil, nil)
}

// Warm spins shard eid's pool and fingerprint up ahead of a burst.
func (c *Client) Warm(eid string) (service.ShardInfo, error) {
	var out service.ShardInfo
	err := c.do(http.MethodPost, eidPath(eid, "warm"), nil, &out)
	return out, err
}

// EventStream iterates a session's server-sent event stream. It resumes
// transparently: a dropped connection reconnects with Last-Event-ID set to
// the last sequence number delivered, so no event is lost or duplicated.
type EventStream struct {
	c        *Client
	eid, id  string
	after    int
	resp     *http.Response
	scanner  *bufio.Scanner
	done     bool
	retries  int
	maxRetry int
}

// StreamEvents opens the SSE stream of session id on shard eid, starting
// after sequence number after (0 = from the beginning).
func (c *Client) StreamEvents(eid, id string, after int) (*EventStream, error) {
	s := &EventStream{c: c, eid: eid, id: id, after: after, maxRetry: 5}
	if err := s.connect(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *EventStream) connect() error {
	req, err := http.NewRequest(http.MethodGet, s.c.base+eidPath(s.eid, "sessions", s.id, "events"), nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	if s.after > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(s.after))
	}
	resp, err := s.c.http.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return decodeAPIError(resp)
	}
	s.resp = resp
	s.scanner = bufio.NewScanner(resp.Body)
	s.scanner.Buffer(make([]byte, 0, 64<<10), 1<<20)
	return nil
}

// Next returns the next event. It returns io.EOF once the stream has
// delivered its terminal event and the server sent the done sentinel.
// Transport drops reconnect transparently from the last delivered
// sequence; the retry budget counts consecutive drops with no frame
// received (server heartbeats reset it, so a long-lived idle stream
// survives any number of intermediary timeouts).
func (s *EventStream) Next() (agent.Event, error) {
	for {
		ev, err := s.nextFrame()
		if err == nil || err == io.EOF {
			return ev, err
		}
		// Transport hiccup: resume from the last delivered sequence.
		s.Close()
		if s.retries++; s.retries > s.maxRetry {
			return agent.Event{}, fmt.Errorf("inferad: event stream lost after %d reconnects: %w", s.maxRetry, err)
		}
		time.Sleep(time.Duration(s.retries) * 50 * time.Millisecond)
		if cerr := s.connect(); cerr != nil {
			var ae *APIError
			if errors.As(cerr, &ae) {
				return agent.Event{}, cerr // the server answered: not a transport blip
			}
			continue // connect-level transport failure spends another retry
		}
	}
}

// nextFrame parses one SSE frame off the wire.
func (s *EventStream) nextFrame() (agent.Event, error) {
	if s.done {
		return agent.Event{}, io.EOF
	}
	if s.scanner == nil {
		return agent.Event{}, io.ErrUnexpectedEOF
	}
	var (
		eventType string
		data      []byte
	)
	for s.scanner.Scan() {
		line := s.scanner.Text()
		switch {
		case line == "":
			// Frame boundary.
			if eventType == "done" {
				s.done = true
				return agent.Event{}, io.EOF
			}
			if len(data) == 0 {
				// Comment/heartbeat frame: the connection is alive, so the
				// drop budget starts fresh.
				s.retries = 0
				eventType = ""
				continue
			}
			var ev agent.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return agent.Event{}, fmt.Errorf("inferad: bad event frame: %w", err)
			}
			s.retries = 0
			if ev.Seq > s.after {
				s.after = ev.Seq
			}
			return ev, nil
		case len(line) > 6 && line[:7] == "event: ":
			eventType = line[7:]
		case len(line) > 5 && line[:6] == "data: ":
			data = append(data, line[6:]...)
		case len(line) > 3 && line[:4] == "id: ":
			// Seq is also in the payload; the id line drives resume only.
		}
	}
	if err := s.scanner.Err(); err != nil {
		return agent.Event{}, err
	}
	// Body ended without the done sentinel: the connection dropped.
	return agent.Event{}, io.ErrUnexpectedEOF
}

// Close releases the underlying connection.
func (s *EventStream) Close() error {
	if s.resp != nil {
		err := s.resp.Body.Close()
		s.resp, s.scanner = nil, nil
		return err
	}
	return nil
}

// ErrDecisionExpired reports that a reviewer's plan decision could not be
// delivered because the review window had already closed — the server's
// approval deadline auto-approved the plan while the reviewer was
// deciding. ReviewedAsk returns it alongside the (still valid) result so
// callers can tell "answer from the approved plan" from "answer from a
// plan whose rejection was dropped".
var ErrDecisionExpired = errors.New("inferad: plan review window expired; plan was auto-approved")

// ReviewedAsk drives one interactive ask end to end: it starts the
// session, streams events, calls review on every proposed/revised plan
// (submitting the decision), forwards every event to onEvent (when set),
// and returns the final result once the stream completes. This is the one
// code path both the infera REPL and automated smoke tests run, so the
// interactive pipeline is exercised identically everywhere.
//
// If a rejection could not be delivered before the server's approval
// deadline, the session still completes and the result is returned
// together with ErrDecisionExpired.
func (c *Client) ReviewedAsk(eid string, req service.AskRequest,
	review func(ev agent.Event) agent.PlanDecision,
	onEvent func(ev agent.Event)) (*service.AskResult, error) {

	info, err := c.AskInteractive(eid, req)
	if err != nil {
		return nil, err
	}
	stream, err := c.StreamEvents(eid, info.ID, 0)
	if err != nil {
		return nil, err
	}
	defer stream.Close()
	droppedRejection := false
	for {
		ev, err := stream.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if onEvent != nil {
			onEvent(ev)
		}
		if ev.Kind == agent.EventPlanProposed || ev.Kind == agent.EventPlanRevised {
			if review == nil {
				continue // leave the decision to the approval deadline
			}
			d := review(ev)
			switch err := c.submitDecision(eid, info.ID, d); {
			case errors.Is(err, ErrDecisionExpired):
				// An expired approval is indistinguishable from the
				// auto-approval that replaced it; an expired rejection
				// changed the outcome and must be surfaced.
				if !d.Approve {
					droppedRejection = true
				}
			case err != nil:
				return nil, err
			}
		}
	}
	res, err := c.Result(eid, info.ID)
	if err != nil {
		return nil, err
	}
	if droppedRejection {
		return res, ErrDecisionExpired
	}
	return res, nil
}

// submitDecision delivers a plan decision. The server opens the review
// window before it emits the plan event, so a 409 here means the window
// has already closed (the deadline auto-approved the plan while the
// reviewer was deciding): ErrDecisionExpired.
func (c *Client) submitDecision(eid, id string, d agent.PlanDecision) error {
	err := c.SubmitPlan(eid, id, d)
	var ae *APIError
	if errors.As(err, &ae) && ae.Status == http.StatusConflict {
		return ErrDecisionExpired
	}
	return err
}
