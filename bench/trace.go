package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one ask share
// Ask; Parent is the ID of the span that caused this one (0 for a root).
// Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Ask    string `json:"ask"`
	// Name is "<layer>.<operation>", the layer being the repository package
	// the time belongs to.
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Count carries the span's work count where it has one: tokens of a
	// model round, bytes of a decode, fuel of a script run.
	Count int64 `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same code path runs traced and untraced.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(ask string, parent int, name string, start, end time.Time, count int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Ask: ask, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Count: count,
	})
	return id
}

// timed runs fn and records it as a span carrying the count fn returns;
// fn's error is passed through.
func (t *tracer) timed(ask string, parent int, name string, fn func() (int64, error)) error {
	start := time.Now()
	count, err := fn()
	t.add(ask, parent, name, start, time.Now(), count)
	return err
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children are clipped to the
// parent and overlapping children are counted once, so parallel or
// nested-by-mistake children can never push a self time below zero.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, cursor := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < cursor {
				lo = cursor
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}

// traceFile is the schema of trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
