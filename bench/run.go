package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"

	"infera/internal/service"
	"infera/internal/stage"
)

// sample is one completed ask as the client saw it.
type sample struct {
	index     int
	latencyMS float64
	tokens    int
	storage   int64
	failed    string // "" = correct; otherwise why it counts as failed
}

// window is the outcome of one closed-loop measurement window.
type window struct {
	samples []sample // in completion order
	wall    time.Duration
	cpu     time.Duration // process user+sys over the window
	sys     time.Duration // the system part of cpu
	stage   stage.Stats   // counter deltas over the window
}

// limit bounds a window: it ends at the first cycle boundary after
// `seconds` have passed, or after `asks` asks, whichever is set.
type limit struct {
	seconds float64
	asks    int
}

// askFunc sends one ask and returns its result; the HTTP client in the
// measured runs, an in-process call in the traced pass.
type askFunc func(a ask) (*service.AskResult, error)

// drive runs the closed loop: `workers` clients, each sending its next
// ask when the previous one returned. Ask indices are handed out in order,
// and issuing stops only at a cycle boundary, so the measured asks are
// always whole cycles of the workload's question mix — a time-bounded run
// and a count-bounded one differ in length, not in composition.
func drive(seq askSeq, cycle int, lim limit, g *golden, do askFunc, st *stage.Cache) window {
	var (
		mu      sync.Mutex
		next    int
		stop    = lim.asks - lim.asks%cycle // first index not to issue; 0 = undecided
		samples []sample
		wg      sync.WaitGroup
	)
	before := st.Stats()
	cpu0, sys0 := processCPU()
	start := time.Now()
	deadline := start.Add(time.Duration(lim.seconds * float64(time.Second)))
	draw := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stop == 0 && next > 0 && next%cycle == 0 && time.Now().After(deadline) {
			stop = next // first cycle boundary past the deadline
		}
		if stop > 0 && next >= stop {
			return 0, false
		}
		next++
		return next - 1, true
	}
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := draw()
				if !ok {
					return
				}
				a := seq.at(i)
				a.replaceSnapshot()
				t0 := time.Now()
				res, err := do(a)
				lat := time.Since(t0)
				s := sample{index: i, latencyMS: float64(lat) / float64(time.Millisecond), failed: g.check(a, res, err)}
				if res != nil {
					s.tokens, s.storage = res.Tokens, res.StorageBytes
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	cpu1, sys1 := processCPU()
	return window{samples: samples, wall: time.Since(start), cpu: cpu1 - cpu0, sys: sys1 - sys0, stage: stageDelta(before, st.Stats())}
}

// processCPU is the process's user+system CPU time so far, and the system
// part of it.
func processCPU() (total, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	sys = time.Duration(ru.Stime.Nano())
	return time.Duration(ru.Utime.Nano()) + sys, sys
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss is in
// KB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stageDelta subtracts the cumulative counters the per-layer metrics use.
func stageDelta(a, b stage.Stats) stage.Stats {
	return stage.Stats{
		Hits:           b.Hits - a.Hits,
		Misses:         b.Misses - a.Misses,
		BytesDecoded:   b.BytesDecoded - a.BytesDecoded,
		Invalidations:  b.Invalidations - a.Invalidations,
		Evictions:      b.Evictions - a.Evictions,
		StatCalls:      b.StatCalls - a.StatCalls,
		DiskHits:       b.DiskHits - a.DiskHits,
		DemotedBytes:   b.DemotedBytes - a.DemotedBytes,
		DiskWrites:     b.DiskWrites - a.DiskWrites,
		WatchEvents:    b.WatchEvents - a.WatchEvents,
		PrefetchUsed:   b.PrefetchUsed - a.PrefetchUsed,
		PrefetchWasted: b.PrefetchWasted - a.PrefetchWasted,
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the user-visible metrics of a window. Latency
// percentiles and the per-ask means cover the correct asks; a failed ask
// has no latency worth reporting and is counted in failed instead.
func (w window) endToEnd() (m map[string]metric, attempted, failed int, failures []string) {
	var lat []float64
	var tokens, storage float64
	for _, s := range w.samples {
		if s.failed != "" {
			failed++
			failures = append(failures, fmt.Sprintf("ask %d: %s", s.index, s.failed))
			continue
		}
		lat = append(lat, s.latencyMS)
		tokens += float64(s.tokens)
		storage += float64(s.storage)
	}
	attempted = len(w.samples)
	ok := float64(len(lat))
	sorted := sortedCopy(lat)
	m = map[string]metric{
		"ask_p50_ms":         {quantile(sorted, 0.5), "ms"},
		"ask_p95_ms":         {quantile(sorted, tailQuantile(len(sorted), 0.95)), "ms"},
		"asks_per_s":         {ok / w.wall.Seconds(), "1/s"},
		"cpu_ms_per_ask":     {float64(w.cpu) / float64(time.Millisecond) / float64(attempted), "ms"},
		"tokens_per_ask":     {tokens / ok, "count"},
		"storage_kb_per_ask": {storage / ok / 1024, "KB"},
	}
	return m, attempted, failed, failures
}
