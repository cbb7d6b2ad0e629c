package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"infera/internal/agent"
	"infera/internal/dataframe"
	"infera/internal/llm"
	"infera/internal/sandbox"
)

// interval is a raw timed call a decorator saw during one ask; the ask's
// recorder turns intervals into spans once the run is over and its step
// boundaries are known.
type interval struct {
	start, end time.Time
	count      int64
}

// execCapture is one sandbox execution as the runner decorator saw it: the
// timing, and the inputs the replay probes run the inner layers on again.
type execCapture struct {
	interval
	code   string
	tables map[string]*dataframe.Frame
}

// recorder collects one ask's decorator observations. A workflow runs on
// one goroutine, so it needs no lock.
type recorder struct {
	rounds []interval
	execs  []execCapture
}

// tracedModel times every model round at the llm.Client seam.
type tracedModel struct {
	llm.Client
	rec *recorder
}

func (m tracedModel) Complete(req llm.Request) (llm.Response, error) {
	start := time.Now()
	resp, err := m.Client.Complete(req)
	m.rec.rounds = append(m.rec.rounds, interval{start, time.Now(), int64(resp.Usage.Total())})
	return resp, err
}

// tracedRunner times every execution at the sandbox.Runner seam and keeps
// its inputs. The table frames are immutable shells over shared vectors,
// so holding them costs references, not copies.
type tracedRunner struct {
	sandbox.Runner
	rec *recorder
}

func (r tracedRunner) Exec(code string, tables map[string]*dataframe.Frame) sandbox.Result {
	start := time.Now()
	res := r.Runner.Exec(code, tables)
	r.rec.execs = append(r.rec.execs, execCapture{interval{start, time.Now(), res.FuelUsed}, code, tables})
	return res
}

// tracedAsk is one sampled ask with everything the replay probes need.
type tracedAsk struct {
	a   ask
	out *outcome
	rec *recorder
}

// addSpans turns one finished ask into its span tree:
//
//	agent.run
//	  agent.plan                      (from plan events)
//	    llm.complete
//	  llm.complete                    (supervisor and documentation rounds)
//	  agent.step.<dataloader|sql|python|viz>   (from step events)
//	    llm.complete
//	    sandbox.exec.<python|viz>
//	    sqldb.query                   (the run's summed query phase)
func addSpans(tr *tracer, t *tracedAsk) {
	id := t.out.id
	root := tr.add(id, 0, "agent.run", t.out.start, t.out.end, 0)
	type box struct {
		id         int
		agent      string
		start, end time.Time
	}
	var boxes []box
	var open *agent.Event
	for i, ev := range t.out.events {
		switch ev.Kind {
		case agent.EventPlanProposed, agent.EventPlanRevised:
			start := ev.Time.Add(-time.Duration(ev.ElapsedNS))
			boxes = append(boxes, box{tr.add(id, root, "agent.plan", start, ev.Time, 0), "plan", start, ev.Time})
		case agent.EventStepStarted:
			open = &t.out.events[i]
		case agent.EventStepFinished:
			if open != nil {
				boxes = append(boxes, box{tr.add(id, root, "agent.step."+ev.Agent, open.Time, ev.Time, ev.FuelUsed), ev.Agent, open.Time, ev.Time})
				open = nil
			}
		}
	}
	within := func(at time.Time) *box {
		for i := range boxes {
			if !at.Before(boxes[i].start) && !at.After(boxes[i].end) {
				return &boxes[i]
			}
		}
		return nil
	}
	for _, r := range t.rec.rounds {
		parent := root
		if b := within(r.start); b != nil {
			parent = b.id
		}
		tr.add(id, parent, "llm.complete", r.start, r.end, r.count)
	}
	for _, e := range t.rec.execs {
		parent, who := root, "python"
		if b := within(e.start); b != nil {
			parent, who = b.id, b.agent
		}
		tr.add(id, parent, "sandbox.exec."+who, e.start, e.end, e.count)
	}
	// The runtime reports SQL execution only as a per-run total (the query
	// phase of the answer event). Place it where it ran: in the sql step,
	// right after the step's first model round produced the statement.
	if ans := answerEvent(t.out.events); ans != nil && ans.PhasesNS[agent.PhaseQuery] > 0 {
		for _, b := range boxes {
			if b.agent != "sql" {
				continue
			}
			start := b.start
			for _, r := range t.rec.rounds {
				if !r.start.Before(b.start) && !r.end.After(b.end) {
					start = r.end
					break
				}
			}
			tr.add(id, b.id, "sqldb.query", start, start.Add(time.Duration(ans.PhasesNS[agent.PhaseQuery])), 0)
			break
		}
	}
}

func answerEvent(events []agent.Event) *agent.AnswerEvent {
	for _, ev := range events {
		if ev.Kind == agent.EventAnswer {
			return ev.Answer
		}
	}
	return nil
}

// sampleBlock runs asks [from, from+n) of the environment's sequence in
// process, `workers` at a time as the closed loop has them in flight, and
// returns the asks with the time the rounds took. In a traced block each
// round's asks become spans and are replayed before the next round starts,
// side by side as they ran, so a replayed layer competes for the cores and
// the allocator the way it did inside its ask. A sampled ask thus holds its
// staging database and tables only until its own replay: a block that kept
// them to its end held hundreds of MB on cold_scan and ran a quarter slower
// than the untraced block it is compared with. It fails on the first
// incorrect answer.
func (p *prober) sampleBlock(from, n int, traced bool, g *golden) ([]*tracedAsk, time.Duration, error) {
	var out []*tracedAsk
	var wall time.Duration
	for i := 0; i < n; i += workers {
		round := make([]*tracedAsk, min(workers, n-i))
		errs := make([]error, len(round))
		var wg sync.WaitGroup
		start := time.Now()
		for j := range round {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := &tracedAsk{a: p.e.seq.at(from + i + j), rec: &recorder{}}
				t.a.replaceSnapshot()
				var model llm.Client = newModel(t.a.seed)
				var runner sandbox.Runner = p.a.executor()
				if traced {
					model, runner = tracedModel{model, t.rec}, tracedRunner{runner, t.rec}
				}
				t.out, errs[j] = p.a.ask(t.a.question, model, runner)
				round[j] = t
			}()
		}
		wg.Wait()
		wall += time.Since(start)
		for j, t := range round {
			if errs[j] != nil {
				return nil, 0, errs[j]
			}
			if why := g.check(t.a, t.out.askResult(), nil); why != "" {
				return nil, 0, fmt.Errorf("in-process ask %d: %s", from+i+j, why)
			}
		}
		if traced {
			for j, t := range round {
				addSpans(p.tr, t)
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[j] = p.replay(t)
				}()
			}
			wg.Wait()
		}
		for j, t := range round {
			if errs[j] != nil {
				return nil, 0, errs[j]
			}
			t.out.release()
			t.rec.execs = nil // the captured tables
		}
		out = append(out, round...)
	}
	return out, wall, nil
}

// minTracedAsks is the smallest traced sample; it is rounded up to whole
// cycles of the workload's question mix.
const minTracedAsks = 60

// tracedRun is the --trace 1 pass of one workload:
//
//  1. set up exactly as a measured run does;
//  2. a short untraced window through the served path, for the public
//     counter deltas (stage, service, fleet, runtime);
//  3. an in-process sample of the same ask sequence on a runtime this
//     package assembles, alternating untraced and traced blocks: the
//     traced blocks give the spans, the alternation the tracing overhead;
//  4. replay probes: each layer's public functions timed on the inputs the
//     sampled asks used, after each round of traced asks, then the stage
//     tiers on private caches;
//  5. one-off probes of set-up costs and of the serving path.
//
// Every timing lands in the tracer as a span; the per-layer metrics are
// medians and sums over those spans plus the counter deltas.
func tracedRun(o options, w *workload, dataDir, scratch string, lim limit, g *golden) (*result, error) {
	e, _, err := setUp(w, dataDir, filepath.Join(scratch, "setup"), o.seed, g)
	if err != nil {
		return nil, err
	}
	defer e.down()
	m := map[string]metric{}

	// 2. counter window: a third of the run's budget.
	calib := calibrate()
	before := snapshotCounters(e)
	win := drive(e.seq, w.cycle, limit{seconds: lim.seconds / 3, asks: lim.asks / 3}, g, e.ask, e.stage)
	_, attempted, failed, failures := win.endToEnd()
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench: failed", f)
	}
	after := snapshotCounters(e)
	counterMetrics(m, win, before, after)
	m["process.calib_ms"] = metric{calib, "ms"}

	// 3. in-process sample, continuing the ask sequence where the window
	// stopped so no (question, seed) pair repeats.
	a, err := newAssistant(e.cat, e.stage, filepath.Join(scratch, "inproc"), sandbox.BackendVM)
	if err != nil {
		return nil, err
	}
	p, err := newProber(e, a, filepath.Join(scratch, "probe"))
	if err != nil {
		return nil, err
	}
	blocks := (minTracedAsks + w.cycle - 1) / w.cycle
	next := attempted
	var sample []*tracedAsk
	var overheads []float64
	for b := 0; b < blocks; b++ {
		_, plainWall, err := p.sampleBlock(next, w.cycle, false, g)
		if err != nil {
			return nil, err
		}
		next += w.cycle
		traced, tracedWall, err := p.sampleBlock(next, w.cycle, true, g)
		if err != nil {
			return nil, err
		}
		next += w.cycle
		sample = append(sample, traced...)
		overheads = append(overheads, 1-plainWall.Seconds()/tracedWall.Seconds())
	}
	// The median over the block pairs: one stalled block must not decide it.
	m["trace.overhead_share"] = metric{median(overheads), "ratio"}

	// 4 (the per-ask replays ran with the sample) and 5.
	if err := p.stageTiers(); err != nil {
		return nil, err
	}
	if err := p.oneOff(m); err != nil {
		return nil, err
	}
	spans := p.tr.all()
	printShares(spans)
	layerMetrics(m, spans, sample, p)
	if err := checkComplete(m); err != nil {
		return nil, err
	}
	if err := checkValidity(w, m, spans, win, before, after, overheads); err != nil {
		return nil, err
	}
	if o.traceOut != "" {
		if err := writeTrace(o.traceOut, traceFile{Workload: w.name, Seed: o.seed, Spans: spans}); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s traced: %d served asks for counters, %d traced asks, %d spans\n",
		w.name, attempted, len(sample), len(spans))
	return &result{Correct: failed == 0, Attempted: attempted + len(sample), Failed: failed, Metrics: m}, nil
}

// calibrate times a fixed spin loop: a reading of how fast this box is
// right now, independent of the code under test. The suite compares it
// across repeats to tell a noisy neighbour from a regression.
func calibrate() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runtime.KeepAlive(x)
		ms := float64(time.Since(start)) / float64(time.Millisecond)
		if best == 0 || ms < best {
			best = ms
		}
	}
	return best
}
