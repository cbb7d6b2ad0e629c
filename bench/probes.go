package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"infera/internal/agent"
	"infera/internal/core"
	"infera/internal/dataframe"
	"infera/internal/gio"
	"infera/internal/hacc"
	"infera/internal/provenance"
	"infera/internal/rag"
	"infera/internal/sandbox"
	"infera/internal/script"
	"infera/internal/service"
	"infera/internal/sqldb"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// prober runs the replay probes: timed calls into one layer's public
// functions on inputs the sampled asks really used. Each call is a span
// named "<layer>.<op>" under a per-ask "replay" root, so the probes land
// in the same trace as the asks they explain.
type prober struct {
	e       *env
	a       *assistant
	tr      *tracer
	scratch string
	// store holds the scratch sessions the provenance replay records into.
	store *provenance.Store

	// mu guards everything below: the asks of a round are replayed side by
	// side.
	mu sync.Mutex
	// counts that are not durations
	sqlStatements, sqlFallbacks      int
	sqlSegments, sqlSegmentsPruned   int
	sqlScannedBytes                  int64
	gioBytesRead, gioFileBytes       int64
	budgetExceeded                   int
	provenanceBytes, provenanceFiles int64
	// loads is the distinct (file, columns) set the sample staged, for the
	// stage tier probes.
	loads []stage.Request
	seen  map[string]bool
}

// stagedLoads reconstructs the (file, columns) requests the data loader
// issued for an ask from the run's public state: the staged tables'
// columns that exist in the source files, over the loaded sims and steps.
func stagedLoads(cat *hacc.Catalog, st agent.State) map[string][]stage.Request {
	out := map[string][]stage.Request{}
	for table, entity := range map[string]string{"halos": hacc.FileHalos, "galaxies": hacc.FileGalaxies} {
		var cols []string
		for _, c := range st.Staged[table] {
			if _, ok := hacc.LookupColumn(entity, c); ok {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 {
			continue
		}
		for _, sim := range st.LoadedSims {
			for _, step := range st.LoadedSteps {
				if f, ok := cat.Find(sim, step, entity); ok {
					out[table] = append(out[table], stage.Request{Path: cat.AbsPath(f), Columns: cols})
				}
			}
		}
	}
	return out
}

func newProber(e *env, a *assistant, scratch string) (*prober, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	store, err := provenance.NewStore(filepath.Join(scratch, "sessions"))
	if err != nil {
		return nil, err
	}
	return &prober{e: e, a: a, tr: newTracer(), scratch: scratch, store: store, seen: map[string]bool{}}, nil
}

// replay runs every per-ask probe on one traced ask.
func (p *prober) replay(t *tracedAsk) error {
	id := t.out.id
	root := p.tr.add(id, 0, "replay", time.Now(), time.Now(), 0)
	if err := p.replayStage(id, root, t); err != nil {
		return fmt.Errorf("replay stage of %s: %w", id, err)
	}
	if err := p.replaySQL(id, root, t); err != nil {
		return fmt.Errorf("replay sql of %s: %w", id, err)
	}
	if err := p.replayExecs(id, root, t); err != nil {
		return fmt.Errorf("replay sandbox of %s: %w", id, err)
	}
	if err := p.replayProvenance(id, root, t); err != nil {
		return fmt.Errorf("replay provenance of %s: %w", id, err)
	}
	st := t.out.res.State
	task := ""
	if len(st.Plan.Steps) > 0 {
		task = st.Plan.Steps[0].Task
	}
	return p.tr.timed(id, root, "rag.retrieve", func() (int64, error) {
		return int64(len(p.a.retr.Retrieve(t.a.question, task, st.Plan.String()))), nil
	})
}

// replayStage repeats the ask's loads on the environment's own stage cache
// (so it sees the tier state the workload left: resident, evicted to disk,
// or gone), then reads the same blocks through gio directly, then ingests
// the frames into a fresh staged database as the loader does.
func (p *prober) replayStage(id string, root int, t *tracedAsk) error {
	for table, reqs := range stagedLoads(p.e.cat, t.out.res.State) {
		var results []stage.Result
		if err := p.tr.timed(id, root, "stage.load_all", func() (int64, error) {
			results = p.e.stage.LoadAll(reqs)
			var n int64
			for _, r := range results {
				if r.Err != nil {
					return n, r.Err
				}
				n += r.BytesRead
			}
			return n, nil
		}); err != nil {
			return err
		}
		frames := make([]*dataframe.Frame, 0, len(results))
		for i, r := range results {
			// The loader adds sim and step constants before ingesting.
			sim := make([]int64, r.Frame.NumRows())
			for _, name := range []string{"sim", "step"} {
				if err := r.Frame.AddColumn(dataframe.NewInt(name, sim)); err != nil {
					return err
				}
			}
			frames = append(frames, r.Frame)
			key := reqs[i].Path + "\x00" + strings.Join(reqs[i].Columns, ",")
			p.mu.Lock()
			if !p.seen[key] {
				p.seen[key] = true
				p.loads = append(p.loads, reqs[i])
			}
			p.mu.Unlock()
		}
		dir := filepath.Join(p.scratch, "ingest-"+id+"-"+table)
		err := p.tr.timed(id, root, "sqldb.ingest", func() (int64, error) {
			db, err := sqldb.CreateStaged(dir)
			if err != nil {
				return 0, err
			}
			return int64(len(frames)), db.BulkAppend(table, frames...)
		})
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for _, req := range reqs {
			if err := p.replayGio(id, root, req); err != nil {
				return err
			}
		}
	}
	return nil
}

// replayGio reads one load's blocks straight through the decoder.
func (p *prober) replayGio(id string, root int, req stage.Request) error {
	var rd *gio.Reader
	if err := p.tr.timed(id, root, "gio.open", func() (n int64, err error) {
		rd, err = gio.Open(req.Path)
		return 0, err
	}); err != nil {
		return err
	}
	defer rd.Close()
	for _, col := range req.Columns {
		if err := p.tr.timed(id, root, "gio.read_column", func() (int64, error) {
			_, n, err := rd.ReadColumn(col)
			return n, err
		}); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.gioBytesRead += rd.BytesRead()
	p.gioFileBytes += rd.Size()
	p.mu.Unlock()
	return nil
}

// replaySQL re-runs the ask's statements against its own staging database
// (still open) on each engine, and asks the planner what it would do.
func (p *prober) replaySQL(id string, root int, t *tracedAsk) error {
	stmts, err := t.out.sqlStatements()
	if err != nil {
		return err
	}
	db := t.out.db
	for _, sql := range stmts {
		info, err := db.ExplainQuery(sql)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.sqlStatements++
		p.sqlSegments += info.Segments
		p.sqlSegmentsPruned += info.SegmentsPruned
		if info.Backend != sqldb.BackendVectorized.String() {
			p.sqlFallbacks++
		}
		p.mu.Unlock()
		for _, b := range []sqldb.Backend{sqldb.BackendAuto, sqldb.BackendVectorized, sqldb.BackendTreeWalk} {
			if b == sqldb.BackendVectorized && info.Backend != b.String() {
				continue // the compiled engine refuses this statement
			}
			scanned := db.BytesScanned()
			if err := p.tr.timed(id, root, "sqldb.requery."+b.String(), func() (int64, error) {
				f, err := db.QueryBackend(sql, b)
				if err != nil {
					return 0, err
				}
				return int64(f.NumRows()), nil
			}); err != nil {
				return err
			}
			if b == sqldb.BackendAuto {
				p.mu.Lock()
				p.sqlScannedBytes += db.BytesScanned() - scanned
				p.mu.Unlock()
			}
		}
	}
	return nil
}

// replayExecs takes each captured sandbox execution apart: the CSV
// round trip that stages its tables, the compile, and the run on both
// script engines in a directory staged the way Executor.Exec stages it.
func (p *prober) replayExecs(id string, root int, t *tracedAsk) error {
	for i, ex := range t.rec.execs {
		dir := filepath.Join(p.scratch, fmt.Sprintf("exec-%s-%d", id, i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for name, f := range ex.tables {
			var buf bytes.Buffer
			if err := p.tr.timed(id, root, "dataframe.write_csv", func() (int64, error) {
				err := f.WriteCSV(&buf)
				return int64(buf.Len()), err
			}); err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(dir, name+".csv"), buf.Bytes(), 0o644); err != nil {
				return err
			}
			// Exec stages every table; the script parses the ones it loads.
			if !strings.Contains(ex.code, fmt.Sprintf("load_table(%q)", name)) {
				continue
			}
			if err := p.tr.timed(id, root, "dataframe.read_csv", func() (int64, error) {
				_, err := dataframe.ReadCSV(bytes.NewReader(buf.Bytes()))
				return int64(buf.Len()), err
			}); err != nil {
				return err
			}
		}
		var compiled *script.Compiled
		if err := p.tr.timed(id, root, "script.compile", func() (n int64, err error) {
			compiled, err = script.Compile(ex.code)
			return int64(len(ex.code)), err
		}); err != nil {
			return err
		}
		prog, err := script.Parse(ex.code)
		if err != nil {
			return err
		}
		for name, backend := range map[string]script.Backend{"vm": compiled, "treewalk": prog} {
			env := script.NewEnv(p.a.registry, dir)
			lim := sandbox.DefaultLimits()
			env.Budgets = script.Budgets{
				MaxFuel: lim.MaxFuel, MaxMemBytes: lim.MaxMemBytes, Deadline: time.Now().Add(lim.MaxWall),
				MaxArtifactBytes: lim.MaxArtifactBytes, MaxStdoutLines: lim.MaxStdoutLines,
			}
			rerr := p.tr.timed(id, root, "script.run."+name, func() (int64, error) {
				err := backend.Run(env)
				return env.FuelUsed, err
			})
			var be *script.BudgetError
			if errors.As(rerr, &be) {
				p.mu.Lock()
				p.budgetExceeded++
				p.mu.Unlock()
			} else if rerr != nil {
				return fmt.Errorf("script replay (%s): %w", name, rerr)
			}
		}
		os.RemoveAll(dir)
	}
	return nil
}

// replayProvenance records the ask's whole artifact trail again into a
// scratch session: frames through RecordFrame (CSV encode + hash + write),
// everything else through Record.
func (p *prober) replayProvenance(id string, root int, t *tracedAsk) error {
	sess, err := p.store.NewSession(id)
	if err != nil {
		return err
	}
	for _, e := range t.out.session.Manifest() {
		data, err := t.out.session.Read(e)
		if err != nil {
			return err
		}
		p.mu.Lock()
		p.provenanceBytes += e.Bytes
		p.provenanceFiles++
		p.mu.Unlock()
		var frame *dataframe.Frame
		if e.Kind == "data" && strings.HasSuffix(e.Name, ".csv") && e.Agent != "python" && e.Agent != "viz" {
			// Script-saved CSV artifacts are recorded as bytes; the sql and
			// analysis tables went through RecordFrame.
			if frame, err = dataframe.ReadCSV(bytes.NewReader(data)); err != nil {
				return err
			}
		}
		if err := p.tr.timed(id, root, "provenance.record", func() (int64, error) {
			var err error
			if frame != nil {
				_, err = sess.RecordFrame(e.Agent, e.Name, frame)
			} else {
				_, err = sess.Record(e.Agent, e.Kind, e.Name, data)
			}
			return e.Bytes, err
		}); err != nil {
			return err
		}
	}
	return p.store.RemoveSession(id)
}

// maxTierLoads bounds the stage tier probes: they decode each load three
// times and replace its file once. Their spans carry tierProbeAsk in place
// of an ask id.
const (
	maxTierLoads = 6
	tierProbeAsk = "tiers"
)

// stageTiers times the stage cache's tiers one at a time on private caches
// and private copies of the sampled files: a cold miss, a memory hit, the
// write-through persist, a promote after a restart, and how long a replaced file
// takes to be noticed and served fresh.
func (p *prober) stageTiers() error {
	loads := p.loads
	if len(loads) > maxTierLoads {
		loads = loads[:maxTierLoads]
	}
	dataDir := filepath.Join(p.scratch, "tier-data")
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return err
	}
	for i := range loads {
		private := filepath.Join(dataDir, fmt.Sprintf("%d-%s", i, filepath.Base(loads[i].Path)))
		spare := sparePath(dataDir, private)
		if err := os.MkdirAll(filepath.Dir(spare), 0o755); err != nil {
			return err
		}
		for _, dst := range []string{private, spare} {
			if err := copyFile(loads[i].Path, dst); err != nil {
				return err
			}
		}
		loads[i] = stage.Request{Path: private, Columns: loads[i].Columns}
	}
	blockDir := filepath.Join(p.scratch, "tier-blocks")
	newCache := func() (*stage.Cache, error) {
		c := stage.New(stage.DefaultBudgetBytes, 0)
		c.SetPrefetch(false) // time the asked-for blocks only
		if err := c.SetDiskTier(blockDir, 0); err != nil {
			return nil, err
		}
		_ = c.SetWatch(true) // without a watch backend the stat-TTL memo is what gets timed
		return c, nil
	}
	columns := func(c *stage.Cache, name string, r stage.Request) (n int64, err error) {
		err = p.tr.timed(tierProbeAsk, 0, name, func() (int64, error) {
			_, n, err = c.Columns(r.Path, r.Columns...)
			return n, err
		})
		return n, err
	}
	first, err := newCache()
	if err != nil {
		return err
	}
	for _, r := range loads {
		n, err := columns(first, "stage.miss", r)
		if err != nil {
			return err
		}
		_ = p.tr.timed(tierProbeAsk, 0, "stage.persist", func() (int64, error) {
			first.WaitPending()
			return n, nil
		})
		if _, err := columns(first, "stage.mem_hit", r); err != nil {
			return err
		}
	}
	first.Close()
	second, err := newCache() // the restart: empty memory over the same blocks
	if err != nil {
		return err
	}
	defer second.Close()
	for _, r := range loads {
		if _, err := columns(second, "stage.disk_promote", r); err != nil {
			return err
		}
	}
	for _, r := range loads {
		before := second.Stats()
		if err := swapInPlace(r.Path, sparePath(dataDir, r.Path)); err != nil {
			return err
		}
		start := time.Now()
		for {
			if _, _, err := second.Columns(r.Path, r.Columns...); err != nil {
				return err
			}
			now := second.Stats()
			if now.Misses > before.Misses || now.DiskHits > before.DiskHits {
				break // served from the new generation
			}
			if time.Since(start) > 5*time.Second {
				return fmt.Errorf("stage never noticed the replacement of %s", r.Path)
			}
		}
		p.tr.add(tierProbeAsk, 0, "stage.invalidate", start, time.Now(), 0)
	}
	second.WaitPending()
	return nil
}

// batchMS times n batches of `batch` calls each and returns the median
// per-call duration in ms; batching keeps the clock's own cost and
// resolution out of microsecond-scale calls.
func batchMS(n, batch int, fn func() error) (float64, error) {
	var ms []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		for j := 0; j < batch; j++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		ms = append(ms, float64(time.Since(start))/float64(time.Millisecond)/float64(batch))
	}
	return median(ms), nil
}

// oneOff measures the costs that are paid per process, per shard or per
// request on the serving path rather than per layer call inside an ask.
func (p *prober) oneOff(m map[string]metric) error {
	e := p.e
	owner := e.owner()
	direct := owner.direct()
	// probe stores the median of n timed calls of fn under name, in ms.
	probe := func(name string, n int, fn func() error) error {
		v, err := batchMS(n, 1, fn)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = metric{v, "ms"}
		return nil
	}
	cores, shards := 0, 0
	for _, err := range []error{
		probe("rag.index_build_ms", 5, func() error { rag.BuildHACCIndex(); return nil }),
		probe("hacc.catalog_load_ms", 5, func() error { _, err := hacc.Load(e.dataDir); return err }),
		probe("core.new_ms", 5, func() error {
			cores++
			a, err := core.New(core.Config{EnsembleDir: e.dataDir, Catalog: e.cat, Stage: e.stage,
				WorkDir: filepath.Join(p.scratch, fmt.Sprintf("core-%d", cores))})
			if err != nil {
				return err
			}
			return a.Close()
		}),
		// One scrape of a node that served the counter window.
		probe("telemetry.scrape_ms", 10, func() error { _, err := direct.PrometheusMetrics(); return err }),
		// A second shard over the same directory: register + spin the pool up.
		probe("service.shard_open_ms", 3, func() error {
			shards++
			name := fmt.Sprintf("probe-%d", shards)
			if _, err := owner.reg.Register(name, e.dataDir); err != nil {
				return err
			}
			_, err := owner.reg.Warm(name)
			return err
		}),
	} {
		if err != nil {
			return err
		}
	}
	for i := 1; i <= shards; i++ {
		if err := owner.reg.Unregister(fmt.Sprintf("probe-%d", i), true); err != nil {
			return err
		}
	}

	fp, err := batchMS(20, 100, func() error {
		_, err := service.CachedFingerprint(e.dataDir, service.DefaultFingerprintTTL)
		return err
	})
	if err != nil {
		return fmt.Errorf("service.fingerprint_us: %w", err)
	}
	m["service.fingerprint_us"] = metric{fp * 1000, "us"}

	h := telemetry.NewRegistry().Histogram("bench_probe_seconds", nil)
	const observes = 1_000_000
	start := time.Now()
	for i := 0; i < observes; i++ {
		h.Observe(float64(i&1023) * 1e-4)
	}
	m["telemetry.observe_ns"] = metric{float64(time.Since(start).Nanoseconds()) / observes, "ns"}

	// service: the same cached (question, seed) pair asked in process,
	// over HTTP to the owning node, and (routed workloads) through the
	// router. The differences are the HTTP+JSON+client cost and the hop.
	req := service.AskRequest{Question: e.seq.warm[0].question, Seed: 424242}
	if _, err := owner.reg.Ask(shardName, req); err != nil {
		return fmt.Errorf("service probes: %w", err)
	}
	cached := func(do func(string, service.AskRequest) (*service.AskResult, error)) func() error {
		return func() error {
			res, err := do(shardName, req)
			if err == nil && !res.Cached {
				err = errors.New("probe ask was not served from the answer cache")
			}
			return err
		}
	}
	const hits = 300
	inProcMS, err := batchMS(hits/10, 10, cached(owner.reg.Ask))
	if err != nil {
		return fmt.Errorf("service.cache_hit_us: %w", err)
	}
	directMS, err := batchMS(hits, 1, cached(direct.Ask))
	if err != nil {
		return fmt.Errorf("service.http_overhead_us: %w", err)
	}
	m["service.cache_hit_us"] = metric{inProcMS * 1000, "us"}
	m["service.http_overhead_us"] = metric{(directMS - inProcMS) * 1000, "us"}
	m["fleet.hop_us"] = metric{0, "us"}
	if e.router != nil {
		routedMS, err := batchMS(hits, 1, cached(e.cli.Ask))
		if err != nil {
			return fmt.Errorf("fleet.hop_us: %w", err)
		}
		m["fleet.hop_us"] = metric{(routedMS - directMS) * 1000, "us"}
	}

	// An interactive ask: POST to the first plan_proposed frame on the SSE
	// stream, then approve so the session finishes.
	var firstEvent []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		var seen time.Duration
		_, err := direct.ReviewedAsk(shardName,
			service.AskRequest{Question: e.seq.warm[0].question, Seed: int64(515151 + i)},
			func(agent.Event) agent.PlanDecision {
				if seen == 0 {
					seen = time.Since(start)
				}
				return agent.PlanDecision{Approve: true}
			}, nil)
		if err != nil {
			return fmt.Errorf("service.sse_first_event_ms: %w", err)
		}
		firstEvent = append(firstEvent, float64(seen)/float64(time.Millisecond))
	}
	m["service.sse_first_event_ms"] = metric{median(firstEvent), "ms"}
	return nil
}

// counters is a reading of the public cumulative counters the traced pass
// differences across its served window.
type counters struct {
	at                           time.Time
	queueWaitSum                 float64
	queueWaitCount               int64
	completed, cached            int64
	forwards, retries, failovers int64
	mem                          runtime.MemStats
}

func snapshotCounters(e *env) counters {
	c := counters{at: time.Now()}
	for _, n := range e.nodes {
		h := n.metrics.Histogram("infera_queue_wait_seconds", nil, telemetry.L("ensemble", shardName))
		c.queueWaitSum += h.Sum()
		c.queueWaitCount += h.Count()
		rm := n.reg.Metrics()
		c.completed += rm.Completed
		c.cached += rm.CachedTotal
		if e.routerMetrics != nil {
			c.forwards += e.routerMetrics.Counter("infera_fleet_forwards_total", telemetry.L("node", n.name)).Value()
		}
	}
	if e.routerMetrics != nil {
		c.retries = e.routerMetrics.Counter("infera_fleet_retries_total").Value()
		c.failovers = e.routerMetrics.Counter("infera_fleet_failovers_total").Value()
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// counterMetrics turns the served window's counter deltas into per-ask
// per-layer metrics.
func counterMetrics(m map[string]metric, win window, a, b counters) {
	asks := float64(len(win.samples))
	per := func(v int64) float64 { return float64(v) / asks }
	s := win.stage
	m["stage.mem_hits_per_ask"] = metric{per(s.Hits), "count"}
	m["stage.misses_per_ask"] = metric{per(s.Misses), "count"}
	m["stage.disk_hits_per_ask"] = metric{per(s.DiskHits), "count"}
	m["stage.evictions_per_ask"] = metric{per(s.Evictions), "count"}
	m["stage.decoded_kb_per_ask"] = metric{per(s.BytesDecoded) / 1024, "KB"}
	// The block store reports writes as a count; the bytes written through
	// are the decoded and demoted payloads.
	m["stage.disk_write_kb_per_ask"] = metric{0, "KB"}
	if s.DiskWrites > 0 {
		m["stage.disk_write_kb_per_ask"] = metric{per(s.BytesDecoded+s.DemotedBytes) / 1024, "KB"}
	}
	m["stage.stat_calls_per_ask"] = metric{per(s.StatCalls), "count"}
	m["stage.watch_events"] = metric{float64(s.WatchEvents), "count"}
	m["stage.prefetch_used_share"] = metric{0, "ratio"}
	if n := s.PrefetchUsed + s.PrefetchWasted; n > 0 {
		m["stage.prefetch_used_share"] = metric{float64(s.PrefetchUsed) / float64(n), "ratio"}
	}
	m["service.queue_wait_ms"] = metric{0, "ms"}
	if n := b.queueWaitCount - a.queueWaitCount; n > 0 {
		m["service.queue_wait_ms"] = metric{(b.queueWaitSum - a.queueWaitSum) / float64(n) * 1000, "ms"}
	}
	m["fleet.forwards_per_ask"] = metric{per(b.forwards - a.forwards), "count"}
	m["fleet.retries"] = metric{float64(b.retries - a.retries), "count"}
	m["fleet.failovers"] = metric{float64(b.failovers - a.failovers), "count"}
	m["process.allocs_per_ask"] = metric{per(int64(b.mem.Mallocs - a.mem.Mallocs)), "count"}
	m["process.alloc_mb_per_ask"] = metric{per(int64(b.mem.TotalAlloc-a.mem.TotalAlloc)) / (1 << 20), "MB"}
	m["process.gc_pause_ms_per_s"] = metric{float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6 / b.at.Sub(a.at).Seconds(), "ms/s"}
}

// layerSpec names one per-layer metric of the traced pass.
type layerSpec struct{ name, unit, better string }

// perLayerSpecs is every metric a traced pass reports; tracedRun refuses to
// report fewer or others, and BENCHMARK.json lists exactly these.
var perLayerSpecs = []layerSpec{
	{"gio.decode_mb_s", "MB/s", "higher"},
	{"gio.open_us", "us", "lower"},
	{"gio.bytes_read_share", "ratio", "lower"},
	{"stage.miss_ms", "ms", "lower"},
	{"stage.mem_hit_us", "us", "lower"},
	{"stage.disk_promote_ms", "ms", "lower"},
	{"stage.persist_mb_s", "MB/s", "higher"},
	{"stage.invalidate_ms", "ms", "lower"},
	{"stage.mem_hits_per_ask", "count", "higher"},
	{"stage.misses_per_ask", "count", "lower"},
	{"stage.disk_hits_per_ask", "count", "higher"},
	{"stage.evictions_per_ask", "count", "lower"},
	{"stage.decoded_kb_per_ask", "KB", "lower"},
	{"stage.disk_write_kb_per_ask", "KB", "lower"},
	{"stage.stat_calls_per_ask", "count", "lower"},
	{"stage.watch_events", "count", "lower"},
	{"stage.prefetch_used_share", "ratio", "higher"},
	{"dataframe.csv_write_mb_s", "MB/s", "higher"},
	{"dataframe.csv_read_mb_s", "MB/s", "higher"},
	{"sqldb.ingest_us", "us", "lower"},
	{"sqldb.query_ms.auto", "ms", "lower"},
	{"sqldb.query_ms.vectorized", "ms", "lower"},
	{"sqldb.query_ms.treewalk", "ms", "lower"},
	{"sqldb.fallback_share", "ratio", "lower"},
	{"sqldb.segments_pruned_share", "ratio", "higher"},
	{"sqldb.scanned_kb_per_query", "KB", "lower"},
	{"sandbox.exec_ms.python", "ms", "lower"},
	{"sandbox.exec_ms.viz", "ms", "lower"},
	{"sandbox.table_stage_share", "ratio", "lower"},
	{"script.compile_us", "us", "lower"},
	{"script.run_ms.vm", "ms", "lower"},
	{"script.run_ms.treewalk", "ms", "lower"},
	{"script.fuel_per_exec", "count", "lower"},
	{"script.budget_exceeded", "count", "lower"},
	{"llm.rounds_per_ask", "count", "lower"},
	{"llm.complete_us", "us", "lower"},
	{"llm.tokens_per_round", "count", "lower"},
	{"rag.retrieve_us", "us", "lower"},
	{"rag.index_build_ms", "ms", "lower"},
	{"agent.run_ms", "ms", "lower"},
	{"agent.self_ms", "ms", "lower"},
	{"agent.redo_per_ask", "count", "lower"},
	{"agent.plan_steps_per_ask", "count", "lower"},
	{"provenance.record_mb_s", "MB/s", "higher"},
	{"provenance.kb_per_ask", "KB", "lower"},
	{"provenance.files_per_ask", "count", "lower"},
	{"core.new_ms", "ms", "lower"},
	{"hacc.catalog_load_ms", "ms", "lower"},
	{"service.cache_hit_us", "us", "lower"},
	{"service.fingerprint_us", "us", "lower"},
	{"service.http_overhead_us", "us", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.shard_open_ms", "ms", "lower"},
	{"service.sse_first_event_ms", "ms", "lower"},
	{"fleet.hop_us", "us", "lower"},
	{"fleet.forwards_per_ask", "count", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"telemetry.scrape_ms", "ms", "lower"},
	{"telemetry.observe_ns", "ns", "lower"},
	{"process.allocs_per_ask", "count", "lower"},
	{"process.alloc_mb_per_ask", "MB", "lower"},
	{"process.gc_pause_ms_per_s", "ms/s", "lower"},
	{"process.calib_ms", "ms", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
}

// checkComplete fails when m is not exactly the per-layer metric set, with
// the declared units.
func checkComplete(m map[string]metric) error {
	for _, s := range perLayerSpecs {
		got, ok := m[s.name]
		if !ok {
			return fmt.Errorf("traced pass did not measure %s", s.name)
		}
		if got.Unit != s.unit {
			return fmt.Errorf("%s reported in %s, declared in %s", s.name, got.Unit, s.unit)
		}
	}
	if len(m) != len(perLayerSpecs) {
		return fmt.Errorf("traced pass reports %d metrics, %d are declared", len(m), len(perLayerSpecs))
	}
	return nil
}

// spanMS collects the durations (ms) of the spans called name.
func spanMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(time.Millisecond))
		}
	}
	return out
}

// throughputMBs is total Count bytes over total time of the spans called
// name, in MB/s; 0 when there are none.
func throughputMBs(spans []span, name string) float64 {
	var bytes int64
	var dur time.Duration
	for _, s := range spans {
		if s.Name == name {
			bytes += s.Count
			dur += s.dur()
		}
	}
	if dur == 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) / dur.Seconds()
}

// perAsk sums, per ask ID, the durations (ms) of spans whose name has the
// given prefix, using self times when self is non-nil.
func perAsk(spans []span, prefix string, self map[int]time.Duration) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		d := s.dur()
		if self != nil {
			d = self[s.ID]
		}
		out[s.Ask] += float64(d) / float64(time.Millisecond)
	}
	return out
}

func sum(m map[string]float64) float64 {
	var t float64
	for _, v := range m {
		t += v
	}
	return t
}

// layerMetrics derives the span-based per-layer metrics.
func layerMetrics(m map[string]metric, spans []span, sample []*tracedAsk, p *prober) {
	med := func(name, unit, span string, scale float64) {
		m[name] = metric{median(spanMS(spans, span)) * scale, unit}
	}
	asks := float64(len(sample))
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	med("gio.open_us", "us", "gio.open", 1000)
	m["gio.decode_mb_s"] = metric{throughputMBs(spans, "gio.read_column"), "MB/s"}
	m["gio.bytes_read_share"] = metric{ratio(float64(p.gioBytesRead), float64(p.gioFileBytes)), "ratio"}

	med("stage.miss_ms", "ms", "stage.miss", 1)
	med("stage.mem_hit_us", "us", "stage.mem_hit", 1000)
	med("stage.disk_promote_ms", "ms", "stage.disk_promote", 1)
	med("stage.invalidate_ms", "ms", "stage.invalidate", 1)
	m["stage.persist_mb_s"] = metric{throughputMBs(spans, "stage.persist"), "MB/s"}

	m["dataframe.csv_write_mb_s"] = metric{throughputMBs(spans, "dataframe.write_csv"), "MB/s"}
	m["dataframe.csv_read_mb_s"] = metric{throughputMBs(spans, "dataframe.read_csv"), "MB/s"}

	med("sqldb.ingest_us", "us", "sqldb.ingest", 1000)
	med("sqldb.query_ms.auto", "ms", "sqldb.requery.auto", 1)
	med("sqldb.query_ms.vectorized", "ms", "sqldb.requery.vectorized", 1)
	med("sqldb.query_ms.treewalk", "ms", "sqldb.requery.treewalk", 1)
	m["sqldb.fallback_share"] = metric{ratio(float64(p.sqlFallbacks), float64(p.sqlStatements)), "ratio"}
	m["sqldb.segments_pruned_share"] = metric{ratio(float64(p.sqlSegmentsPruned), float64(p.sqlSegments)), "ratio"}
	m["sqldb.scanned_kb_per_query"] = metric{ratio(float64(p.sqlScannedBytes)/1024, float64(p.sqlStatements)), "KB"}

	med("sandbox.exec_ms.python", "ms", "sandbox.exec.python", 1)
	med("sandbox.exec_ms.viz", "ms", "sandbox.exec.viz", 1)
	csv := sum(perAsk(spans, "dataframe.", nil))
	execs := sum(perAsk(spans, "sandbox.exec.", nil))
	m["sandbox.table_stage_share"] = metric{ratio(csv, execs), "ratio"}

	med("script.compile_us", "us", "script.compile", 1000)
	med("script.run_ms.vm", "ms", "script.run.vm", 1)
	med("script.run_ms.treewalk", "ms", "script.run.treewalk", 1)
	var fuel, runs, rounds, tokens float64
	for _, s := range spans {
		switch s.Name {
		case "script.run.vm":
			fuel += float64(s.Count)
			runs++
		case "llm.complete":
			tokens += float64(s.Count)
			rounds++
		}
	}
	m["script.fuel_per_exec"] = metric{ratio(fuel, runs), "count"}
	m["script.budget_exceeded"] = metric{float64(p.budgetExceeded), "count"}

	m["llm.rounds_per_ask"] = metric{ratio(rounds, asks), "count"}
	med("llm.complete_us", "us", "llm.complete", 1000)
	m["llm.tokens_per_round"] = metric{ratio(tokens, rounds), "count"}

	med("rag.retrieve_us", "us", "rag.retrieve", 1000)

	// agent: the run, and what is left of it once the model, the sandbox,
	// SQL (child spans) and the replayed stage, provenance and retrieval
	// work are taken out — the graph, checkpoints and glue.
	med("agent.run_ms", "ms", "agent.run", 1)
	self := perAsk(spans, "agent.", selfTimes(spans))
	opaque := perAsk(spans, "stage.load_all", nil)
	for id, v := range perAsk(spans, "provenance.record", nil) {
		opaque[id] += v
	}
	for id, v := range perAsk(spans, "rag.retrieve", nil) {
		opaque[id] += v
	}
	var selfMS []float64
	var redo, steps float64
	for _, t := range sample {
		v := self[t.out.id] - opaque[t.out.id]
		if v < 0 {
			v = 0
		}
		selfMS = append(selfMS, v)
		redo += float64(t.out.res.State.RedoCount)
		steps += float64(len(t.out.res.State.Plan.Steps))
	}
	m["agent.self_ms"] = metric{median(selfMS), "ms"}
	m["agent.redo_per_ask"] = metric{ratio(redo, asks), "count"}
	m["agent.plan_steps_per_ask"] = metric{ratio(steps, asks), "count"}

	m["provenance.record_mb_s"] = metric{throughputMBs(spans, "provenance.record"), "MB/s"}
	m["provenance.kb_per_ask"] = metric{ratio(float64(p.provenanceBytes)/1024, asks), "KB"}
	m["provenance.files_per_ask"] = metric{ratio(float64(p.provenanceFiles), asks), "count"}
}

// printShares prints, per span name, the total time spent and its share of
// the agent.run time of the sample: where one ask spends its time. Replay
// spans are estimates of work done inside the agent's spans, so the shares
// overlap and do not add up to 100.
func printShares(spans []span) {
	run := sum(perAsk(spans, "agent.run", nil))
	byName := map[string]float64{}
	for _, s := range spans {
		if s.Ask != tierProbeAsk && s.Name != "replay" {
			byName[s.Name] += float64(s.dur()) / float64(time.Millisecond)
		}
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "bench: span %-24s %10.1f ms total, %5.1f%% of agent.run\n", n, byName[n], 100*byName[n]/run)
	}
}

// checkValidity fails the traced pass when a workload no longer stresses
// what it exists to stress — the number a later change is judged on would
// then describe some other regime.
func checkValidity(w *workload, m map[string]metric, spans []span, win window, a, b counters, overheads []float64) error {
	run := sum(perAsk(spans, "agent.run", nil))
	share := func(prefixes ...string) float64 {
		var t float64
		for _, p := range prefixes {
			t += sum(perAsk(spans, p, nil))
		}
		return t / run
	}
	// Child spans plus the replayed opaque work should not claim more than
	// the runs they explain (agent.self_ms is what is left). The replays are
	// estimates made beside another replay, so an overshoot is logged for
	// whoever reads the attribution, not failed.
	fmt.Fprintf(os.Stderr, "bench: %s: spans and replays claim %.0f%% of agent.run time\n", w.name,
		100*share("llm.complete", "sandbox.exec.", "sqldb.query", "stage.load_all", "provenance.record", "rag.retrieve"))
	switch w.name {
	case "warm_mixed":
		if s := share("sandbox.exec.", "provenance.record"); s < 0.50 {
			return fmt.Errorf("validity: warm_mixed spends %.0f%% of agent.run in sandbox+script+dataframe+provenance, want >= 50%%", s*100)
		}
		// Tracing has to stay cheap. One pair of blocks says little on a
		// shared box (the reported median moves by a few points either way),
		// so the pass fails only when every pair agrees.
		if lo, _ := minMax(overheads); lo >= 0.10 {
			return fmt.Errorf("validity: tracing overhead is at least %.1f%% in every block pair on warm_mixed (median %.1f%%), want < 10%%",
				lo*100, m["trace.overhead_share"].Value*100)
		}
	case "cold_scan":
		// stage.load_all is the ask's own loads repeated on the ask's own
		// cache: the stage miss path with the gio decode inside it.
		if s := share("stage.load_all"); s < 0.30 {
			return fmt.Errorf("validity: cold_scan spends %.0f%% of agent.run in gio+stage, want >= 30%%", s*100)
		}
	case "cached_routed":
		if n := b.completed - a.completed; n != 0 {
			return fmt.Errorf("validity: cached_routed ran %d agent workflows in its timed window, want 0", n)
		}
	case "disk_churn":
		s := win.stage
		if s.DiskHits == 0 || s.Invalidations+s.WatchEvents == 0 || s.DiskWrites == 0 {
			return fmt.Errorf("validity: disk_churn saw %d disk hits, %d invalidations, %d watch events, %d disk writes; all must be > 0",
				s.DiskHits, s.Invalidations, s.WatchEvents, s.DiskWrites)
		}
	}
	return nil
}
