package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"infera/internal/client"
	"infera/internal/fleet"
	"infera/internal/hacc"
	"infera/internal/llm"
	"infera/internal/sandbox"
	"infera/internal/service"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// shardName is the one ensemble shard every workload registers.
const shardName = "bench"

// workers is both the per-shard assistant pool size and the number of
// closed-loop clients: the benchmark is sized for a 2-core box, where two
// workers keep both cores busy and a third would only queue.
const workers = 2

// newModel is the low-error simulated model stream cmd/loadgen uses: error
// injection is effectively off, so every ask completes and answers are a
// function of the question and the data alone.
func newModel(seed int64) llm.Client {
	return llm.NewSim(llm.SimConfig{Seed: seed, ColumnErrorRate: 1e-9, ToolErrorRate: 1e-9})
}

// node is one in-process inferad: registry + HTTP server with its own
// telemetry registry, configured like cmd/inferad's flag defaults.
type node struct {
	name    string
	reg     *service.Registry
	srv     *service.Server
	metrics *telemetry.Registry
}

func (n *node) base() string { return "http://" + n.srv.Addr() }

func startNode(name, workDir string, st *stage.Cache) (*node, error) {
	n := &node{name: name, metrics: telemetry.NewRegistry()}
	n.reg = service.NewRegistry(service.RegistryConfig{
		Defaults: service.Config{
			Workers:      workers,
			ScriptLimits: sandbox.DefaultLimits(),
			QueueDepth:   64,
			CacheSize:    128,
			MaxSessions:  4096,
			Seed:         1,
			TrimHistory:  true,
			NewModel:     newModel,
			Stage:        st,
			Metrics:      n.metrics,
		},
		WorkDir: workDir,
		NodeID:  name,
	})
	n.srv = service.NewServer(n.reg)
	if err := n.srv.Start("127.0.0.1:0"); err != nil {
		n.reg.Close()
		return nil, err
	}
	return n, nil
}

// direct is a client that talks to this node without the router.
func (n *node) direct() *client.Client { return client.New(n.srv.Addr()) }

func (n *node) close() {
	// Registry first, as inferad's shutdown does: it drains in-flight asks
	// and persists caches while the listener can still answer them.
	n.reg.Close()
	n.srv.Close()
}

// env is one workload's serving environment: the stage cache, one node (or
// two behind a router), and the client the asks go through.
type env struct {
	w        *workload
	dataDir  string // ensemble directory the shard serves
	cat      *hacc.Catalog
	stageDir string
	workDir  string

	stage         *stage.Cache
	nodes         []*node
	router        *fleet.Router
	routerMetrics *telemetry.Registry
	cli           *client.Client
	seq           askSeq
}

// newStage builds the workload's stage cache the way inferad's flags do:
// budget, watch-based freshness, prefetch on, and the disk tier when the
// workload has one.
func (e *env) newStage() (*stage.Cache, error) {
	st := stage.New(e.w.stageBudget, 0)
	st.SetPrefetch(true)
	if e.w.diskTier {
		if err := st.SetDiskTier(e.stageDir, 0); err != nil {
			return nil, fmt.Errorf("stage disk tier: %w", err)
		}
	}
	if err := st.SetWatch(true); err != nil {
		// inferad's fallback: keep serving on the stat-TTL memo.
		fmt.Fprintf(os.Stderr, "bench: stage watch unavailable, using stat-TTL freshness: %v\n", err)
	}
	return st, nil
}

// up starts the stage cache, the node(s) and, for a routed workload, the
// router, and registers the shard.
func (e *env) up() error {
	st, err := e.newStage()
	if err != nil {
		return err
	}
	e.stage = st
	count := 1
	if e.w.routed {
		count = 2
	}
	for i := 0; i < count; i++ {
		name := fmt.Sprintf("node-%d", i)
		// Nodes share the work root, as a fleet on shared storage does, so
		// a failover successor could revive the persisted answer cache.
		n, err := startNode(name, e.workDir, st)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	if !e.w.routed {
		e.cli = client.New(e.nodes[0].srv.Addr())
		if _, err := e.nodes[0].reg.Register(shardName, e.dataDir); err != nil {
			return err
		}
		return nil
	}
	specs := make([]string, len(e.nodes))
	for i, n := range e.nodes {
		specs[i] = n.name + "=" + n.base()
	}
	e.routerMetrics = telemetry.NewRegistry()
	e.router = fleet.New(fleet.Config{Nodes: specs, Metrics: e.routerMetrics})
	if err := e.router.Start("127.0.0.1:0"); err != nil {
		return err
	}
	e.cli = client.NewRouted(e.router.Addr())
	if err := e.cli.WaitReady(30 * time.Second); err != nil {
		return err
	}
	_, err = e.cli.Register(shardName, e.dataDir)
	return err
}

// owner is the node serving the shard: the only node, or the one the
// router's ring assigns the shard to.
func (e *env) owner() *node {
	if e.router != nil {
		name := e.router.Status().Owners[shardName]
		for _, n := range e.nodes {
			if n.name == name {
				return n
			}
		}
	}
	return e.nodes[0]
}

// down stops everything up started. The stage cache's background persists
// are flushed first so a following restart finds them on disk.
func (e *env) down() {
	if e.router != nil {
		e.router.Close()
		e.router = nil
	}
	for _, n := range e.nodes {
		n.close()
	}
	e.nodes = nil
	if e.stage != nil {
		e.stage.WaitPending()
		e.stage.Close()
		e.stage = nil
	}
}

// ask sends one ask down the served path: HTTP to the node, or to the
// router for a routed workload.
func (e *env) ask(a ask) (*service.AskResult, error) {
	return e.cli.Ask(shardName, service.AskRequest{Question: a.question, Seed: a.seed})
}

// warm answers one ask per distinct question, checking each against the
// golden file: a set-up that computes wrong answers must not be timed.
// Asks without a seed of their own take seed, so a second pass over the
// same work directory is not served from the revived answer cache.
func (e *env) warm(g *golden, seed int64) error {
	for _, a := range e.seq.warm {
		if a.seed == 0 {
			a.seed = seed
		}
		res, err := e.ask(a)
		if why := g.check(a, res, err); why != "" {
			return fmt.Errorf("warm-up ask %q: %s", a.question, why)
		}
	}
	return nil
}

// setUp brings the environment to the state the timed window starts from
// and returns how long that took: node start, shard registered, one ask
// per distinct question answered. A disk-tier workload first populates the
// block store and then restarts over it, so the timed window begins with a
// cold memory tier above a warm disk tier.
func setUp(w *workload, dataDir, scratch string, seed int64, g *golden) (*env, time.Duration, error) {
	cat, err := hacc.Load(dataDir)
	if err != nil {
		return nil, 0, err
	}
	e := &env{
		w: w, dataDir: dataDir, cat: cat,
		stageDir: filepath.Join(scratch, "stage"),
		workDir:  filepath.Join(scratch, "work"),
		seq:      w.gen(w, cat, seed),
	}
	passes := 1
	if w.diskTier {
		passes = 2 // populate the block store, then restart over it
	}
	start := time.Now()
	for pass := 1; pass <= passes; pass++ {
		e.down()
		if err := e.up(); err != nil {
			e.down()
			return nil, 0, err
		}
		if err := e.warm(g, int64(pass)); err != nil {
			e.down()
			return nil, 0, err
		}
	}
	return e, time.Since(start), nil
}
