// Command inferad is the InferA query daemon: the serving layer that turns
// the single-user REPL workflow into a concurrent multi-ensemble service.
// A shard registry owns any number of named ensembles — each an independent
// assistant, worker pool, answer cache and ensemble fingerprint, all sharing one
// process-wide staging cache — and exposes them through the versioned
// /v1/ensembles resource API. Shards spin up lazily on their first
// question, and an LRU idle policy closes the coldest shard (persisting its
// answer cache to <work>/shards/<name>/cache.json for revival) whenever
// more than -max-live-shards are open at once.
//
// Usage:
//
//	inferad -ensemble DIR [-ensemble name=DIR ...] [-addr 127.0.0.1:8080]
//	        [-work DIR] [-max-live-shards 4] [-workers 4] [-queue 64]
//	        [-cache 128] [-max-sessions 4096] [-seed 1] [-trim] [-skipdoc]
//	        [-approval-timeout 60s] [-node-id ID] [-v]
//	        [-stage-budget MB] [-stage-dir DIR] [-stage-disk-budget MB]
//	        [-provenance-max-age 0] [-provenance-max-bytes 0]
//	        [-script-fuel N] [-script-mem MB] [-script-timeout D]
//
// -stage-dir attaches a persistent disk tier under the in-memory staging
// cache: decoded column blocks write through to a block store there, memory
// eviction demotes instead of discards, and a restarted daemon promotes hot
// columns back without re-decoding. The staging cache always watches the
// ensemble directories, so a change invalidates exactly what it touched.
// See API.md "Stage cache tiers".
//
// Session artifact trails accumulate on disk per shard; the
// -provenance-max-age / -provenance-max-bytes retention policy sweeps old
// or over-budget trails whenever a shard closes (idle eviction, DELETE,
// shutdown), sparing sessions the persisted answer cache still references.
//
// -ensemble repeats: a bare DIR names the shard "default" (an ordinary
// shard name); name=DIR registers further shards. More ensembles can be
// registered at runtime with POST /v1/ensembles.
//
// # Serving
//
// Register an ensemble and ask it a question (ask blocks until the
// two-stage workflow finishes, or returns instantly on a cache hit):
//
//	curl -s localhost:8080/v1/ensembles -d '{"name": "cosmo-a", "dir": "/data/cosmo-a"}'
//	curl -s localhost:8080/v1/ensembles/cosmo-a/ask -d '{"question": "top 20 largest halos at timestep 498 in simulation 0", "seed": 1}'
//
// The response carries the answer table as CSV, the plan size, token usage,
// artifact references and the provenance session ID.
//
// # Interactive sessions (streaming plan approval)
//
// Adding "interactive": true to the ask body turns the request into a
// streaming session: the POST answers 202 with a session record
// immediately, and the workflow's typed lifecycle events — plan_proposed,
// plan_revised, step_started, step_finished, qa_verdict,
// error_hint_requested, answer — stream from the session's event log:
//
//	curl -s localhost:8080/v1/ensembles/cosmo-a/ask -d '{"question": "...", "interactive": true}'   # 202 -> {"id": "q-0007", ...}
//	curl -sN localhost:8080/v1/ensembles/cosmo-a/sessions/q-0007/events                            # server-sent events
//	curl -s  localhost:8080/v1/ensembles/cosmo-a/sessions/q-0007/plan -d '{"approve": false, "comment": "also plot it"}'
//	curl -s  localhost:8080/v1/ensembles/cosmo-a/sessions/q-0007/plan -d '{"approve": true}'
//	curl -s  localhost:8080/v1/ensembles/cosmo-a/sessions/q-0007/result                            # once the stream completes
//
// A dropped SSE connection resumes without loss or duplication via the
// standard Last-Event-ID header (or ?from=N). Sessions whose reviewer
// never answers auto-approve after -approval-timeout, so abandoned
// interactive asks expire instead of pinning workers. Shard admin:
//
//	curl -s -X POST   localhost:8080/v1/ensembles/cosmo-a/warm              # spin pool + fingerprint up before a burst
//	curl -s -X DELETE localhost:8080/v1/ensembles/cosmo-a                   # unregister (close + persist cache if live)
//	curl -s -X DELETE 'localhost:8080/v1/ensembles/cosmo-a?purge=provenance' # ... and remove its on-disk trail
//
// Inspect the fleet:
//
//	curl -s localhost:8080/v1/ensembles                                # all shards (live/cold, caches)
//	curl -s localhost:8080/v1/ensembles/cosmo-a                        # one shard's detail
//	curl -s localhost:8080/v1/ensembles/cosmo-a/sessions               # its session records
//	curl -s localhost:8080/v1/ensembles/cosmo-a/sessions/q-0001        # one record
//	curl -s localhost:8080/v1/ensembles/cosmo-a/sessions/q-0001/provenance
//	curl -s localhost:8080/v1/ensembles/cosmo-a/metrics                # one shard's counters
//	curl -s localhost:8080/v1/metrics                                  # aggregate fleet counters
//	curl -s localhost:8080/healthz                                     # liveness
//
// Concurrency model: per shard, one assistant serves -workers worker
// goroutines. Each question runs against its own staging database, sandbox
// and provenance session, so N questions run in parallel without sharing
// mutable state; every session's trail is a range of one of the shard's
// trail segments, <work>/shards/<name>/sessions/seg-*.{log,jsonl}, which
// its asks share (API.md, "Session trail layout"). -queue bounds pending requests beyond
// that, and a full queue answers 503 with Retry-After (backpressure
// instead of unbounded memory). Repeat questions against an unchanged
// ensemble are answered from that shard's cache in microseconds, concurrent
// identical questions coalesce into a single computation, and any change to
// an ensemble directory re-fingerprints and invalidates stale answers
// automatically. The staging cache is shared across every shard, so two
// ensembles referencing overlapping files decode them once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"infera/internal/sandbox"
	"infera/internal/service"
	"infera/internal/stage"
)

// ensembleFlags collects repeated -ensemble flags as (name, dir) pairs.
type ensembleFlags struct {
	names []string
	dirs  []string
}

func (e *ensembleFlags) Set(v string) error {
	name, dir, ok := strings.Cut(v, "=")
	if !ok {
		// Bare DIR: the original single-ensemble form.
		name, dir = "default", v
	}
	if name == "" || dir == "" {
		return fmt.Errorf("want name=DIR or DIR, got %q", v)
	}
	for _, n := range e.names {
		if n == name {
			return fmt.Errorf("ensemble %q registered twice", name)
		}
	}
	e.names = append(e.names, name)
	e.dirs = append(e.dirs, dir)
	return nil
}

func (e *ensembleFlags) String() string {
	var parts []string
	for i := range e.names {
		parts = append(parts, e.names[i]+"="+e.dirs[i])
	}
	return strings.Join(parts, ",")
}

func main() {
	log.SetFlags(0)
	var ensembles ensembleFlags
	flag.Var(&ensembles, "ensemble",
		"ensemble shard as name=DIR, repeatable; a bare DIR is named \"default\" (at least one required; see haccgen)")
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		work       = flag.String("work", "", "working directory root; each shard persists under <work>/shards/<name> (default: temp)")
		maxShards  = flag.Int("max-live-shards", service.DefaultMaxLiveShards, "live-shard budget: opening one more closes the least-recently-used idle shard")
		workers    = flag.Int("workers", 0, "worker goroutines per shard (0 = min(4, GOMAXPROCS))")
		queue      = flag.Int("queue", 64, "pending-request queue depth per shard")
		cacheSz    = flag.Int("cache", 128, "answer cache capacity per shard (entries)")
		maxSess    = flag.Int("max-sessions", 4096, "session-record history bound per shard")
		seed       = flag.Int64("seed", 1, "default model seed for requests without one")
		trim       = flag.Bool("trim", true, "trim supervisor history (token optimization)")
		skipdoc    = flag.Bool("skipdoc", false, "skip the documentation agent")
		approval   = flag.Duration("approval-timeout", 0, "interactive plan-review deadline before auto-approval (0 = 60s default)")
		stageMB    = flag.Int64("stage-budget", stage.DefaultBudgetBytes>>20, "staging-cache budget for decoded column blocks, in MB (shared across all shards)")
		stageDir   = flag.String("stage-dir", "", "staging-cache disk tier directory; empty disables the persistent block store")
		stageDisk  = flag.Int64("stage-disk-budget", stage.DefaultDiskBudgetBytes>>20, "disk-tier block store budget, in MB (needs -stage-dir)")
		provAge    = flag.Duration("provenance-max-age", 0, "garbage-collect session artifact trails older than this at shard close (0 = keep all; cache-referenced sessions are spared)")
		provBytes  = flag.Int64("provenance-max-bytes", 0, "total on-disk session-trail budget enforced at shard close, in bytes (0 = unlimited)")
		verbose    = flag.Bool("v", false, "log per-request progress")
		nodeID     = flag.String("node-id", "", "fleet identity reported on /healthz (default: host:pid)")
		scriptFuel = flag.Int64("script-fuel", sandbox.DefaultLimits().MaxFuel, "per-execution script instruction budget, overridable per shard at registration (0 = unlimited)")
		scriptMem  = flag.Int64("script-mem", sandbox.DefaultLimits().MaxMemBytes>>20, "per-execution script memory budget, in MB, overridable per shard (0 = unlimited)")
		scriptTO   = flag.Duration("script-timeout", sandbox.DefaultLimits().MaxWall, "per-execution script wall-clock limit, overridable per shard (0 = none)")
	)
	flag.Parse()
	if len(ensembles.names) == 0 {
		log.Fatal("inferad: at least one -ensemble is required (generate one with haccgen)")
	}
	setupStage(*stageMB, *stageDir, *stageDisk)

	limits := sandbox.DefaultLimits()
	limits.MaxFuel = *scriptFuel
	limits.MaxMemBytes = *scriptMem << 20
	limits.MaxWall = *scriptTO

	cfg := service.RegistryConfig{
		Defaults: service.Config{
			Workers:            *workers,
			ScriptLimits:       limits,
			QueueDepth:         *queue,
			CacheSize:          *cacheSz,
			MaxSessions:        *maxSess,
			Seed:               *seed,
			TrimHistory:        *trim,
			SkipDocumentation:  *skipdoc,
			ApprovalTimeout:    *approval,
			ProvenanceMaxAge:   *provAge,
			ProvenanceMaxBytes: *provBytes,
		},
		WorkDir:       *work,
		MaxLiveShards: *maxShards,
		NodeID:        *nodeID,
	}
	if cfg.NodeID == "" {
		host, _ := os.Hostname()
		cfg.NodeID = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if *verbose {
		cfg.Logf = log.Printf
	}

	serve(*addr, cfg, &ensembles)
}

// setupStage sizes the process-wide staging cache (every shard's data
// loader and domain tools share it), attaches its optional persistent
// tier, and starts its watch.
func setupStage(budgetMB int64, diskDir string, diskMB int64) {
	stage.Shared().SetBudget(budgetMB << 20)
	if diskDir != "" {
		if err := stage.Shared().SetDiskTier(diskDir, diskMB<<20); err != nil {
			log.Fatalf("inferad: stage disk tier: %v", err)
		}
	}
	if err := stage.Shared().SetWatch(true); err != nil {
		// No working watch backend: keep serving, re-validating by stat.
		log.Printf("inferad: stage watch unavailable, every lookup will stat and every ask will walk the ensemble: %v", err)
	}
}

// serve registers the -ensemble shards, serves the /v1 API on addr, and
// shuts down in order on SIGINT or SIGTERM.
func serve(addr string, cfg service.RegistryConfig, ensembles *ensembleFlags) {
	reg := service.NewRegistry(cfg)
	for i := range ensembles.names {
		if _, err := reg.Register(ensembles.names[i], ensembles.dirs[i]); err != nil {
			log.Fatalf("inferad: %v", err)
		}
	}
	srv := service.NewServer(reg)
	if err := srv.Start(addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("inferad: serving %d ensemble(s) [%s] on http://%s/v1/ensembles (max %d live, queue %d, cache %d)",
		len(ensembles.names), ensembles.String(), srv.Addr(), cfg.MaxLiveShards, cfg.Defaults.QueueDepth, cfg.Defaults.CacheSize)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("inferad: shutting down")
	// Drain the registry first so in-flight ask handlers get their answers
	// and every shard persists its cache (late arrivals see 503), then close
	// the listener, which waits for those handlers to finish writing.
	if err := reg.Close(); err != nil {
		log.Printf("inferad: registry close: %v", err)
	}
	if err := srv.Close(); err != nil {
		log.Printf("inferad: http close: %v", err)
	}
}
