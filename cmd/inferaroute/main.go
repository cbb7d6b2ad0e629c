// Command inferaroute is the fleet router: it turns N inferad processes
// into one logical service behind a single address. A consistent-hash ring
// (virtual nodes, deterministic placement) maps each ensemble ID to the
// member node that owns it, and every /v1/ensembles request — asks, SSE
// event streams, plan approvals, session and provenance reads — is
// reverse-proxied to that owner. An active health checker probes each
// member's /healthz; a member that fails 2 consecutive probes is ejected
// from the ring (its ensembles reassign to ring successors, which lazily
// register them from the router's catalog and revive persisted answer
// caches from a shared -work root), re-probed on a backoff that doubles up
// to 15s, and readmitted after 2 consecutive successes. The ring places 256
// virtual nodes per member, a request tries every healthy member once
// before answering 502, and a body over the node's own 1 MB cap is refused
// with 413 at the router edge; none of these is configurable.
//
// Usage:
//
//	inferaroute -node n1=http://127.0.0.1:8081 -node n2=http://127.0.0.1:8082 \
//	            [-addr 127.0.0.1:8080]
//	            [-probe-interval 500ms] [-probe-timeout 2s] [-dial-timeout 2s]
//	            [-header-timeout 5m] [-stream-idle-timeout 90s] [-v]
//
// A -node spec is a base URL or "name=URL". The name is the member's ring
// identity: placement hashes it instead of the address, so a named node
// that restarts on a different port keeps exactly its keyspace. Bare URLs
// use the URL itself as the name.
//
// Registration through the router is sticky: POST /v1/ensembles is
// cataloged before being proxied to the ring owner, so a failover
// successor (or a node that restarted empty) is re-registered on demand —
// asks never observe "unknown ensemble" for a cataloged shard. Requests
// that die mid-flight on a crashing node replay on the ring successor with
// the buffered request body; the response carries X-Infera-Upstream naming
// the member that actually answered, and X-Request-ID (generated when the
// client sent none) correlates the hop.
//
// Router-local observability:
//
//	curl -s localhost:8080/healthz               # 200 while >= 1 member is healthy
//	curl -s localhost:8080/v1/fleet              # ring + member health + ensemble owners
//	curl -s localhost:8080/v1/metrics/prometheus # infera_fleet_* series
//
// Node-level ask metrics stay on the members — scrape each inferad
// directly; the router's Prometheus endpoint carries only the fleet
// series (ring size, probe latency/failures, ejections, forwards,
// failovers, retries).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"infera/internal/fleet"
	"infera/internal/telemetry"
)

// nodeFlags collects repeated -node flags.
type nodeFlags []string

func (n *nodeFlags) Set(v string) error {
	v = strings.TrimSpace(v)
	if v == "" {
		return fmt.Errorf("empty node URL")
	}
	*n = append(*n, v)
	return nil
}

func (n *nodeFlags) String() string { return strings.Join(*n, ",") }

func main() {
	log.SetFlags(0)
	var nodes nodeFlags
	flag.Var(&nodes, "node", "member node spec (http://host:port or name=http://host:port), repeatable; at least one required")
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "HTTP listen address")
		probeIval  = flag.Duration("probe-interval", 500*time.Millisecond, "health-probe period per healthy member")
		probeTO    = flag.Duration("probe-timeout", 2*time.Second, "single health-probe deadline")
		dialTO     = flag.Duration("dial-timeout", 2*time.Second, "per-proxy connect deadline (a dead node must fail fast so the ask fails over)")
		headerTO   = flag.Duration("header-timeout", 5*time.Minute, "per-proxy response-header deadline (non-interactive asks answer at workflow completion, so this is the ask budget)")
		streamIdle = flag.Duration("stream-idle-timeout", 90*time.Second, "sever a proxied response body silent for this long (SSE heartbeats every 15s keep live streams open)")
		verbose    = flag.Bool("v", false, "log probes, ejections, failovers and re-registrations")
	)
	flag.Parse()
	if len(nodes) == 0 {
		log.Fatal("inferaroute: at least one -node is required")
	}

	cfg := fleet.Config{
		Nodes:                 nodes,
		ProbeInterval:         *probeIval,
		ProbeTimeout:          *probeTO,
		DialTimeout:           *dialTO,
		ResponseHeaderTimeout: *headerTO,
		StreamIdleTimeout:     *streamIdle,
		Metrics:               telemetry.Default(),
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	rt := fleet.New(cfg)
	if err := rt.Start(*addr); err != nil {
		log.Fatal(err)
	}
	log.Printf("inferaroute: routing %d node(s) [%s] on http://%s/v1/ensembles (probe %s)",
		len(nodes), nodes.String(), rt.Addr(), *probeIval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("inferaroute: shutting down")
	if err := rt.Close(); err != nil {
		log.Printf("inferaroute: close: %v", err)
	}
}
