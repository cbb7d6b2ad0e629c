package service

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"infera/internal/hacc"
	"infera/internal/stage"
	"infera/internal/telemetry"
)

// Registry multiplexes many named ensemble shards through one process: each
// shard is an independent Service (assistant + workers + answer cache +
// ensemble fingerprint) over its own ensemble directory, while every shard
// shares one staging cache so overlapping decodes dedupe across ensembles
// too. Shards spin up lazily on first request, and an LRU idle policy
// closes the coldest idle shard whenever the live count exceeds
// MaxLiveShards — closing drains the pool and persists the answer cache to
// the shard's WorkDir (persist.go), so a revived shard keeps its on-disk
// provenance and its hit rate.
//
// The Registry owns what spans shards: naming (Register, Unregister),
// spin-up (acquire), pinning a shard live for a request (acquire, pinLive,
// release) and LRU eviction. It does not serve a shard's requests: a
// session route of the /v1/ensembles HTTP API (http.go) pins the shard and
// calls its Service, so a new route is a Service method plus a handler.
type Registry struct {
	cfg RegistryConfig
	// rootMu guards the lazily made temp workRoot (RegistryConfig.WorkDir
	// empty); it is apart from mu so the MkdirTemp never holds mu.
	rootMu   sync.Mutex
	workRoot string

	mu        sync.Mutex
	closed    bool
	shards    map[string]*shard
	opens     int64
	evictions int64
	// purges counts purging Unregisters; RegisterWith retries its file
	// I/O when one ran while it was outside mu.
	purges int64
	// retired accumulates the final counters of every closed shard
	// incarnation, so aggregate metrics survive eviction/revival cycles.
	retired ShardTotals

	started time.Time
}

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// Defaults is the Config template every shard starts from. EnsembleDir
	// and WorkDir are managed per shard; a nil Stage is replaced by the
	// process-wide stage.Shared() cache so all shards share decodes.
	Defaults Config
	// WorkDir is the root under which each shard gets
	// WorkDir/shards/<name>; a temp root is created when empty (provenance
	// and persisted caches then survive shard close/reopen, but not process
	// exit in any discoverable place).
	WorkDir string
	// MaxLiveShards bounds concurrently open shards; opening one more
	// closes the least-recently-used idle shard. Default
	// DefaultMaxLiveShards. Shards with requests in flight are never
	// closed, so a burst across many shards can briefly overshoot.
	MaxLiveShards int
	// Logf receives progress lines when set (also forwarded to shards that
	// don't set their own).
	Logf func(format string, args ...any)
	// NodeID names this process in a fleet — surfaced in the /healthz
	// detail and in the router's fleet status. Empty is fine for
	// single-node daemons.
	NodeID string
}

// DefaultMaxLiveShards is the live-shard budget when RegistryConfig leaves
// MaxLiveShards unset.
const DefaultMaxLiveShards = 4

// Errors returned by Registry methods.
var (
	ErrUnknownEnsemble = errors.New("service: unknown ensemble")
	ErrEnsembleExists  = errors.New("service: ensemble name already registered to a different directory")
	ErrBadEnsembleName = errors.New("service: ensemble name must be non-empty [a-zA-Z0-9._-] and not start with '.'")
	ErrRegistryClosed  = errors.New("service: registry closed")
	ErrShardCold       = errors.New("service: shard is cold (no live session state)")
)

// ShardOptions are per-shard overrides of the registry-wide defaults,
// applied at every spin-up of the shard's Service.
type ShardOptions struct {
	// Workers overrides the worker count (0 keeps the default).
	Workers int `json:"workers,omitempty"`
	// CacheSize overrides the answer-cache capacity (0 keeps the default).
	// The wire name matches RegisterRequest's cache_capacity so the echoed
	// overrides object round-trips back into a register payload.
	CacheSize int `json:"cache_capacity,omitempty"`
	// ScriptFuel / ScriptMemBytes / ScriptTimeoutMS override the shard's
	// sandbox execution budgets (0 keeps the registry default) — a shard
	// serving a huge ensemble can buy its scripts more fuel without
	// loosening the whole fleet.
	ScriptFuel      int64 `json:"script_fuel,omitempty"`
	ScriptMemBytes  int64 `json:"script_mem_bytes,omitempty"`
	ScriptTimeoutMS int64 `json:"script_timeout_ms,omitempty"`
}

// shard is one registered ensemble. Fields below the comment are guarded by
// Registry.mu; open/close work happens outside the lock, serialized by the
// opening/closing channels (waiters block on them and retry).
type shard struct {
	name    string
	dir     string
	workDir string
	opts    ShardOptions

	// guarded by Registry.mu:
	svc        *Service
	opening    chan struct{}
	closing    chan struct{}
	refs       int
	registered time.Time
	lastUsed   time.Time
	opens      int64
	lastFP     string
	lastFPAt   time.Time
	// coldEntries/coldSavedAt describe the persisted cache while svc == nil.
	coldEntries int
	coldSavedAt time.Time
}

// ShardInfo is the wire form of one shard's state — the GET
// /v1/ensembles[/{eid}] payload.
type ShardInfo struct {
	Name string `json:"name"`
	Dir  string `json:"dir"`
	// State is "live" (Service open) or "cold" (registered; spins up
	// on the next ask).
	State      string    `json:"state"`
	Registered time.Time `json:"registered"`
	LastUsed   time.Time `json:"last_used"`
	// Opens counts spin-ups: 0 = never asked, >1 = revived after eviction.
	Opens    int64 `json:"opens"`
	InFlight int   `json:"in_flight"`
	// Workers is the live worker count (0 when cold).
	Workers int `json:"workers,omitempty"`
	// CacheEntries is the live answer-cache length, or for cold shards the
	// entry count of the persisted cache.json awaiting revival.
	CacheEntries int `json:"cache_entries"`
	// Fingerprint is the last resolved ensemble fingerprint and
	// FingerprintAge how long ago it was resolved (stale data detection for
	// operators; cold shards report their close-time values).
	Fingerprint    string        `json:"fingerprint,omitempty"`
	FingerprintAge time.Duration `json:"fingerprint_age_ns,omitempty"`
	// Overrides echoes the shard's per-shard worker/cache overrides, if any.
	Overrides *ShardOptions `json:"overrides,omitempty"`
	// PendingApprovals counts live interactive sessions blocked on a plan
	// decision (0 when cold).
	PendingApprovals int `json:"pending_approvals,omitempty"`
}

// ShardTotals are the per-shard counters that aggregate across the fleet.
type ShardTotals struct {
	Queued      int64 `json:"queued_total"`
	Completed   int64 `json:"completed_total"`
	Failed      int64 `json:"failed_total"`
	Rejected    int64 `json:"rejected_total"`
	CachedTotal int64 `json:"cached_total"`
	Interactive int64 `json:"interactive_total"`
	Tokens      int64 `json:"tokens_total"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
}

func (t *ShardTotals) add(m Metrics) {
	t.Queued += m.Queued
	t.Completed += m.Completed
	t.Failed += m.Failed
	t.Rejected += m.Rejected
	t.CachedTotal += m.CachedTotal
	t.Interactive += m.Interactive
	t.Tokens += m.Tokens
	t.CacheHits += m.Cache.Hits
	t.CacheMisses += m.Cache.Misses
}

// RegistryMetrics is the aggregate /v1/metrics snapshot: fleet shape plus
// lifetime counters summed over live shards and every retired shard
// incarnation.
type RegistryMetrics struct {
	Shards        int `json:"shards"`
	Live          int `json:"live"`
	Cold          int `json:"cold"`
	MaxLiveShards int `json:"max_live_shards"`
	// ShardOpens/ShardEvictions count pool spin-ups and idle-LRU closes.
	ShardOpens     int64 `json:"shard_opens"`
	ShardEvictions int64 `json:"shard_evictions"`
	ShardTotals
	// Stage reports the staging cache all shards share. Per-shard Metrics
	// snapshots mirror the SAME shared counters (see Metrics.Stage), so
	// the aggregate includes them exactly once here, at top level —
	// summing the per-shard copies would multi-count every hit, miss,
	// partial_hit and stat_save by the number of live shards.
	Stage stage.Stats `json:"stage"`
}

// NewRegistry returns an empty registry; add shards with Register.
// Telemetry defaults to the process-wide registry so a stock daemon's
// /v1/metrics/prometheus is populated without any wiring; set
// Defaults.Metrics explicitly to isolate (tests) — there is no way to
// disable recording, matching how Stage defaults to the shared cache.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.MaxLiveShards <= 0 {
		cfg.MaxLiveShards = DefaultMaxLiveShards
	}
	if cfg.Defaults.Stage == nil {
		cfg.Defaults.Stage = stage.Shared()
	}
	if cfg.Defaults.Metrics == nil {
		cfg.Defaults.Metrics = telemetry.Default()
	}
	cfg.Defaults.Stage.SetMetrics(cfg.Defaults.Metrics)
	if cfg.Defaults.Logf == nil {
		cfg.Defaults.Logf = cfg.Logf
	}
	return &Registry{cfg: cfg, shards: map[string]*shard{}, started: time.Now()}
}

// Telemetry exposes the registry all shards record into — the source the
// Prometheus endpoint encodes.
func (r *Registry) Telemetry() *telemetry.Registry {
	return r.cfg.Defaults.Metrics
}

// HealthInfo is the GET /healthz payload — cheap node detail a fleet
// router's prober reads on every probe, so it must stay lock-light.
type HealthInfo struct {
	Status string `json:"status"`
	// Node is this process's fleet identity (RegistryConfig.NodeID; empty
	// for single-node daemons).
	Node string `json:"node,omitempty"`
	// Shards / Live count registered and currently-open shards.
	Shards int `json:"shards"`
	Live   int `json:"live"`
	// UptimeSeconds since the registry was created.
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// Health snapshots node liveness detail for /healthz.
func (r *Registry) Health() HealthInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := HealthInfo{
		Status:        "ok",
		Node:          r.cfg.NodeID,
		Shards:        len(r.shards),
		UptimeSeconds: time.Since(r.started).Seconds(),
	}
	for _, sh := range r.shards {
		if sh.svc != nil {
			h.Live++
		}
	}
	if r.closed {
		h.Status = "closing"
	}
	return h
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// ValidEnsembleName reports whether name is usable as a shard name (it
// appears in URL paths and directory names).
func ValidEnsembleName(name string) bool {
	if name == "" || len(name) > 128 || name[0] == '.' {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// Register adds a named ensemble shard with the registry-wide defaults.
// See RegisterWith.
func (r *Registry) Register(name, dir string) (ShardInfo, error) {
	return r.RegisterWith(name, dir, ShardOptions{})
}

// maxScriptTimeoutMS is the largest ShardOptions.ScriptTimeoutMS whose
// time.Duration does not overflow. A larger one wraps the shard's MaxWall to
// an arbitrary value, and to zero or below it runs scripts with no
// wall-clock limit at all.
const maxScriptTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// maxShardWorkers bounds ShardOptions.Workers, which arrives in a POST
// /v1/ensembles body: a shard's first ask starts that many worker
// goroutines, each able to hold one running question's staging database
// and sandbox in memory at once.
const maxShardWorkers = 256

// RegisterWith adds a named ensemble shard without opening it (shards spin
// up on first ask), with per-shard overrides of the registry defaults. The
// directory must hold a loadable ensemble catalog. Registering the same
// name+dir again is idempotent and updates the stored overrides — they
// apply at the shard's next spin-up, not retroactively to a live pool; the
// same name with a different dir fails with ErrEnsembleExists.
func (r *Registry) RegisterWith(name, dir string, opts ShardOptions) (ShardInfo, error) {
	if !ValidEnsembleName(name) {
		return ShardInfo{}, ErrBadEnsembleName
	}
	if opts.Workers < 0 || opts.Workers > maxShardWorkers || opts.CacheSize < 0 ||
		opts.ScriptFuel < 0 || opts.ScriptMemBytes < 0 ||
		opts.ScriptTimeoutMS < 0 || opts.ScriptTimeoutMS > maxScriptTimeoutMS {
		return ShardInfo{}, fmt.Errorf("service: shard overrides out of range: %+v", opts)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ShardInfo{}, fmt.Errorf("service: resolve ensemble dir: %w", err)
	}

	for {
		r.mu.Lock()
		info, done, err := r.registeredLocked(name, abs, opts)
		purges := r.purges
		r.mu.Unlock()
		if done {
			return info, err
		}
		sh, err := r.newShard(name, abs, opts)
		if err != nil {
			return ShardInfo{}, err
		}
		r.mu.Lock()
		// Re-check: a racing Register of the same name may have won, and a
		// purging Unregister of it may have removed the dir just made.
		info, done, err = r.registeredLocked(name, abs, opts)
		if !done && r.purges == purges {
			r.shards[name] = sh
			info, done = r.infoLocked(sh), true
			r.logf("registry: registered ensemble %q -> %s", name, abs)
		}
		r.mu.Unlock()
		if done {
			return info, err
		}
	}
}

// newShard does RegisterWith's file I/O, outside r.mu so a slow or stuck
// ensemble dir never holds up the other shards' asks. It validates the
// catalog now, so POST /v1/ensembles rejects junk immediately rather than
// failing the first ask (the read is one small JSON file), and makes the
// shard's work dir.
func (r *Registry) newShard(name, abs string, opts ShardOptions) (*shard, error) {
	if _, err := hacc.Load(abs); err != nil {
		return nil, fmt.Errorf("service: register %q: %w", name, err)
	}
	workDir, err := r.shardWorkDir(name)
	if err != nil {
		return nil, err
	}
	sh := &shard{name: name, dir: abs, workDir: workDir, opts: opts, registered: time.Now()}
	// A cache persisted by a previous daemon run describes the cold shard
	// until its first spin-up revalidates it.
	if fi, ok := ReadCacheFileInfo(workDir); ok {
		sh.coldEntries, sh.coldSavedAt = fi.Entries, fi.SavedAt
		sh.lastFP, sh.lastFPAt = fi.Fingerprint, fi.SavedAt
	}
	return sh, nil
}

// registeredLocked answers RegisterWith when no new shard is needed: the
// registry is closed, or name is taken (by dir, an idempotent re-register;
// by another dir, ErrEnsembleExists). done is false when name is free.
func (r *Registry) registeredLocked(name, abs string, opts ShardOptions) (ShardInfo, bool, error) {
	if r.closed {
		return ShardInfo{}, true, ErrRegistryClosed
	}
	sh, ok := r.shards[name]
	if !ok {
		return ShardInfo{}, false, nil
	}
	if sh.dir != abs {
		return ShardInfo{}, true, fmt.Errorf("%w: %q -> %s", ErrEnsembleExists, name, sh.dir)
	}
	// Only explicit overrides replace the stored ones: a plain re-Register
	// (zero opts) must stay a true no-op, not silently wipe an operator's
	// earlier tuning.
	if opts != (ShardOptions{}) {
		sh.opts = opts
	}
	return r.infoLocked(sh), true, nil
}

// shardWorkDir resolves (creating parents) the stable per-shard work
// directory.
func (r *Registry) shardWorkDir(name string) (string, error) {
	root := r.cfg.WorkDir
	if root == "" {
		r.rootMu.Lock()
		if r.workRoot == "" {
			tmp, err := os.MkdirTemp("", "infera-registry-*")
			if err != nil {
				r.rootMu.Unlock()
				return "", err
			}
			r.workRoot = tmp
		}
		root = r.workRoot
		r.rootMu.Unlock()
	}
	dir := filepath.Join(root, "shards", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// Ensembles lists every registered shard, sorted by name.
func (r *Registry) Ensembles() []ShardInfo {
	r.mu.Lock()
	shards := make([]*shard, 0, len(r.shards))
	for _, sh := range r.shards {
		shards = append(shards, sh)
	}
	r.mu.Unlock()
	out := make([]ShardInfo, 0, len(shards))
	for _, sh := range shards {
		r.refreshFingerprint(sh)
		r.mu.Lock()
		out = append(out, r.infoLocked(sh))
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ensemble returns one shard's state — the GET /v1/ensembles/{eid} detail.
func (r *Registry) Ensemble(name string) (ShardInfo, error) {
	r.mu.Lock()
	sh, ok := r.shards[name]
	r.mu.Unlock()
	if !ok {
		return ShardInfo{}, ErrUnknownEnsemble
	}
	r.refreshFingerprint(sh)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked(sh), nil
}

// refreshFingerprint re-resolves a live shard's fingerprint OUTSIDE the
// registry lock — once the ensemble changed it walks the whole tree, and
// one slow directory must not stall routing for the fleet.
func (r *Registry) refreshFingerprint(sh *shard) {
	r.mu.Lock()
	svc := sh.svc
	r.mu.Unlock()
	if svc == nil {
		return
	}
	if fp, _, err := svc.fingerprint(); err == nil {
		r.mu.Lock()
		sh.lastFP, sh.lastFPAt = fp, time.Now()
		r.mu.Unlock()
	}
}

func (r *Registry) infoLocked(sh *shard) ShardInfo {
	info := ShardInfo{
		Name:       sh.name,
		Dir:        sh.dir,
		State:      "cold",
		Registered: sh.registered,
		LastUsed:   sh.lastUsed,
		Opens:      sh.opens,
		InFlight:   sh.refs,
	}
	if sh.svc != nil {
		info.State = "live"
		info.Workers = sh.svc.Workers()
		info.CacheEntries = sh.svc.CacheLen()
		info.PendingApprovals = sh.svc.PendingApprovals()
	} else {
		info.CacheEntries = sh.coldEntries
	}
	if sh.opts != (ShardOptions{}) {
		o := sh.opts
		info.Overrides = &o
	}
	info.Fingerprint = sh.lastFP
	if !sh.lastFPAt.IsZero() {
		info.FingerprintAge = time.Since(sh.lastFPAt)
	}
	return info
}

// acquire pins shard name live: it opens the shard if cold (waiting out any
// concurrent open/close of the same shard) and increments its in-flight
// count. Callers must release. Opening over budget schedules an LRU idle
// eviction, performed after the lock is dropped.
func (r *Registry) acquire(name string) (*shard, *Service, error) {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil, nil, ErrRegistryClosed
		}
		sh, ok := r.shards[name]
		if !ok {
			r.mu.Unlock()
			return nil, nil, ErrUnknownEnsemble
		}
		if ch := sh.closing; ch != nil {
			r.mu.Unlock()
			<-ch
			continue
		}
		if sh.svc != nil {
			sh.refs++
			sh.lastUsed = time.Now()
			svc := sh.svc
			r.mu.Unlock()
			return sh, svc, nil
		}
		if ch := sh.opening; ch != nil {
			r.mu.Unlock()
			<-ch
			continue
		}
		// This request opens the shard.
		ch := make(chan struct{})
		sh.opening = ch
		r.mu.Unlock()

		svc, err := r.openShard(sh)
		var fp string
		if err == nil {
			// Resolve outside the lock: the first walk stats the whole tree.
			fp, _, _ = svc.fingerprint()
		}

		r.mu.Lock()
		sh.opening = nil
		if err != nil {
			r.mu.Unlock()
			close(ch)
			return nil, nil, err
		}
		sh.svc = svc
		sh.refs++
		sh.opens++
		r.opens++
		sh.lastUsed = time.Now()
		sh.coldEntries, sh.coldSavedAt = 0, time.Time{}
		if fp != "" {
			sh.lastFP, sh.lastFPAt = fp, time.Now()
		}
		victims := r.victimsLocked()
		r.mu.Unlock()
		close(ch)
		// Victims close in the background: their drain-and-persist must not
		// delay this request (the closing channel keeps revival correct —
		// an acquire of a closing shard waits for the persist to finish).
		for _, v := range victims {
			go r.closeShard(v, true)
		}
		return sh, svc, nil
	}
}

// openShard builds the shard's Service from the registry defaults. Called
// without the registry lock (pool construction stages nothing but does load
// the catalog and spawn workers).
func (r *Registry) openShard(sh *shard) (*Service, error) {
	cfg := r.cfg.Defaults
	cfg.EnsembleDir = sh.dir
	cfg.WorkDir = sh.workDir
	cfg.Name = sh.name
	if sh.opts.Workers > 0 {
		cfg.Workers = sh.opts.Workers
	}
	if sh.opts.CacheSize > 0 {
		cfg.CacheSize = sh.opts.CacheSize
	}
	if sh.opts.ScriptFuel > 0 {
		cfg.ScriptLimits.MaxFuel = sh.opts.ScriptFuel
	}
	if sh.opts.ScriptMemBytes > 0 {
		cfg.ScriptLimits.MaxMemBytes = sh.opts.ScriptMemBytes
	}
	if sh.opts.ScriptTimeoutMS > 0 {
		cfg.ScriptLimits.MaxWall = time.Duration(sh.opts.ScriptTimeoutMS) * time.Millisecond
	}
	svc, err := New(cfg)
	if err != nil {
		return nil, fmt.Errorf("service: open shard %q: %w", sh.name, err)
	}
	r.logf("registry: shard %q live (%d workers, %d revived cache entries)",
		sh.name, svc.Workers(), svc.CacheLen())
	return svc, nil
}

// release unpins a shard and, now that a slot may have become idle,
// enforces the live budget. Evictions run in the background so the
// releasing request's response is never held back by another shard's
// shutdown I/O.
func (r *Registry) release(sh *shard) {
	r.mu.Lock()
	sh.refs--
	sh.lastUsed = time.Now()
	victims := r.victimsLocked()
	r.mu.Unlock()
	for _, v := range victims {
		go r.closeShard(v, true)
	}
}

// victimsLocked picks idle live shards to close, least recently used first,
// until the live count fits the budget. Shards with in-flight requests (or
// mid-open/close) are skipped — the budget can overshoot under a wide
// burst and recovers as requests release.
func (r *Registry) victimsLocked() []*shard {
	var victims []*shard
	live := 0
	for _, sh := range r.shards {
		// A shard mid-close is already leaving the live set.
		if sh.svc != nil && sh.closing == nil {
			live++
		}
	}
	for live > r.cfg.MaxLiveShards {
		var lru *shard
		for _, sh := range r.shards {
			if sh.svc == nil || sh.refs > 0 || sh.closing != nil || sh.opening != nil {
				continue
			}
			if lru == nil || sh.lastUsed.Before(lru.lastUsed) {
				lru = sh
			}
		}
		if lru == nil {
			break
		}
		// Mark closing and detach under the lock so concurrent acquires wait
		// on the channel instead of pinning a dying Service.
		lru.closing = make(chan struct{})
		victims = append(victims, lru)
		live--
	}
	return victims
}

// closeShard drains and closes a shard marked closing by victimsLocked (or
// by Close), persisting its answer cache and recording its final counters.
func (r *Registry) closeShard(sh *shard, evicted bool) {
	svc := sh.svc
	final := svc.Metrics()
	entries := svc.CacheLen()
	if err := svc.Close(); err != nil {
		r.logf("registry: close shard %q: %v", sh.name, err)
	}
	r.mu.Lock()
	sh.svc = nil
	ch := sh.closing
	sh.closing = nil
	sh.coldEntries = entries
	sh.coldSavedAt = time.Now()
	if final.Fingerprint != "" {
		sh.lastFP, sh.lastFPAt = final.Fingerprint, time.Now()
	}
	r.retired.add(final)
	if evicted {
		r.evictions++
	}
	r.mu.Unlock()
	close(ch)
	if evicted {
		r.logf("registry: shard %q closed (idle LRU, %d cache entries persisted)", sh.name, entries)
	}
}

// Ask routes one question to shard name, spinning the shard up if cold.
func (r *Registry) Ask(name string, req AskRequest) (*AskResult, error) {
	sh, svc, err := r.acquire(name)
	if err != nil {
		return nil, err
	}
	defer r.release(sh)
	return svc.Ask(req)
}

// resultGrace keeps an interactive session's shard pinned briefly after
// the worker finishes, so a client that drains the event stream and then
// fetches GET .../result never finds the shard (and the stored result)
// evicted in between.
const resultGrace = 30 * time.Second

// AskInteractive starts a streaming session on shard name, spinning the
// shard up if cold, and returns its session record immediately. The shard
// stays pinned (never idle-evicted) until the session's worker finishes
// plus resultGrace — an interactive session's event log, approval gate and
// stored result live in the shard's memory, so the pool must survive the
// review and the client's result fetch.
func (r *Registry) AskInteractive(name string, req AskRequest) (SessionInfo, error) {
	sh, svc, err := r.acquire(name)
	if err != nil {
		return SessionInfo{}, err
	}
	info, done, err := svc.AskInteractive(req)
	if err != nil {
		r.release(sh)
		return SessionInfo{}, err
	}
	go func() {
		<-done
		time.Sleep(resultGrace)
		r.release(sh)
	}()
	return info, nil
}

// Warm spins shard name up ahead of a burst: the Service opens (or
// is touched, if already live), the persisted answer cache revives, and
// the ensemble fingerprint resolves — so the first real question pays none
// of that latency. Returns the shard's post-warm state.
func (r *Registry) Warm(name string) (ShardInfo, error) {
	sh, _, err := r.acquire(name)
	if err != nil {
		return ShardInfo{}, err
	}
	defer r.release(sh)
	// acquire resolves the fingerprint on a cold open; refresh covers the
	// already-live case so Warm always returns a current value.
	r.refreshFingerprint(sh)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked(sh), nil
}

// Unregister removes shard name from the registry, draining and closing it
// first if live (its answer cache persists as usual). With purge the
// shard's on-disk trail — provenance sessions, staging state and the
// persisted cache under its work directory — is removed too. Asks racing
// an Unregister either drain before the close or fail with
// ErrUnknownEnsemble after removal.
func (r *Registry) Unregister(name string, purge bool) error {
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return ErrRegistryClosed
		}
		sh, ok := r.shards[name]
		if !ok {
			r.mu.Unlock()
			return ErrUnknownEnsemble
		}
		if ch := sh.opening; ch != nil {
			r.mu.Unlock()
			<-ch
			continue
		}
		if ch := sh.closing; ch != nil {
			r.mu.Unlock()
			<-ch
			continue
		}
		if sh.svc != nil {
			sh.closing = make(chan struct{})
			r.mu.Unlock()
			r.closeShard(sh, false)
			continue // re-check: a racing ask may have reopened it
		}
		delete(r.shards, name)
		// Purge under the lock: a re-Register of the same name recreates the
		// same work directory, and an async RemoveAll would race it and
		// delete the new shard's state. The dir is small (provenance trails
		// + cache.json) and unregister is a rare admin operation.
		var purgeErr error
		if purge {
			r.purges++
			purgeErr = os.RemoveAll(sh.workDir)
		}
		r.mu.Unlock()
		r.logf("registry: unregistered ensemble %q (purge=%v)", name, purge)
		return purgeErr
	}
}

// pinLive pins shard name only if it is already live: the session and
// metrics read paths must not spin up (or keep hot) a pool just to report
// state. Callers must release a pinned shard. A cold shard answers
// ErrShardCold together with the metrics it reports while cold: zero
// counters (they reset with the pool; lifetime totals live in the aggregate
// Metrics), the close-time fingerprint and the persisted cache length, read
// under the same lock hold as the check. Cold shards have no in-memory
// session state: their records died with the pool, while provenance
// remains on disk under the shard WorkDir.
func (r *Registry) pinLive(name string) (*shard, *Service, Metrics, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, nil, Metrics{}, ErrRegistryClosed
	}
	sh, ok := r.shards[name]
	if !ok {
		return nil, nil, Metrics{}, ErrUnknownEnsemble
	}
	if sh.svc == nil || sh.closing != nil {
		stub := Metrics{Fingerprint: sh.lastFP}
		stub.Cache.Len = sh.coldEntries
		stub.Stage = r.cfg.Defaults.Stage.Stats()
		return nil, nil, stub, ErrShardCold
	}
	sh.refs++
	return sh, sh.svc, Metrics{}, nil
}

// Metrics returns the aggregate fleet snapshot.
func (r *Registry) Metrics() RegistryMetrics {
	r.mu.Lock()
	m := RegistryMetrics{
		Shards:         len(r.shards),
		MaxLiveShards:  r.cfg.MaxLiveShards,
		ShardOpens:     r.opens,
		ShardEvictions: r.evictions,
		ShardTotals:    r.retired,
	}
	var liveSvcs []*Service
	for _, sh := range r.shards {
		if sh.svc != nil {
			m.Live++
			liveSvcs = append(liveSvcs, sh.svc)
		} else {
			m.Cold++
		}
	}
	r.mu.Unlock()
	// Per-shard snapshots outside the registry lock: Metrics() resolves the
	// fingerprint, a walk when the ensemble changed.
	for _, svc := range liveSvcs {
		m.ShardTotals.add(svc.Metrics())
	}
	m.Stage = r.cfg.Defaults.Stage.Stats()
	return m
}

// Close closes every live shard (persisting answer caches) and rejects
// further use. Waits out in-flight opens/closes; shards with requests in
// flight drain through Service.Close.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	r.mu.Unlock()
	for {
		r.mu.Lock()
		var target *shard
		var wait chan struct{}
		for _, sh := range r.shards {
			if sh.opening != nil {
				wait = sh.opening
				break
			}
			if sh.closing != nil {
				wait = sh.closing
				break
			}
			if sh.svc != nil && target == nil {
				target = sh
			}
		}
		if wait == nil && target != nil {
			target.closing = make(chan struct{})
		}
		r.mu.Unlock()
		if wait != nil {
			<-wait
			continue
		}
		if target == nil {
			return nil
		}
		r.closeShard(target, false)
	}
}
