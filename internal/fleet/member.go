package fleet

import (
	"sync"
	"time"

	"infera/internal/telemetry"
)

// Member is one inferad node behind the router. All mutable state is
// guarded by the owning Pool's mutex; the exported wire form is
// MemberStatus.
type Member struct {
	// name is the member's ring identity — placement hashes it, not the
	// dial address, so a node that restarts on a new port (or moves hosts)
	// keeps its keyspace as long as its name is stable.
	name string
	// base is the dial address ("http://host:port") probes and proxied
	// requests go to.
	base string

	healthy     bool
	consecFails int
	consecOKs   int
	probing     bool
	lastProbe   time.Time
	lastLatency time.Duration
	lastErr     string
	nextProbe   time.Time
	backoff     time.Duration
	ejections   int64

	// identity and shard detail reported by the node's /healthz.
	nodeID string
	shards int
	live   int
}

// MemberStatus is the wire form of one member's health — part of the
// GET /v1/fleet payload.
type MemberStatus struct {
	// Name is the member's ring identity (defaults to Base when the node
	// spec carried no explicit name).
	Name string `json:"name"`
	Base string `json:"base"`
	// Node is the identity the member reports on /healthz (empty until the
	// first successful probe).
	Node    string `json:"node,omitempty"`
	Healthy bool   `json:"healthy"`
	// ConsecutiveFailures / ConsecutiveSuccesses are the current streak
	// against the ejection / readmission thresholds.
	ConsecutiveFailures  int           `json:"consecutive_failures,omitempty"`
	ConsecutiveSuccesses int           `json:"consecutive_successes,omitempty"`
	LastError            string        `json:"last_error,omitempty"`
	LastProbe            time.Time     `json:"last_probe"`
	LastProbeLatency     time.Duration `json:"last_probe_latency_ns,omitempty"`
	ProbeBackoff         time.Duration `json:"probe_backoff_ns,omitempty"`
	Ejections            int64         `json:"ejections,omitempty"`
	Shards               int           `json:"shards"`
	Live                 int           `json:"live"`
}

// The probe policy. unhealthyAfter consecutive failures eject a member from
// the ring and healthyAfter consecutive successes readmit it; an ejected
// member is re-probed on a backoff that doubles from the probe interval up
// to maxProbeBackoff.
const (
	unhealthyAfter  = 2
	healthyAfter    = 2
	maxProbeBackoff = 15 * time.Second
)

// pool tracks member health and owns the ring: only healthy members are on
// it, so Ring.Owner always resolves to a node the prober currently
// believes alive, and ejection/readmission is exactly ring membership.
type pool struct {
	mu      sync.Mutex
	ring    *Ring
	members map[string]*Member // keyed by ring name
	order   []string           // insertion order of names, for stable status listings

	probeInterval time.Duration

	logf func(format string, args ...any)

	ringSize *telemetry.Gauge
	metrics  *telemetry.Registry
}

func newPool(ring *Ring, probeInterval time.Duration, metrics *telemetry.Registry, logf func(string, ...any)) *pool {
	p := &pool{
		ring:          ring,
		members:       map[string]*Member{},
		probeInterval: probeInterval,
		logf:          logf,
		metrics:       metrics,
		ringSize:      metrics.Gauge("infera_fleet_ring_size"),
	}
	metrics.SetHelp("infera_fleet_ring_size", "Healthy member nodes currently on the consistent-hash ring.")
	metrics.SetHelp("infera_fleet_probe_seconds", "Health-probe round-trip latency per member node.")
	metrics.SetHelp("infera_fleet_probe_failures_total", "Failed health probes (including proxy-observed transport failures) per member node.")
	metrics.SetHelp("infera_fleet_ejections_total", "Times a member node was ejected from the ring after consecutive failures.")
	return p
}

// add registers a member node under its ring name. New members join the
// ring optimistically healthy — the fleet serves before the first probe
// round, and a dead seed is ejected within unhealthyAfter probes.
func (p *pool) add(name, base string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.members[name]; ok {
		return
	}
	p.members[name] = &Member{name: name, base: base, healthy: true}
	p.order = append(p.order, name)
	p.ring.Add(name)
	p.ringSize.Set(int64(p.ring.Len()))
}

// pick resolves the member that should serve key: the ring owner, or —
// when owners have already been tried and failed this request — the next
// distinct successor. ok is false when every member is tried or the ring
// is empty (no healthy nodes).
func (p *pool) pick(key string, tried map[string]bool) (*Member, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range p.ring.Successors(key, len(p.members)) {
		if tried[name] {
			continue
		}
		if m := p.members[name]; m != nil {
			return m, true
		}
	}
	return nil, false
}

// owner reports the ring name currently owning key ("" when the ring is
// empty).
func (p *pool) owner(key string) string {
	name, _ := p.ring.Owner(key)
	return name
}

// get returns the member registered under name (nil if unknown).
func (p *pool) get(name string) *Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.members[name]
}

// healthyMembers snapshots the members currently on the ring, in ring-name
// order.
func (p *pool) healthyMembers() []*Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Member
	for _, name := range p.ring.Nodes() {
		if m := p.members[name]; m != nil {
			out = append(out, m)
		}
	}
	return out
}

// healthyCount returns how many members are on the ring.
func (p *pool) healthyCount() int { return p.ring.Len() }

// statuses snapshots every member in registration order.
func (p *pool) statuses() []MemberStatus {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]MemberStatus, 0, len(p.order))
	for _, name := range p.order {
		m := p.members[name]
		out = append(out, MemberStatus{
			Name:                 m.name,
			Base:                 m.base,
			Node:                 m.nodeID,
			Healthy:              m.healthy,
			ConsecutiveFailures:  m.consecFails,
			ConsecutiveSuccesses: m.consecOKs,
			LastError:            m.lastErr,
			LastProbe:            m.lastProbe,
			LastProbeLatency:     m.lastLatency,
			ProbeBackoff:         m.backoff,
			Ejections:            m.ejections,
			Shards:               m.shards,
			Live:                 m.live,
		})
	}
	return out
}

// reportSuccess records a successful probe of m with the node's reported
// identity and shard detail, readmitting the member once it has
// healthyAfter consecutive successes.
func (p *pool) reportSuccess(m *Member, latency time.Duration, nodeID string, shards, live int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m.lastProbe = time.Now()
	m.lastLatency = latency
	m.lastErr = ""
	m.consecFails = 0
	m.consecOKs++
	m.backoff = 0
	m.nextProbe = m.lastProbe.Add(p.probeInterval)
	if nodeID != "" {
		m.nodeID = nodeID
	}
	m.shards, m.live = shards, live
	if !m.healthy && m.consecOKs >= healthyAfter {
		m.healthy = true
		p.ring.Add(m.name)
		p.ringSize.Set(int64(p.ring.Len()))
		p.logf("fleet: node %s (%s) readmitted after %d healthy probes", m.name, m.nodeID, m.consecOKs)
	}
}

// reportFailure records a failed probe of m (or a proxy-observed transport
// failure — immediate=true schedules a verification probe right away
// instead of waiting out the interval), ejecting the member from the ring
// once it crosses unhealthyAfter consecutive failures. Unhealthy members
// are re-probed on an exponential backoff capped at maxProbeBackoff, so a dead
// node costs probe traffic logarithmically rather than linearly while the
// prober waits for it to come back.
func (p *pool) reportFailure(m *Member, err error, immediate bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	m.lastProbe = now
	m.lastErr = err.Error()
	m.consecOKs = 0
	m.consecFails++
	p.metrics.Counter("infera_fleet_probe_failures_total", telemetry.L("node", m.name)).Inc()
	if m.healthy && m.consecFails >= unhealthyAfter {
		m.healthy = false
		m.ejections++
		p.ring.Remove(m.name)
		p.ringSize.Set(int64(p.ring.Len()))
		p.metrics.Counter("infera_fleet_ejections_total", telemetry.L("node", m.name)).Inc()
		p.logf("fleet: node %s ejected after %d consecutive failures: %v", m.name, m.consecFails, err)
	}
	switch {
	case immediate:
		m.backoff = 0
		m.nextProbe = now
	case m.healthy:
		m.nextProbe = now.Add(p.probeInterval)
	default:
		if m.backoff < p.probeInterval {
			m.backoff = p.probeInterval
		} else {
			m.backoff *= 2
		}
		if m.backoff > maxProbeBackoff {
			m.backoff = maxProbeBackoff
		}
		m.nextProbe = now.Add(m.backoff)
	}
}

// due returns the members whose next probe is due and not already being
// probed, marking them in flight.
func (p *pool) due(now time.Time) []*Member {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*Member
	for _, name := range p.order {
		m := p.members[name]
		if !m.probing && !m.nextProbe.After(now) {
			m.probing = true
			out = append(out, m)
		}
	}
	return out
}

// probed clears a member's in-flight probe mark.
func (p *pool) probed(m *Member) {
	p.mu.Lock()
	m.probing = false
	p.mu.Unlock()
}
