package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"infera/internal/service"
	"infera/internal/telemetry"
)

// probeLoop drives the active health checker: a fine-grained ticker wakes
// it, and every member whose next probe is due gets one in its own
// goroutine (a hung node's probe must not delay probing its siblings).
// Healthy members are probed every ProbeInterval; unhealthy members back
// off exponentially up to maxProbeBackoff (reportFailure owns the
// schedule). The loop stops when the router closes.
func (rt *Router) probeLoop() {
	defer rt.wg.Done()
	tick := rt.cfg.ProbeInterval / 4
	if tick < 25*time.Millisecond {
		tick = 25 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case now := <-t.C:
			for _, m := range rt.pool.due(now) {
				rt.wg.Add(1)
				go func(m *Member) {
					defer rt.wg.Done()
					defer rt.pool.probed(m)
					rt.probe(m)
				}(m)
			}
		}
	}
}

// probe runs one health check against a member: GET /healthz with
// ProbeTimeout, recording round-trip latency and the node's self-reported
// identity and shard detail on success.
func (rt *Router) probe(m *Member) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.base+"/healthz", nil)
	if err != nil {
		rt.pool.reportFailure(m, err, false)
		return
	}
	start := time.Now()
	resp, err := rt.probeClient.Do(req)
	latency := time.Since(start)
	rt.metrics.Histogram("infera_fleet_probe_seconds", nil, telemetry.L("node", m.name)).ObserveDuration(latency)
	if err != nil {
		rt.pool.reportFailure(m, err, false)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		rt.pool.reportFailure(m, fmt.Errorf("healthz HTTP %d", resp.StatusCode), false)
		return
	}
	// Nodes answer with the fleet-aware JSON detail; a legacy plain-text
	// "ok" body simply leaves the detail fields zero.
	var h service.HealthInfo
	_ = json.Unmarshal(data, &h)
	rt.pool.reportSuccess(m, latency, h.Node, h.Shards, h.Live)
}
