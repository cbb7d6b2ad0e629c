package fleet

import (
	"errors"
	"testing"
	"time"
)

// TestPoolProbePolicy pins the fixed probe policy without a network: two
// consecutive failures eject a member, two consecutive successes readmit
// it, and an ejected member's re-probe backoff doubles from the probe
// interval and stops at 15s.
func TestPoolProbePolicy(t *testing.T) {
	const interval = time.Second
	p := newPool(NewRing(), interval, nil, t.Logf)
	p.add("n1", "http://n1.invalid")
	m := p.get("n1")
	refused := errors.New("connection refused")

	p.reportFailure(m, refused, false)
	if !p.ring.Has("n1") || !m.healthy {
		t.Fatal("one failure ejected the member")
	}
	p.reportFailure(m, refused, false)
	if p.ring.Has("n1") || m.healthy {
		t.Fatal("second consecutive failure left the member on the ring")
	}

	// The ejecting failure starts the backoff at the probe interval; every
	// further failure doubles it up to the cap.
	for i, want := range []time.Duration{
		time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second,
		15 * time.Second, 15 * time.Second,
	} {
		if i > 0 {
			p.reportFailure(m, refused, false)
		}
		if m.backoff != want {
			t.Fatalf("failure %d after ejection: backoff %v; want %v", i, m.backoff, want)
		}
		if got := m.nextProbe.Sub(m.lastProbe); got != want {
			t.Fatalf("failure %d after ejection: next probe in %v; want %v", i, got, want)
		}
	}

	p.reportSuccess(m, time.Millisecond, "node-1", 0, 0)
	if p.ring.Has("n1") || m.healthy {
		t.Fatal("one success readmitted the member")
	}
	if m.backoff != 0 || m.nextProbe.Sub(m.lastProbe) != interval {
		t.Fatalf("after a success: backoff %v, next probe in %v; want 0 and %v",
			m.backoff, m.nextProbe.Sub(m.lastProbe), interval)
	}
	p.reportSuccess(m, time.Millisecond, "node-1", 0, 0)
	if !p.ring.Has("n1") || !m.healthy {
		t.Fatal("second consecutive success did not readmit the member")
	}
	if m.ejections != 1 {
		t.Errorf("ejections = %d; want 1", m.ejections)
	}
}
