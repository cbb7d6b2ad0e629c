package fleet

import (
	"fmt"
	"reflect"
	"testing"
)

// TestRingDeterministicPlacement pins the exact owner and failover order
// for a set of representative ensemble IDs. These are golden values: the
// hash function and vnode labeling are part of the fleet's wire contract
// (two routers over the same member set MUST agree on placement, across
// processes, restarts and releases), so any diff here is a breaking change
// that remaps every deployed fleet.
func TestRingDeterministicPlacement(t *testing.T) {
	r := NewRing()
	r.Add("n1")
	r.Add("n2")
	r.Add("n3")

	golden := []struct {
		key        string
		owner      string
		successors []string
	}{
		{"default", "n2", []string{"n2", "n3", "n1"}},
		{"cosmo-a", "n1", []string{"n1", "n3", "n2"}},
		{"cosmo-b", "n2", []string{"n2", "n3", "n1"}},
		{"lg-ci-c0-r0-s0", "n2", []string{"n2", "n3", "n1"}},
		{"lg-ci-c0-r0-s1", "n1", []string{"n1", "n2", "n3"}},
		{"halos", "n3", []string{"n3", "n1", "n2"}},
		{"particles", "n1", []string{"n1", "n2", "n3"}},
		{"ens-42", "n2", []string{"n2", "n1", "n3"}},
	}
	for _, g := range golden {
		owner, ok := r.Owner(g.key)
		if !ok || owner != g.owner {
			t.Errorf("Owner(%q) = %q, %v; want %q", g.key, owner, ok, g.owner)
		}
		if succ := r.Successors(g.key, 3); !reflect.DeepEqual(succ, g.successors) {
			t.Errorf("Successors(%q) = %v; want %v", g.key, succ, g.successors)
		}
	}

	// Placement must not depend on membership insertion order.
	r2 := NewRing()
	r2.Add("n3")
	r2.Add("n1")
	r2.Add("n2")
	for _, g := range golden {
		if owner, _ := r2.Owner(g.key); owner != g.owner {
			t.Errorf("insertion order changed Owner(%q): %q != %q", g.key, owner, g.owner)
		}
	}
}

// TestRingDistribution bounds the placement skew: 1000 sequential ensemble
// IDs over 5 nodes must land within 25% of the uniform share on every
// node. (Sequential IDs are the adversarial case — plain FNV without the
// splitmix finalizer clusters them onto a ringside neighborhood, one node
// taking 70% and another 0%.)
func TestRingDistribution(t *testing.T) {
	const keys, nodes = 1000, 5
	r := NewRing()
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		owner, ok := r.Owner(fmt.Sprintf("ens-%04d", i))
		if !ok {
			t.Fatalf("no owner for key %d", i)
		}
		counts[owner]++
	}
	uniform := float64(keys) / nodes
	for node, n := range counts {
		dev := (float64(n) - uniform) / uniform
		if dev < -0.25 || dev > 0.25 {
			t.Errorf("node %s owns %d keys (%.1f%% from uniform %v); want within 25%%", node, n, dev*100, uniform)
		}
	}
	if len(counts) != nodes {
		t.Errorf("only %d of %d nodes own keys: %v", len(counts), nodes, counts)
	}
}

// TestRingMinimalMovement asserts the consistent-hashing contract: adding
// a node moves only the keys the new node takes over (~1/N), removing it
// moves exactly its keys back — and every moved key moves TO (or FROM) the
// changed node, never between survivors. Failover correctness rides on
// the removal half: the ring successor an in-flight request retries on is
// the same node that owns the key after the prober ejects the corpse.
func TestRingMinimalMovement(t *testing.T) {
	const keys, nodes = 1000, 5
	r := NewRing()
	for i := 0; i < nodes; i++ {
		r.Add(fmt.Sprintf("node-%d", i))
	}
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("ens-%04d", i)
		before[k], _ = r.Owner(k)
	}

	// Join: node-5 enters; moved keys must all move to node-5, and about
	// 1/(N+1) of the keyspace should move (within 2x either way).
	r.Add("node-5")
	moved := 0
	for k, prev := range before {
		now, _ := r.Owner(k)
		if now == prev {
			continue
		}
		moved++
		if now != "node-5" {
			t.Errorf("join: key %q moved %s -> %s, not to the new node", k, prev, now)
		}
	}
	expect := float64(keys) / (nodes + 1)
	if float64(moved) < expect/2 || float64(moved) > expect*2 {
		t.Errorf("join moved %d keys; want ~%.0f (1/N of %d)", moved, expect, keys)
	}

	// Leave: removing node-5 must restore the original placement exactly —
	// only its keys move, each back to its pre-join owner.
	r.Remove("node-5")
	for k, prev := range before {
		if now, _ := r.Owner(k); now != prev {
			t.Errorf("leave: key %q at %s; want restored to %s", k, now, prev)
		}
	}

	// Removing an original member spreads exactly its keys across the
	// survivors; keys owned by others must not move.
	r.Remove("node-0")
	for k, prev := range before {
		now, _ := r.Owner(k)
		if prev == "node-0" {
			if now == "node-0" {
				t.Errorf("remove: key %q still owned by removed node", k)
			}
		} else if now != prev {
			t.Errorf("remove: unaffected key %q moved %s -> %s", k, prev, now)
		}
	}
}

// TestRingSuccessorsMatchPostEjectionOwner is the failover invariant spelled
// out: for any key, the second entry of Successors on the full ring equals
// the Owner after the first entry is removed.
func TestRingSuccessorsMatchPostEjectionOwner(t *testing.T) {
	const nodes = 4
	full := NewRing()
	for i := 0; i < nodes; i++ {
		full.Add(fmt.Sprintf("node-%d", i))
	}
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("ens-%04d", i)
		succ := full.Successors(k, 2)
		if len(succ) != 2 {
			t.Fatalf("Successors(%q) = %v", k, succ)
		}
		reduced := NewRing()
		for j := 0; j < nodes; j++ {
			if n := fmt.Sprintf("node-%d", j); n != succ[0] {
				reduced.Add(n)
			}
		}
		if owner, _ := reduced.Owner(k); owner != succ[1] {
			t.Errorf("key %q: successor %q != post-ejection owner %q", k, succ[1], owner)
		}
	}
}

// TestRingEmptyAndSingle covers the degenerate shapes the router hits
// during total outage and single-node fleets.
func TestRingEmptyAndSingle(t *testing.T) {
	r := NewRing()
	if _, ok := r.Owner("x"); ok {
		t.Error("empty ring reported an owner")
	}
	if s := r.Successors("x", 3); s != nil {
		t.Errorf("empty ring successors = %v", s)
	}
	r.Add("only")
	if owner, ok := r.Owner("x"); !ok || owner != "only" {
		t.Errorf("single-node owner = %q, %v", owner, ok)
	}
	if s := r.Successors("x", 3); len(s) != 1 || s[0] != "only" {
		t.Errorf("single-node successors = %v", s)
	}
	r.Add("only") // duplicate add must not double the points
	if got := len(r.points); got != vnodesPerMember {
		t.Errorf("duplicate Add grew points to %d", got)
	}
	r.Remove("only")
	r.Remove("only") // duplicate remove is a no-op
	if r.Len() != 0 || len(r.points) != 0 {
		t.Errorf("ring not empty after removes: len=%d points=%d", r.Len(), len(r.points))
	}
}
