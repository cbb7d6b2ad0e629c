// Package fleet turns N inferad processes into one logical service: a
// router owns a consistent-hash ring mapping ensemble IDs to member nodes,
// reverse-proxies every /v1 route — including SSE event streams and
// interactive plan approvals — to the owning node, and runs an active
// health checker that ejects dead nodes from the ring and fails asks over
// to the successor node, which lazily spins the shard up from its persisted
// answer cache (the registry's pin/evict/persist lifecycle is the building
// block). One ensemble has exactly one owner at a time, so the per-shard
// invariants the single-process registry relies on — one answer cache, one
// provenance ID sequence, one work directory writer — keep holding across
// the fleet.
package fleet

import (
	"hash/fnv"
	"sort"
	"sync"
)

// vnodesPerMember is the virtual-node count per member. More virtual nodes
// smooth the key distribution (TestRingDistribution bounds the skew) at the
// cost of a larger ring; 256 keeps 5-node deviation under ~10% while a
// lookup stays one binary search over nodes*256 points. It is a constant
// because it is part of placement: two routers over the same members agree
// on every owner only if they place the same virtual nodes.
const vnodesPerMember = 256

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring with virtual nodes. Placement is
// deterministic — a given (member set, key) always resolves to the same
// owner, across processes and restarts — and minimal: adding or removing
// one member of N moves only ~1/N of the keys (exactly the keys the new
// member takes over, or the dead member's keys, which spread across the
// survivors). The zero value is not usable; create with NewRing.
type Ring struct {
	mu     sync.RWMutex
	points []point // sorted by hash
	nodes  map[string]struct{}
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{nodes: map[string]struct{}{}}
}

// hashKey positions a key (or virtual node label) on the ring: FNV-1a
// finished with a splitmix64 finalizer. Plain FNV clusters sequential
// strings ("ens-0001", "ens-0002", …) into nearby ring positions — the
// finalizer's avalanche spreads them uniformly. Both pieces are stable
// across Go versions and platforms, which the deterministic placement
// contract depends on.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// vnodeHash positions member node's i-th virtual node: the i-th output of
// a splitmix64 stream seeded by the node's key hash. A generator sequence
// equidistributes far better than hashing "node#i" labels (which share a
// long common prefix and leave several percent of residual skew even at
// high vnode counts).
func vnodeHash(node string, i int) uint64 {
	z := hashKey(node) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a member. Adding a present member is a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < vnodesPerMember; i++ {
		r.points = append(r.points, point{hash: vnodeHash(node, i), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove ejects a member. Removing an absent member is a no-op.
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports whether node is a member.
func (r *Ring) Has(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.nodes[node]
	return ok
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes returns the members, sorted.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner resolves the member owning key: the first virtual node clockwise
// of the key's hash. ok is false on an empty ring.
func (r *Ring) Owner(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.searchLocked(key)].node, true
}

// searchLocked returns the index of the first ring point at or clockwise
// of key's hash (wrapping past the top).
func (r *Ring) searchLocked(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct members in ring order starting at
// key's owner — the failover order: if the owner is unreachable, the next
// entry takes the key over (and, because removal redistributes exactly the
// dead member's points, that is also who owns the key once the prober
// ejects the corpse).
func (r *Ring) Successors(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i, start := 0, r.searchLocked(key); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}
