package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
)

// hashRing is a consistent-hash ring with virtual nodes: each member
// node owns vnodes points on a 64-bit circle, and a key's owners are
// the first n distinct nodes clockwise from the key's hash. Placement
// assignment uses it so that adding or removing one of N workers moves
// only ~1/N of the placements — the property the rebalance tests pin —
// while virtual nodes keep per-worker ownership counts close to the
// mean. Hashes come from SHA-256, so every process (and every test
// run) derives the identical assignment from the same membership.
//
// hashRing is not goroutine-safe; Backend guards it with its
// membership lock.
type hashRing struct {
	nodes  map[string]struct{}
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// vnodes balances skew against ring size: at 64 points per node the
// max/mean placement ratio stays within ~1.35 for the worker counts
// this system targets (see the ring property tests).
const vnodes = 64

func newHashRing() *hashRing {
	return &hashRing{nodes: make(map[string]struct{})}
}

// ringHash maps an arbitrary string to a point on the circle.
func ringHash(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Add inserts a node (idempotent).
func (r *hashRing) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < vnodes; i++ {
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(i))
		r.points = append(r.points, ringPoint{hash: ringHash(node + "\x00" + string(buf[:])), node: node})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on node name so two nodes colliding on a point
		// still order deterministically in every process.
		return r.points[a].node < r.points[b].node
	})
}

// Remove deletes a node (idempotent).
func (r *hashRing) Remove(node string) {
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

// Owners returns up to n distinct nodes clockwise from the key's
// point, in ring order. The first owner is the primary; the rest are
// replicas. Fewer than n members returns all of them.
func (r *hashRing) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(owners) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		owners = append(owners, p.node)
	}
	return owners
}
