// Package cluster is the peer layer behind bitgend's cluster mode: a
// consistent-hash ring routes every bitgen.PatternSetKey to a
// deterministic owner replica (plus one hash-ring successor as warm
// standby), so the compiled-engine cache becomes a distributed cache —
// each engine is compiled once, on its owner, no matter which replica a
// request enters through.
//
// Forwarding is guarded per peer by a circuit breaker (breaker.go:
// closed/open/half-open with deterministically jittered cooldowns) and
// fails over to the successor replica when the owner is breaker-blocked
// or fails. When neither is reachable the receiving node degrades
// gracefully: it compiles locally and counts a degraded serve instead of
// erroring. The transport consults internal/faultinject's network points
// (peer-refuse, peer-drop, peer-partition) so every failure mode is
// reproducible in tests.
package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual points per replica: enough for an even key
// spread. Every replica must use the same value, so it is not a setting.
const vnodes = 64

// Ring is an immutable consistent-hash ring: each node contributes vnodes
// virtual points, and a key is owned by the node whose
// point follows the key's hash clockwise. Lookup is O(log(nodes·vnodes)).
type Ring struct {
	nodes  []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the node names (replica base URLs).
// Duplicates collapse; order is irrelevant (nodes are sorted so every
// replica builds the identical ring from the same peer list).
func NewRing(nodes []string) (*Ring, error) {
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, errors.New("cluster: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, errors.New("cluster: ring needs at least one node")
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for i, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(n, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		pa, pb := r.points[a], r.points[b]
		if pa.hash != pb.hash {
			return pa.hash < pb.hash
		}
		return pa.node < pb.node // total order even on (vanishingly rare) collisions
	})
	return r, nil
}

// Nodes returns the ring's members in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Owner returns the node that owns key.
func (r *Ring) Owner(key string) string {
	owner, _ := r.OwnerSuccessor(key)
	return owner
}

// OwnerSuccessor returns the key's owner and the next distinct node
// clockwise — the warm-standby replica. successor is "" on a one-node
// ring.
func (r *Ring) OwnerSuccessor(key string) (owner, successor string) {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	own := r.points[i].node
	owner = r.nodes[own]
	if len(r.nodes) == 1 {
		return owner, ""
	}
	for step := 1; step <= len(r.points); step++ {
		p := r.points[(i+step)%len(r.points)]
		if p.node != own {
			return owner, r.nodes[p.node]
		}
	}
	return owner, "" // unreachable with >1 node
}

// hashPoint hashes one virtual node: FNV-64a over "node\x00index",
// finalized with a splitmix round for avalanche (FNV alone clusters
// sequential suffixes).
func hashPoint(node string, v int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d", v)
	return finalize(h.Sum64())
}

// hashKey hashes a routing key (a bitgen.PatternSetKey hex string).
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return finalize(h.Sum64())
}

// finalize is the splitmix64 finalizer.
func finalize(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
