package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ringVnodes is the number of virtual nodes each shard contributes to
// the consistent-hash ring. 64 points per shard keeps the load spread
// within a few percent of uniform at fleet scale while the ring stays
// small enough to build on every controller open.
const ringVnodes = 64

// ringPoint is one virtual node on the ring.
type ringPoint struct {
	hash  uint64
	shard int
}

// ring places node names on shards by consistent hashing: each shard
// projects ringVnodes points onto a 64-bit circle, and a node belongs
// to the shard owning the first point at or after the node's own
// hash. Growing the shard count only moves nodes whose successor
// point now belongs to a new shard; shrinking only moves the retired
// shards' nodes — both are the minimal-movement property that keeps
// the re-homes of a restart under a new shard count few and
// deterministic.
type ring struct {
	shards int
	points []ringPoint
}

// newRing builds the ring for the given shard count (at least 1).
func newRing(shards int) *ring {
	if shards < 1 {
		shards = 1
	}
	r := &ring{shards: shards, points: make([]ringPoint, 0, shards*ringVnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  fnv64a(fmt.Sprintf("shard-%d/vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash collisions between vnode labels are vanishingly rare but
		// must still order deterministically across processes.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// owner returns the shard index owning a node name.
func (r *ring) owner(node string) int {
	h := fnv64a(node)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: successor of the largest point is the smallest
	}
	return r.points[i].shard
}

// fnv64a hashes a string with FNV-1a and a 64-bit mix finalizer. Raw
// FNV avalanches poorly in its final bytes — sequential labels like
// "vnode-1", "vnode-2" land on near-adjacent ring positions, which
// collapses the distribution — so the finalizer (the murmur3 fmix64
// constants) scatters them.
func fnv64a(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
