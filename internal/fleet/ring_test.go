package fleet

import (
	"fmt"
	"testing"
)

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("edge-%03d", i)
	}
	return names
}

// TestRingDeterministic pins that placement is a pure function of the
// (node, shard count) pair — two controllers with the same shard
// count must agree on every node, or a restart would re-home nodes
// whose count never changed.
func TestRingDeterministic(t *testing.T) {
	a, b := newRing(4), newRing(4)
	for _, name := range ringNames(500) {
		if ao, bo := a.owner(name), b.owner(name); ao != bo {
			t.Fatalf("ring disagreement on %s: %d vs %d", name, ao, bo)
		}
		if o := a.owner(name); o < 0 || o >= 4 {
			t.Fatalf("owner(%s) = %d, out of range", name, o)
		}
	}
}

// TestRingBalance checks the vnode count spreads load: with 64 vnodes
// per shard, no shard of 4 should own a wildly disproportionate share
// of 1000 nodes (the bound is loose — it guards against a broken hash
// collapsing everything onto one shard, not statistical perfection).
func TestRingBalance(t *testing.T) {
	r := newRing(4)
	counts := make([]int, 4)
	for _, name := range ringNames(1000) {
		counts[r.owner(name)]++
	}
	for s, n := range counts {
		if n < 100 || n > 500 {
			t.Fatalf("shard %d owns %d of 1000 nodes (distribution %v)", s, n, counts)
		}
	}
}

// TestRingMinimalMovementGrow pins the consistent-hashing contract on
// growth: a node either keeps its owner or moves to one of the NEW
// shards. Growing never shuffles nodes between surviving shards —
// that is what keeps re-sharding by restart cheap.
func TestRingMinimalMovementGrow(t *testing.T) {
	before, after := newRing(4), newRing(6)
	moved := 0
	for _, name := range ringNames(1000) {
		b, a := before.owner(name), after.owner(name)
		if a != b && a < 4 {
			t.Fatalf("%s moved %d -> %d: growth may only move nodes to new shards", name, b, a)
		}
		if a != b {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("growing 4 -> 6 shards moved nothing; new shards would start empty forever")
	}
	// The expected move fraction is 2/6 of the fleet; allow wide slack.
	if moved > 600 {
		t.Fatalf("growing 4 -> 6 moved %d of 1000 nodes; consistent hashing should move ~333", moved)
	}
}

// TestRingMinimalMovementShrink pins the contract on shrink: only the
// retired shards' nodes move; every node on a surviving shard stays.
func TestRingMinimalMovementShrink(t *testing.T) {
	before, after := newRing(6), newRing(4)
	for _, name := range ringNames(1000) {
		b, a := before.owner(name), after.owner(name)
		if b < 4 && a != b {
			t.Fatalf("%s moved %d -> %d: shrink may only move retired shards' nodes", name, b, a)
		}
		if b >= 4 && a >= 4 {
			t.Fatalf("%s still owned by retired shard %d", name, a)
		}
	}
}
