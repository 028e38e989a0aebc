package metrics

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// rollupLoads builds a deterministic synthetic fleet whose float
// terms are exactly representable: FPS is a power of two and frame
// counts are integers, so Frames/FPS is dyadic and the RatedSeconds
// sum is associative bit for bit. That makes the equality asserts
// below exact rather than within-epsilon.
func rollupLoads(n int) []NodeLoad {
	rng := rand.New(rand.NewSource(42))
	loads := make([]NodeLoad, n)
	for i := range loads {
		hist := func(count int) obs.HistSnapshot {
			var h obs.Histogram
			for k := 0; k < count; k++ {
				h.ObserveNs(rng.Int63n(1 << uint(10+rng.Intn(16))))
			}
			return h.Snapshot()
		}
		loads[i] = NodeLoad{
			Node:                   nodeName(i),
			Frames:                 16 + rng.Intn(512),
			FPS:                    []int{0, 8, 16, 32}[rng.Intn(4)],
			Uploads:                rng.Intn(64),
			UploadedBits:           rng.Int63n(1 << 24),
			DemandFetchBits:        rng.Int63n(1 << 20),
			ArchivedBits:           rng.Int63n(1 << 28),
			ArchiveBytes:           rng.Int63n(1 << 26),
			ArchiveEvictedSegments: rng.Intn(10),
			ArchiveEvictedBytes:    rng.Int63n(1 << 22),
			Evicted:                rng.Intn(3),
			Reconnects:             rng.Intn(5),
			ExtractLat:             hist(rng.Intn(100)),
			MCPushLat:              hist(rng.Intn(100)),
			QueueWaitLat:           hist(rng.Intn(100)),
			UploadRTTLat:           hist(rng.Intn(100)),
		}
	}
	return loads
}

func nodeName(i int) string {
	return "edge-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
}

// TestSummarizeFleetOrderIndependent pins that the rollup is
// insensitive to the order loads arrive in — a sharded control plane
// reports nodes grouped by shard, an unsharded one sorted by name,
// and both must produce the same summary.
func TestSummarizeFleetOrderIndependent(t *testing.T) {
	loads := rollupLoads(64)
	want := SummarizeFleet(loads)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := make([]NodeLoad, len(loads))
		for i, j := range rng.Perm(len(loads)) {
			perm[i] = loads[j]
		}
		if got := SummarizeFleet(perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted rollup differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMergeFleetCommutative pins commutativity: merging shard
// summaries in any order gives the same fleet summary. Without the
// deterministic MaxNode tie-break (lowest name wins at equal bitrate)
// this fails whenever two shards tie for the hot node.
func TestMergeFleetCommutative(t *testing.T) {
	loads := rollupLoads(60)
	parts := make([]FleetSummary, 6)
	for i := range parts {
		parts[i] = SummarizeFleet(loads[i*10 : (i+1)*10])
	}
	want := MergeFleet(parts)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		perm := make([]FleetSummary, len(parts))
		for i, j := range rng.Perm(len(parts)) {
			perm[i] = parts[j]
		}
		if got := MergeFleet(perm); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: permuted merge differs:\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestMergeFleetAssociative pins associativity: it must not matter
// how the fleet is partitioned into shards. Summarizing every
// regrouping — per-node shards, one big shard, uneven splits — then
// merging must equal summarizing the concatenation directly. This is
// the exact property the sharded controller's cross-shard rollup
// relies on.
func TestMergeFleetAssociative(t *testing.T) {
	loads := rollupLoads(48)
	want := SummarizeFleet(loads)
	cuts := [][]int{
		{48},            // one shard
		{24, 24},        // even split
		{1, 47},         // lone node
		{5, 13, 7, 23},  // uneven
		{16, 16, 16},    // three-way
		make([]int, 48), // one shard per node
	}
	for i := range cuts[len(cuts)-1] {
		cuts[len(cuts)-1][i] = 1
	}
	for _, cut := range cuts {
		var parts []FleetSummary
		off := 0
		for _, n := range cut {
			parts = append(parts, SummarizeFleet(loads[off:off+n]))
			off += n
		}
		if got := MergeFleet(parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("grouping %v: merged rollup differs:\n got %+v\nwant %+v", cut, got, want)
		}
	}

	// Associativity of Merge itself: ((a+b)+c) == (a+(b+c)).
	a := SummarizeFleet(loads[0:16])
	b := SummarizeFleet(loads[16:32])
	c := SummarizeFleet(loads[32:48])
	left := a
	left.Merge(b)
	left.Merge(c)
	bc := b
	bc.Merge(c)
	right := a
	right.Merge(bc)
	if !reflect.DeepEqual(left, right) {
		t.Fatalf("Merge not associative:\n(a+b)+c %+v\na+(b+c) %+v", left, right)
	}
}

// TestMergeFleetEmptyIdentity pins that zero-value summaries are the
// identity element: an empty shard (all its nodes re-homed away)
// cannot perturb the fleet rollup.
func TestMergeFleetEmptyIdentity(t *testing.T) {
	loads := rollupLoads(16)
	want := SummarizeFleet(loads)
	got := MergeFleet([]FleetSummary{
		{}, SummarizeFleet(loads[:9]), {}, SummarizeFleet(loads[9:]), {},
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty summaries are not identity:\n got %+v\nwant %+v", got, want)
	}
	if got := MergeFleet(nil); !reflect.DeepEqual(got, FleetSummary{}) {
		t.Fatalf("MergeFleet(nil) = %+v, want zero", got)
	}
}
