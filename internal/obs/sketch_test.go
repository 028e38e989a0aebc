package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

func sketchOf(scores []float64, threshold float64) SketchSnapshot {
	var s ScoreSketch
	for _, v := range scores {
		s.Observe(v, v >= threshold)
	}
	return s.Snapshot()
}

func TestSketchObserveAndMoments(t *testing.T) {
	snap := sketchOf([]float64{0.0, 0.25, 0.5, 0.75, 1.0}, 0.5)
	if snap.Count != 5 {
		t.Fatalf("count = %d, want 5", snap.Count)
	}
	if snap.Passes != 3 {
		t.Fatalf("passes = %d, want 3 (0.5, 0.75, 1.0)", snap.Passes)
	}
	if got := snap.PassRate(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("pass rate = %v, want 0.6", got)
	}
	if got := snap.Mean(); math.Abs(got-0.5) > 1e-5 {
		t.Fatalf("mean = %v, want 0.5", got)
	}
	// 1.0 lands in the top (closed) bin, not out of range.
	if snap.Bins[SketchBins-1] != 1 {
		t.Fatalf("top bin = %d, want 1", snap.Bins[SketchBins-1])
	}
	if snap.Bins[0] != 1 {
		t.Fatalf("bottom bin = %d, want 1", snap.Bins[0])
	}
	var total uint64
	for _, b := range snap.Bins {
		total += b
	}
	if total != snap.Count {
		t.Fatalf("bin total = %d, count = %d", total, snap.Count)
	}
}

func TestSketchClamping(t *testing.T) {
	snap := sketchOf([]float64{-0.5, 1.5, math.NaN()}, 0.5)
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if snap.Bins[0] != 2 { // -0.5 and NaN clamp to 0
		t.Fatalf("bin 0 = %d, want 2", snap.Bins[0])
	}
	if snap.Bins[SketchBins-1] != 1 { // 1.5 clamps to 1
		t.Fatalf("top bin = %d, want 1", snap.Bins[SketchBins-1])
	}
	if snap.Sum != SketchUnit { // 0 + 1 + 0, fixed-point
		t.Fatalf("sum = %d, want %d", snap.Sum, int64(SketchUnit))
	}
}

// TestSketchMergeExact pins the property the sharded control plane
// depends on: merging per-group sketches reproduces the unsharded
// sketch bit for bit, regardless of grouping or order — the same
// contract metrics.MergeFleet keeps for fleet summaries.
func TestSketchMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	scores := make([]float64, 3000)
	for i := range scores {
		scores[i] = rng.Float64()
	}
	flat := sketchOf(scores, 0.5)

	// Split into uneven groups, merge in several orders/groupings.
	groups := []SketchSnapshot{
		sketchOf(scores[:17], 0.5),
		sketchOf(scores[17:940], 0.5),
		sketchOf(scores[940:941], 0.5),
		sketchOf(scores[941:], 0.5),
	}
	// Left fold.
	var left SketchSnapshot
	for _, g := range groups {
		left.Merge(g)
	}
	if !reflect.DeepEqual(left, flat) {
		t.Fatalf("left-fold merge != flat sketch:\n%+v\n%+v", left, flat)
	}
	// Reverse order (commutativity).
	var rev SketchSnapshot
	for i := len(groups) - 1; i >= 0; i-- {
		rev.Merge(groups[i])
	}
	if !reflect.DeepEqual(rev, flat) {
		t.Fatal("reverse-order merge != flat sketch")
	}
	// Pairwise tree (associativity): (g0+g1) + (g2+g3).
	a, b := groups[0], groups[2]
	a.Merge(groups[1])
	b.Merge(groups[3])
	a.Merge(b)
	if !reflect.DeepEqual(a, flat) {
		t.Fatal("tree merge != flat sketch")
	}
}

func TestSketchSub(t *testing.T) {
	var s ScoreSketch
	for i := 0; i < 100; i++ {
		s.Observe(0.3, false)
	}
	prev := s.Snapshot()
	late := make([]float64, 50)
	for i := range late {
		late[i] = 0.9
		s.Observe(0.9, true)
	}
	window := s.Snapshot().Sub(prev)
	if !reflect.DeepEqual(window, sketchOf(late, 0.5)) {
		t.Fatalf("cumulative delta != direct sketch of the window:\n%+v", window)
	}
}

func TestSketchPSIAndKS(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	low := make([]float64, 2000)
	lowAgain := make([]float64, 2000)
	high := make([]float64, 2000)
	for i := range low {
		low[i] = 0.2 + 0.1*rng.Float64()
		lowAgain[i] = 0.2 + 0.1*rng.Float64()
		high[i] = 0.7 + 0.1*rng.Float64()
	}
	base, same, shifted := sketchOf(low, 0.5), sketchOf(lowAgain, 0.5), sketchOf(high, 0.5)

	if psi := PSI(base, base); psi != 0 {
		t.Fatalf("PSI(x, x) = %v, want 0", psi)
	}
	if psi := PSI(base, same); psi > 0.1 {
		t.Fatalf("PSI of two samples from the same distribution = %v, want < 0.1 (stable)", psi)
	}
	if psi := PSI(base, shifted); psi < 0.25 {
		t.Fatalf("PSI of a disjoint shift = %v, want > 0.25 (major)", psi)
	}
	if a, b := PSI(base, shifted), PSI(shifted, base); math.Abs(a-b) > 1e-12 {
		t.Fatalf("PSI not symmetric: %v vs %v", a, b)
	}

	if ks := KS(base, same); ks > 0.1 {
		t.Fatalf("KS of same-distribution samples = %v, want small", ks)
	}
	if ks := KS(base, shifted); ks < 0.99 {
		// Disjoint supports: CDFs separate completely.
		t.Fatalf("KS of a disjoint shift = %v, want ≈ 1", ks)
	}

	var empty SketchSnapshot
	if PSI(empty, base) != 0 || PSI(base, empty) != 0 || KS(empty, base) != 0 {
		t.Fatal("distance against an empty sketch must be 0, not drift")
	}
}

// TestPSIKSMatchesTwoPass: the one-pass PSIKS returns PSI's and KS's
// values bit for bit — on empty sides, identical and disjoint
// distributions, bins below the PSI floor on either side, and random
// sketches.
func TestPSIKSMatchesTwoPass(t *testing.T) {
	var tail SketchSnapshot // 20000 observations, one in each of two bins below the floor
	tail.Count, tail.Bins[0], tail.Bins[5], tail.Bins[31] = 20000, 19998, 1, 1
	cases := map[string][2]SketchSnapshot{
		"both empty":      {{}, {}},
		"empty base":      {{}, sketchOf([]float64{0.2, 0.4}, 0.5)},
		"empty recent":    {sketchOf([]float64{0.2, 0.4}, 0.5), {}},
		"identical":       {sketchOf([]float64{0.1, 0.5, 0.9}, 0.5), sketchOf([]float64{0.1, 0.5, 0.9}, 0.5)},
		"disjoint":        {sketchOf([]float64{0.01, 0.02}, 0.5), sketchOf([]float64{0.98, 0.99}, 0.5)},
		"floored base":    {tail, sketchOf([]float64{0, 0.2, 0.5, 1}, 0.5)},
		"floored recent":  {sketchOf([]float64{0, 0.2, 0.5, 1}, 0.5), tail},
		"floored on both": {tail, tail},
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		var pair [2]SketchSnapshot
		for side := range pair {
			for n := rng.Intn(400); n > 0; n-- {
				pair[side].Bins[rng.Intn(SketchBins)]++
				pair[side].Count++
			}
		}
		cases[fmt.Sprintf("random %d", i)] = pair
	}
	for name, c := range cases {
		psi, ks := PSIKS(&c[0], &c[1])
		if math.Float64bits(psi) != math.Float64bits(PSI(c[0], c[1])) || math.Float64bits(ks) != math.Float64bits(KS(c[0], c[1])) {
			t.Errorf("%s: PSIKS = (%v, %v), PSI and KS = (%v, %v)", name, psi, ks, PSI(c[0], c[1]), KS(c[0], c[1]))
		}
	}
}

func TestSketchObserveAllocFree(t *testing.T) {
	var s ScoreSketch
	if allocs := testing.AllocsPerRun(1000, func() { s.Observe(0.42, false) }); allocs != 0 {
		t.Fatalf("ScoreSketch.Observe allocates %v/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { _ = s.Snapshot() }); allocs != 0 {
		t.Fatalf("ScoreSketch.Snapshot allocates %v/op, want 0", allocs)
	}
}

func TestSketchConcurrentObserve(t *testing.T) {
	var s ScoreSketch
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				v := rng.Float64()
				s.Observe(v, v >= 0.5)
				if i%512 == 0 {
					_ = s.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	snap := s.Snapshot()
	if snap.Count != writers*per {
		t.Fatalf("count = %d, want %d", snap.Count, writers*per)
	}
	var total uint64
	for _, b := range snap.Bins {
		total += b
	}
	if total != snap.Count {
		t.Fatalf("bin total = %d, count = %d", total, snap.Count)
	}
}

func BenchmarkSketchObserve(b *testing.B) {
	var s ScoreSketch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Observe(float64(i%100)/100, i%3 == 0)
	}
}
