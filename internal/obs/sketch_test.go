package obs

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// sub is the window between two cumulative snapshots, field by field.
func sub(cur, prev SketchSnapshot) SketchSnapshot {
	d := cur
	d.Count -= prev.Count
	d.Passes -= prev.Passes
	d.Sum -= prev.Sum
	d.SumSq -= prev.SumSq
	for i := range d.Bins {
		d.Bins[i] -= prev.Bins[i]
	}
	return d
}

// TestBaselineScoresCumulativeDelta: the window Score reads off two
// cumulative snapshots is the sketch of the scores observed between
// them.
func TestBaselineScoresCumulativeDelta(t *testing.T) {
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
	cur := s.Snapshot()
	if !reflect.DeepEqual(sub(cur, prev), sketchOf(late, 0.5)) {
		t.Fatalf("cumulative delta != direct sketch of the window:\n%+v", sub(cur, prev))
	}
	base := sketchOf([]float64{0.3, 0.5, 0.7}, 0.5)
	b := NewBaseline(&base)
	psi, ks := b.Score(&cur, &prev)
	if psi != PSI(base, sketchOf(late, 0.5)) || ks != KS(base, sketchOf(late, 0.5)) {
		t.Fatalf("Score(cur, prev) = (%v, %v), the window's PSI and KS are (%v, %v)", psi, ks, PSI(base, sketchOf(late, 0.5)), KS(base, sketchOf(late, 0.5)))
	}
	var zero Baseline // an empty baseline scores nothing
	if psi, ks := zero.Score(&cur, &prev); psi != 0 || ks != 0 {
		t.Fatalf("the zero Baseline scores (%v, %v), want 0", psi, ks)
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

// scoreCorpus draws the baseline and cumulative pairs Baseline.Score
// is checked on: random sketches at counts from a handful to 2^53,
// bins empty on the baseline's side, the window's, both, or neither,
// windows proportional to the baseline (identical distributions), all
// of either side's mass in one bin, and empty sides.
func scoreCorpus(rng *rand.Rand, n int) map[string][3]SketchSnapshot {
	// draw fills bins with counts below 2^scale, each bin left empty
	// with probability emptyP.
	draw := func(scale int, emptyP float64) SketchSnapshot {
		var s SketchSnapshot
		for i := range s.Bins {
			if rng.Float64() < emptyP {
				continue
			}
			s.Bins[i] = uint64(rng.Int63n(int64(1) << scale))
			s.Count += s.Bins[i]
		}
		return s
	}
	add := func(a, b SketchSnapshot) SketchSnapshot {
		a.Merge(b)
		return a
	}
	oneBin := func(count uint64) SketchSnapshot {
		var s SketchSnapshot
		s.Count = count
		s.Bins[rng.Intn(SketchBins)] = count
		return s
	}
	var tail SketchSnapshot // 20000 observations, one in each of two bins below the floor
	tail.Count, tail.Bins[0], tail.Bins[5], tail.Bins[31] = 20000, 19998, 1, 1
	corpus := map[string][3]SketchSnapshot{ // baseline, prev, cur
		"both empty":         {{}, {}, {}},
		"empty base":         {{}, {}, sketchOf([]float64{0.2, 0.4}, 0.5)},
		"empty window":       {sketchOf([]float64{0.2, 0.4}, 0.5), tail, tail},
		"identical":          {sketchOf([]float64{0.1, 0.5, 0.9}, 0.5), tail, add(tail, sketchOf([]float64{0.1, 0.5, 0.9}, 0.5))},
		"disjoint":           {sketchOf([]float64{0.01, 0.02}, 0.5), {}, sketchOf([]float64{0.98, 0.99}, 0.5)},
		"floored base":       {tail, {}, sketchOf([]float64{0, 0.2, 0.5, 1}, 0.5)},
		"floored window":     {sketchOf([]float64{0, 0.2, 0.5, 1}, 0.5), {}, tail},
		"floored on both":    {tail, {}, tail},
		"one bin each":       {oneBin(1 << 53), oneBin(7), add(oneBin(7), oneBin(1<<53-7))},
		"one bin, same bin":  {{Count: 5, Bins: [SketchBins]uint64{5}}, {}, {Count: 1 << 53, Bins: [SketchBins]uint64{1 << 53}}},
		"counts at 2^53":     {draw(48, 0.3), draw(48, 0.3), {}},
		"proportional, 2^53": {},
	}
	// Counts at 2^53: the cumulative sketch ends at 2^53 observations.
	c := corpus["counts at 2^53"]
	c[2] = add(c[1], draw(48, 0.3))
	corpus["counts at 2^53"] = c
	base := draw(20, 0.5)
	var scaled SketchSnapshot
	for i, b := range base.Bins {
		scaled.Bins[i] = b << 32
		scaled.Count += b << 32
	}
	prev := draw(40, 0.2)
	corpus["proportional, 2^53"] = [3]SketchSnapshot{base, prev, add(prev, scaled)}
	for i := 0; i < n; i++ {
		scale := 1 + rng.Intn(48)
		base := draw(1+rng.Intn(48), rng.Float64())
		prev := draw(scale, rng.Float64())
		win := draw(1+rng.Intn(scale), rng.Float64())
		switch rng.Intn(8) {
		case 0: // the window is the baseline's distribution
			win = SketchSnapshot{}
			m := uint64(1 + rng.Intn(1000))
			for j, b := range base.Bins {
				win.Bins[j] = b * m
				win.Count += b * m
			}
		case 1:
			win = oneBin(uint64(1 + rng.Int63n(1<<20)))
		case 2:
			base = oneBin(uint64(1 + rng.Int63n(1<<20)))
		}
		corpus[fmt.Sprintf("random %d", i)] = [3]SketchSnapshot{base, prev, add(prev, win)}
	}
	return corpus
}

// TestBaselineScoreMatchesDefinitions: Score returns PSI's and KS's
// values for the window between two cumulative snapshots, bit for bit,
// over the score corpus.
func TestBaselineScoreMatchesDefinitions(t *testing.T) {
	for name, c := range scoreCorpus(rand.New(rand.NewSource(11)), 20000) {
		base, prev, cur := c[0], c[1], c[2]
		b := NewBaseline(&base)
		psi, ks := b.Score(&cur, &prev)
		win := sub(cur, prev)
		wantPSI, wantKS := PSI(base, win), KS(base, win)
		if math.Float64bits(psi) != math.Float64bits(wantPSI) || math.Float64bits(ks) != math.Float64bits(wantKS) {
			t.Errorf("%s: Score = (%v, %v), PSI and KS = (%v, %v)", name, psi, ks, wantPSI, wantKS)
		}
	}
}

// logTier is one logarithm tier this build can run (logTiers lists
// them); use() selects it.
type logTier struct {
	name string
	use  func()
}

// TestLogsMatchMathLog: the batched logarithm gives math.Log's bits,
// on every tier, for a million random positive normals, √2/2 times
// every power of two (where the reduction's comparison decides) and
// their neighbours, every power of two, and the ratios the PSI floor
// can produce, 1e-4 and 1e4 — in batches of every length up to two
// vector blocks and more.
// Zeros, negatives, infinities, NaNs and subnormals, scattered among
// them, take math.Log's special cases.
func TestLogsMatchMathLog(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var in []float64
	for len(in) < 1_000_000 {
		// Random bits with the sign cleared: every positive normal is
		// equally likely, so every exponent is covered.
		if v := math.Float64frombits(rng.Uint64() >> 1); v >= 0x1p-1022 && v <= math.MaxFloat64 {
			in = append(in, v)
		}
	}
	in = append(in, 1e-4, 1e4, 1e-4/1e4, 1e4/1e-4)
	for e := -1021; e <= 1023; e++ {
		// √2/2 at every exponent, where the reduction's comparison
		// decides (at 2^0 either branch gives the same bits), and its
		// two neighbours.
		h := math.Ldexp(math.Sqrt2/2, e)
		in = append(in, math.Ldexp(1, e), h, math.Nextafter(h, 0), math.Nextafter(h, math.Inf(1)))
	}
	special := []float64{0, math.Copysign(0, -1), -1, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 5e-324, 0x1p-1023, math.Nextafter(0x1p-1022, 0)}
	for _, v := range special {
		in[rng.Intn(len(in))] = v
	}
	for _, tier := range logTiers(t) {
		tier.use()
		got := slices.Clone(in)
		for rest := got; len(rest) > 0; { // batches of 1 to 20 values
			n := min(1+rng.Intn(20), len(rest))
			logs(rest[:n])
			rest = rest[n:]
		}
		bad := 0
		for i, v := range in {
			if want := math.Log(v); math.Float64bits(got[i]) != math.Float64bits(want) {
				if bad++; bad <= 10 {
					t.Errorf("%s: logs(%v) = %v (%#x), math.Log says %v (%#x)", tier.name, v, got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
				}
			}
		}
		if bad > 0 {
			t.Errorf("%s: %d of %d values differ from math.Log", tier.name, bad, len(in))
		}
	}
}

// BenchmarkBaselineScore scores windows of the shape bench's synthetic
// edge sends, 60 scores with most bins empty, against baselines of 60:
// 64 pairs in turn, so no branch learns one pair's bins.
func BenchmarkBaselineScore(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	type pair struct {
		base      Baseline
		prev, cur SketchSnapshot
	}
	pairs := make([]pair, 64)
	for i := range pairs {
		var sk ScoreSketch
		observe := func(n int) SketchSnapshot {
			for range n {
				v := rng.Float64() * rng.Float64()
				sk.Observe(v, v >= 0.5)
			}
			return sk.Snapshot()
		}
		base := observe(60)
		pairs[i] = pair{base: NewBaseline(&base), prev: observe(60 * rng.Intn(100)), cur: observe(60)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		p := &pairs[i%len(pairs)]
		p.base.Score(&p.cur, &p.prev)
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
