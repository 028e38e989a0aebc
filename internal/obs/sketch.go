package obs

import (
	"math"
	"sync/atomic"
)

// SketchBins is the score-sketch resolution: bin b counts scores in
// [b/SketchBins, (b+1)/SketchBins), with the top bin closed at 1.0.
const SketchBins = 32

// SketchUnit is the fixed-point scale for a sketch's sum and
// sum-of-squares moments. Scores are quantized to integer multiples of
// 1/SketchUnit at observation time, so the moments are integer sums:
// unlike float accumulation, they merge exactly under any grouping or
// ordering — the property the sharded rollup's flat-vs-merged
// deep-equality check depends on. At 2^20 the quantization error per
// observation is under 10^-6, far below any drift threshold.
const SketchUnit = 1 << 20

// ScoreSketch is a compact, mergeable sketch of a microclassifier's
// score distribution on [0, 1]: the observation count, the pass count
// (scores at or above the MC's deploy threshold), fixed-point first
// and second moments, and a fixed 32-bin histogram. Observe is
// lock-free (atomic counters) and allocation-free, safe for any number
// of concurrent writers; readers take snapshots without stopping them.
//
// The sketch is the semantic complement to Histogram: Histogram says
// how fast the pipeline runs, ScoreSketch says what the model is doing
// — the distribution a drift detector compares against its
// frozen-at-deploy baseline.
type ScoreSketch struct {
	count  atomic.Uint64
	passes atomic.Uint64
	sum    atomic.Int64 // fixed-point, units of 1/SketchUnit
	sumsq  atomic.Int64 // fixed-point, units of 1/SketchUnit
	bins   [SketchBins]atomic.Uint64
}

// sketchBin maps a score to its bin index, clamping out-of-range
// inputs (scores are sigmoid outputs, but NaN-safety costs nothing).
func sketchBin(score float64) int {
	b := int(score * SketchBins)
	if b < 0 || math.IsNaN(score) {
		return 0
	}
	if b >= SketchBins {
		return SketchBins - 1
	}
	return b
}

// Observe records one score and whether it passed the MC's threshold.
// Allocation-free. The score is clamped to [0, 1] and quantized to
// 1/SketchUnit before accumulation so that merged and unmerged sketch
// moments agree bit for bit.
func (s *ScoreSketch) Observe(score float64, pass bool) {
	if score < 0 || math.IsNaN(score) {
		score = 0
	} else if score > 1 {
		score = 1
	}
	q := int64(score*SketchUnit + 0.5)
	s.bins[sketchBin(score)].Add(1)
	s.count.Add(1)
	s.sum.Add(q)
	s.sumsq.Add(q * q / SketchUnit)
	if pass {
		s.passes.Add(1)
	}
}

// Count returns the number of observations.
func (s *ScoreSketch) Count() uint64 { return s.count.Load() }

// Snapshot copies the sketch's current counters. Concurrent writers
// may land between field reads, so Count can be slightly ahead of the
// bin total; consumers tolerate this the same way HistSnapshot readers
// do.
func (s *ScoreSketch) Snapshot() SketchSnapshot {
	var out SketchSnapshot
	out.Count = s.count.Load()
	out.Passes = s.passes.Load()
	out.Sum = s.sum.Load()
	out.SumSq = s.sumsq.Load()
	for i := range s.bins {
		out.Bins[i] = s.bins[i].Load()
	}
	return out
}

// SketchSnapshot is a point-in-time copy of a ScoreSketch — the
// wire format heartbeats carry to the controller (plain exported
// fields, gob-friendly, fixed-size). All fields are integers, so Merge
// is exact: associative, commutative, and independent of how a fleet's
// sketches are grouped into shards, and so is the difference of two
// cumulative snapshots a Baseline scores.
type SketchSnapshot struct {
	// Count and Passes are the observation and threshold-pass totals.
	Count  uint64
	Passes uint64
	// Sum and SumSq are the first and second moments in fixed-point
	// units of 1/SketchUnit (see Mean/Variance for float views).
	Sum   int64
	SumSq int64
	// Bins is the 32-bin score histogram over [0, 1].
	Bins [SketchBins]uint64
}

// Merge folds another snapshot in. Every field is an integer total, so
// the merge is exact: merging per-shard sketches in any order or
// grouping reproduces the unsharded sketch bit for bit.
func (s *SketchSnapshot) Merge(o SketchSnapshot) {
	s.Count += o.Count
	s.Passes += o.Passes
	s.Sum += o.Sum
	s.SumSq += o.SumSq
	for i := range s.Bins {
		s.Bins[i] += o.Bins[i]
	}
}

// Mean returns the average score, 0 when empty.
func (s SketchSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / SketchUnit / float64(s.Count)
}

// PassRate returns the fraction of observations at or above the MC's
// threshold, 0 when empty.
func (s SketchSnapshot) PassRate() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Passes) / float64(s.Count)
}

// psiFloor is the probability floor for PSI's log-ratio terms: an
// empty bin on one side would otherwise send the index to infinity.
const psiFloor = 1e-4

// psiFloorBits is psiFloor's bit pattern.
var psiFloorBits = math.Float64bits(psiFloor)

// PSI returns the Population Stability Index between a baseline and a
// recent score distribution, computed over the 32 shared bins:
//
//	PSI = Σ (pᵢ − qᵢ) · ln(pᵢ/qᵢ)
//
// with per-bin proportions floored at 1e-4. PSI is symmetric in its
// arguments and zero for identical distributions. Industry convention
// reads < 0.1 as stable, 0.1–0.25 as moderate shift, and > 0.25 as a
// major shift. Returns 0 when either side is empty (no evidence is not
// evidence of drift). Baseline.Score computes it and KS in one pass,
// to the same bits; this is the definition it is tested against.
func PSI(base, recent SketchSnapshot) float64 {
	if base.Count == 0 || recent.Count == 0 {
		return 0
	}
	var psi float64
	for i := 0; i < SketchBins; i++ {
		p := float64(base.Bins[i]) / float64(base.Count)
		q := float64(recent.Bins[i]) / float64(recent.Count)
		if p < psiFloor {
			p = psiFloor
		}
		if q < psiFloor {
			q = psiFloor
		}
		psi += (q - p) * math.Log(q/p)
	}
	return psi
}

// KS returns the binned Kolmogorov–Smirnov statistic between a
// baseline and a recent score distribution: the maximum absolute gap
// between their empirical CDFs, evaluated at the 32 shared bin edges.
// Ranges over [0, 1]; zero for identical distributions. Binning makes
// it a lower bound on the exact KS distance, which is the safe
// direction for an alert threshold. Returns 0 when either side is
// empty. Baseline.Score computes it and PSI in one pass, to the same
// bits; this is the definition it is tested against.
func KS(base, recent SketchSnapshot) float64 {
	if base.Count == 0 || recent.Count == 0 {
		return 0
	}
	var cp, cq, worst float64
	for i := 0; i < SketchBins; i++ {
		cp += float64(base.Bins[i]) / float64(base.Count)
		cq += float64(recent.Bins[i]) / float64(recent.Count)
		if d := math.Abs(cp - cq); d > worst {
			worst = d
		}
	}
	return worst
}

// Baseline is a frozen reference distribution prepared for scoring
// windows against it: its per-bin proportions floored for PSI, and
// their running sums for KS, derived once when the baseline freezes
// instead of once per window. The zero Baseline is an empty one, which
// scores every window 0.
type Baseline struct {
	floored [SketchBins]float64 // max(pᵢ, 1e-4)
	cdf     [SketchBins]float64 // p₀ + … + pᵢ, unfloored
	set     bool                // derived from a baseline of at least one observation
}

// NewBaseline derives base's scoring tables.
func NewBaseline(base *SketchSnapshot) Baseline {
	b := Baseline{set: base.Count > 0}
	if !b.set {
		return b
	}
	var cp float64
	for i, c := range base.Bins[:] {
		p := float64(c) / float64(base.Count)
		cp += p
		b.cdf[i] = cp
		b.floored[i] = max(p, psiFloor)
	}
	return b
}

// Score returns PSI(base, w) and KS(base, w) for the window w = cur −
// prev of two cumulative snapshots, bit for bit: the definitions'
// expressions in their order, with the baseline's side read from its
// tables and the window's computed from cur and prev directly. A bin
// whose two floored proportions are equal adds exactly +0 to PSI and is
// skipped; the others' logarithms are taken in one batch (logs). The
// loop over the bins takes no data-dependent branch: the values it
// takes a maximum of are never negative, and for those the larger
// float has the larger bits, so an integer max (a conditional move)
// decides.
func (b *Baseline) Score(cur, prev *SketchSnapshot) (psi, ks float64) {
	n := cur.Count - prev.Count
	if !b.set || n == 0 {
		return 0, 0
	}
	var diff, ratio [SketchBins]float64
	var cq float64
	var ksBits uint64
	k := 0
	for i := range SketchBins {
		q := float64(cur.Bins[i]-prev.Bins[i]) / float64(n)
		cq += q
		ksBits = max(ksBits, math.Float64bits(b.cdf[i]-cq)&^(1<<63))
		q = math.Float64frombits(max(math.Float64bits(q), psiFloorBits))
		p := b.floored[i]
		diff[k], ratio[k] = q-p, q/p
		if q != p {
			k++
		}
	}
	logs(ratio[:k])
	for j, l := range ratio[:k] {
		psi += diff[j] * l
	}
	return psi, math.Float64frombits(ksBits)
}
