package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// noiseRef is NoisePixels' oracle: the render loop as it was written
// before the batched draw, one NormFloat64 call on r per value.
func noiseRef(r *rand.Rand, pix []float32, gain, std float32) {
	for i, v := range pix {
		if gain != 1 {
			v = Clamp01(v * gain)
		}
		pix[i] = Clamp01(v + std*float32(r.NormFloat64()))
	}
}

// sameFloat32s returns the first index where a and b differ in bits,
// or -1.
func sameFloat32s(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// streamSeeds are the seeds TestRNGStreamMatchesMathRand runs:
// math/rand reduces a seed modulo 2^31−1 and maps 0 to a fixed value,
// so negatives, 0, multiples of 2^31−1 and the extremes each take their
// own branch of its seeding.
var streamSeeds = []int64{
	0, 1, -1, 2, 7, 41, -41, 89482311,
	1<<31 - 1, 2 * (1<<31 - 1), -(1<<31 - 1), 1 << 31, -(1 << 31),
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	1_000_003*96 + 1199, -1_000_003*7 + 3,
}

// TestRNGStreamMatchesMathRand drives an RNG and rand.New(
// rand.NewSource(seed)) through the same random interleaving of every
// RNG method, the batched noise draw included, and compares every
// result with ==. The runs draw several thousand values, so they cross
// many block refills, and reseed in the middle.
func TestRNGStreamMatchesMathRand(t *testing.T) {
	for si, seed := range streamSeeds {
		ops := rand.New(rand.NewSource(int64(si) + 100))
		for _, tier := range kernelTiers(t) {
			tier.use()
			g, ref := NewRNG(seed), rand.New(rand.NewSource(seed))
			for step := 0; step < 400; step++ {
				what := ops.Intn(13)
				fail := func(format string, args ...any) {
					t.Helper()
					t.Fatalf("seed %d, %s tier, step %d (op %d): %s", seed, tier.name, step, what, fmt.Sprintf(format, args...))
				}
				switch what {
				case 0:
					if a, b := g.Float32(), ref.Float32(); a != b {
						fail("Float32 %v, math/rand %v", a, b)
					}
				case 1:
					if a, b := g.Float64(), ref.Float64(); a != b {
						fail("Float64 %v, math/rand %v", a, b)
					}
				case 2:
					n := 1 + ops.Intn(1<<ops.Intn(40))
					if a, b := g.Intn(n), ref.Intn(n); a != b {
						fail("Intn(%d) %v, math/rand %v", n, a, b)
					}
				case 3:
					if a, b := g.Int63(), ref.Int63(); a != b {
						fail("Int63 %v, math/rand %v", a, b)
					}
				case 4:
					if a, b := g.NormFloat64(), ref.NormFloat64(); a != b {
						fail("NormFloat64 %v, math/rand %v", a, b)
					}
				case 5:
					if a, b := g.Uniform(-2, 3), -2+5*ref.Float64(); a != b {
						fail("Uniform %v, math/rand %v", a, b)
					}
				case 6:
					n := ops.Intn(50)
					a, b := g.Perm(n), ref.Perm(n)
					for i := range a {
						if a[i] != b[i] {
							fail("Perm(%d)[%d] %v, math/rand %v", n, i, a[i], b[i])
						}
					}
				case 7:
					n := ops.Intn(50)
					a, b := make([]int, n), make([]int, n)
					for i := range a {
						a[i], b[i] = i, i
					}
					g.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
					ref.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
					for i := range a {
						if a[i] != b[i] {
							fail("Shuffle(%d)[%d] %v, math/rand %v", n, i, a[i], b[i])
						}
					}
				case 8:
					x := New(1 + ops.Intn(700))
					g.FillUniform(x, -1, 2)
					for i, v := range x.Data {
						if w := -1 + 3*ref.Float32(); v != w {
							fail("FillUniform[%d] %v, math/rand %v", i, v, w)
						}
					}
				case 9:
					x := New(1 + ops.Intn(700))
					g.FillHe(x, 9)
					std := float32(math.Sqrt(2.0 / 9))
					for i, v := range x.Data {
						if w := 0 + std*float32(ref.NormFloat64()); v != w {
							fail("FillHe[%d] %v, math/rand %v", i, v, w)
						}
					}
				case 10, 11:
					pix := make([]float32, ops.Intn(2000))
					for i := range pix {
						pix[i] = ops.Float32()
					}
					want := append([]float32(nil), pix...)
					gain := [...]float32{1, 1.02, 0.97}[ops.Intn(3)]
					g.NoisePixels(pix, gain, 0.015)
					noiseRef(ref, want, gain, 0.015)
					if i := sameFloat32s(pix, want); i >= 0 {
						fail("NoisePixels(%d values, gain %v)[%d] %v, math/rand %v", len(pix), gain, i, pix[i], want[i])
					}
				case 12:
					s := ops.Int63() - ops.Int63()
					g.Seed(s)
					ref.Seed(s)
				}
			}
		}
	}
}

// noiseWord returns a generator word that NormFloat64 reads as j, with
// the bits it ignores (0–30 and 63) taken from fill.
func noiseWord(j int32, fill uint64) uint64 {
	return uint64(uint32(j))<<31 | fill&(1<<31-1) | fill&(1<<63)
}

// edgeWords are words at the ziggurat's edges: the layers whose
// rectangle bound kn[i] some j with j&0x7f == i reaches exactly (j =
// kn[117], and j = −kn[i] for i = 20, 65, 102), which the fast path
// must reject, and j one inside each, which it must accept; j = −2^31,
// whose absolute value math/rand takes as 2^31; base-strip words (i =
// 0) past kn[0], which take the tail; wedge words (i ≠ 0) past kn[i];
// j = ±0 and ±1; and layer 1, whose bound is 0.
func edgeWords(r *rand.Rand) []uint64 {
	js := []int32{int32(kn[117]), int32(kn[117]) - 128, math.MinInt32, 0, -1, 1, 1 | 0x40000000, 128 + 1}
	for _, i := range []int{20, 65, 102} {
		js = append(js, -int32(kn[i]), -int32(kn[i])+128)
	}
	for n := 0; n < 6; n++ {
		tail := (int32(kn[0]) + 128 + int32(r.Intn(int(math.MaxInt32-kn[0])-256))) &^ 0x7f
		js = append(js, tail, -tail)
		i := 1 + r.Intn(127)
		wedge := int32(kn[i]) + int32(r.Intn(int(math.MaxInt32-kn[i])-128))
		wedge += (int32(i) - wedge) & 0x7f
		js = append(js, wedge)
	}
	words := make([]uint64, len(js))
	for k, j := range js {
		words[k] = noiseWord(j, r.Uint64())
	}
	return words
}

// TestNoiseTiers holds every noise tier this machine has to the
// one-call-per-value oracle, bit for bit: 0 to 40 values at block
// offsets that make the draw cross a refill, over values that include
// ±0, 1, out-of-range values and NaN, with the next words of the block
// replaced by random stretches of edgeWords, so that the fast path
// meets every edge and the tail and wedge take their draws.
func TestNoiseTiers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	edges := edgeWords(r)
	specials := []float32{0, float32(math.Copysign(0, -1)), 1, 0.5, 1.5, -0.25, machineNaN, 1e-30}
	tiers := kernelTiers(t)
	cases := 0
	for n := 0; n <= 40; n++ {
		for _, pos := range []int{0, 5, rngLen - 24, rngLen - 7, rngLen} {
			for _, gain := range []float32{1, 1.03, 0.96} {
				base := NewRNG(int64(n*1000 + pos))
				base.src.pos = pos
				for k := pos; k < rngLen; k++ {
					if r.Intn(3) == 0 {
						base.src.buf[k] = edges[r.Intn(len(edges))]
					}
				}
				in := make([]float32, n)
				for i := range in {
					if r.Intn(4) == 0 {
						in[i] = specials[r.Intn(len(specials))]
					} else {
						in[i] = r.Float32()
					}
				}
				oracle := base.src
				want := append([]float32(nil), in...)
				noiseRef(rand.New(&oracle), want, gain, 0.4)
				for _, tier := range tiers {
					tier.use()
					g := &RNG{src: base.src}
					g.r = rand.New(&g.src)
					got := append([]float32(nil), in...)
					g.NoisePixels(got, gain, 0.4)
					if i := sameFloat32s(got, want); i >= 0 {
						t.Fatalf("%s tier, %d values from block offset %d, gain %v: [%d] = %v (%#08x) from %v, oracle %v (%#08x)",
							tier.name, n, pos, gain, i, got[i], math.Float32bits(got[i]), in[i], want[i], math.Float32bits(want[i]))
					}
					if g.src != oracle {
						t.Fatalf("%s tier, %d values from block offset %d: the generator ends at %d, the oracle at %d", tier.name, n, pos, g.src.pos, oracle.pos)
					}
					cases++
				}
			}
		}
	}
	t.Logf("rng tiers covered: %s (%d cases; this process runs %q)", tierNames(tiers), cases, Kernel())
}

// TestZigguratTablesMatchMathRand reads every layer's bound and width
// back from math/rand: for each layer i and a spread of j in it (on
// both sides of kn[i] and, where j can reach it, at it), math/rand's
// NormFloat64 takes the word at once (it draws no second one) exactly
// when noiseGo accepts it, and then returns float64(j)·float64(wn[i]).
func TestZigguratTablesMatchMathRand(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := int64(0); i < 128; i++ {
		var js []int64
		for _, a := range []int64{0, 256, int64(kn[i]) - 128, int64(kn[i]), int64(kn[i]) + 128, math.MaxInt32} {
			m := a &^ 0x7f
			js = append(js, m+i, -(m + (128-i)&0x7f))
		}
		for n := 0; n < 20; n++ {
			js = append(js, int64(int32(r.Uint32())&^0x7f|int32(i)))
		}
		for _, j := range js {
			if j < math.MinInt32 || j > math.MaxInt32 {
				continue
			}
			if j&0x7f != i {
				t.Fatalf("layer %d: probe j = %d is in layer %d", i, j, j&0x7f)
			}
			var src blockSource
			src.buf[0] = noiseWord(int32(j), r.Uint64())
			for k := 1; k < rngLen; k++ {
				src.buf[k] = r.Uint64()
			}
			oracle := src
			want := rand.New(&oracle).NormFloat64()
			fast := noiseGo(make([]float32, 1), src.buf[:1], 1, 1) == 1
			if once := oracle.pos == 1; once != fast {
				t.Fatalf("layer %d, j = %d: math/rand takes it at once: %v, noiseGo: %v", i, j, once, fast)
			}
			if got := float64(j) * float64(wn[i]); fast && got != want {
				t.Fatalf("layer %d, j = %d: the table gives %v, math/rand %v", i, j, got, want)
			}
		}
	}
}

// BenchmarkNoisePixels renders one benchmark-sized frame's noise (a
// 96×39 RGB frame, with brightness drift) on each tier: the generator
// reseeded for the frame, then every value's draw.
func BenchmarkNoisePixels(b *testing.B) {
	pix := make([]float32, 96*39*3)
	g := NewRNG(1)
	for _, tier := range kernelTiers(b) {
		b.Run(tier.name, func(b *testing.B) {
			tier.use()
			for i := 0; i < b.N; i++ {
				for k := range pix {
					pix[k] = 0.5
				}
				g.Seed(int64(i))
				g.NoisePixels(pix, 1.01, 0.015)
			}
		})
	}
}
