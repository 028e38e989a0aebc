package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for weight initialization and
// synthetic data. Every method returns exactly what the same call on
// rand.New(rand.NewSource(seed)) returns, in any interleaving, so that
// every experiment in this repository is reproducible from a fixed
// seed; the generator underneath is math/rand's, refilled a block at a
// time (blockSource).
type RNG struct {
	src blockSource
	r   *rand.Rand // over src
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	g := &RNG{}
	g.src.Seed(seed)
	g.r = rand.New(&g.src)
	return g
}

// Seed restarts g on seed's stream: afterwards g draws what
// NewRNG(seed) would, without allocating.
func (g *RNG) Seed(seed int64) { g.src.Seed(seed) }

// Float32 returns a uniform value in [0,1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform value in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Uniform returns a sample in [lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }

// FillUniform fills t with samples from [lo, hi).
func (g *RNG) FillUniform(t *Tensor, lo, hi float32) {
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*g.r.Float32()
	}
}

// FillNormal fills t with Gaussian samples of the given mean and
// standard deviation.
func (g *RNG) FillNormal(t *Tensor, mean, std float32) {
	for i := range t.Data {
		t.Data[i] = mean + std*float32(g.r.NormFloat64())
	}
}

// FillHe applies He (Kaiming) initialization for a layer with the given
// fan-in: N(0, sqrt(2/fanIn)). This is the standard init for
// ReLU-activated convolutional and dense layers.
func (g *RNG) FillHe(t *Tensor, fanIn int) {
	if fanIn <= 0 {
		panic("tensor: FillHe needs positive fan-in")
	}
	std := float32(math.Sqrt(2.0 / float64(fanIn)))
	g.FillNormal(t, 0, std)
}

// NoisePixels is a camera sensor's exposure and noise over pix, one
// normal draw per value: each v becomes Clamp01(Clamp01(v·gain) +
// std·float32(g.NormFloat64())), and a gain of exactly 1 skips the
// first product and clamp. The draws are NormFloat64's, in order: the
// fast path of math/rand's ziggurat runs inline on the generator's
// block, sixteen values at a time on the AVX-512 tier, and a draw it
// rejects takes NormFloat64 itself.
func (g *RNG) NoisePixels(pix []float32, gain, std float32) {
	s := &g.src
	for len(pix) > 0 {
		if s.pos == rngLen {
			s.refill()
		}
		n := noiseFast(pix, s.buf[s.pos:], gain, std)
		s.pos += n
		pix = pix[n:]
		if len(pix) > 0 && s.pos < rngLen {
			// The word at s.pos failed the fast test: NormFloat64 draws
			// it again and takes math/rand's tail or wedge from there.
			pix[0] = noisePixel(pix[0], gain, std, g.r.NormFloat64())
			pix = pix[1:]
		}
	}
}

// noisePixel is NoisePixels on one value with the normal draw n.
func noisePixel(v, gain, std float32, n float64) float32 {
	if gain != 1 {
		v = Clamp01(v * gain)
	}
	return Clamp01(v + std*float32(n))
}

// Clamp01 clamps v to [0,1], comparing in this order: v < 0, then
// v > 1. So below 0 gives +0, above 1 gives 1, and everything else,
// −0 and NaN included, stays as it is.
func Clamp01(v float32) float32 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// noiseGo is the generic tier of NoisePixels' fast path: it takes one
// word of words per value of pix, as NormFloat64 takes it (j is bits
// 31–62 of the word, math/rand's Uint32), and stops at the first word
// the ziggurat's rectangle test rejects or at the end of either slice.
// It returns how many values it wrote, which is how many words it took.
func noiseGo(pix []float32, words []uint64, gain, std float32) int {
	n := min(len(pix), len(words))
	for k := 0; k < n; k++ {
		j := int32(words[k] >> 31)
		i := j & 0x7f
		a := uint32(j)
		if j < 0 {
			a = uint32(-j)
		}
		if a >= kn[i] {
			return k
		}
		pix[k] = noisePixel(pix[k], gain, std, float64(j)*float64(wn[i]))
	}
	return n
}

// math/rand's additive lagged-Fibonacci generator (rng.go in the
// standard library): x_n = x_{n−607} + x_{n−273} mod 2^64.
const (
	rngLen = 607
	rngTap = 273
)

// blockSource is math/rand's generator with its register laid out as
// the last rngLen values in order and refilled rngLen values at a time.
// Its stream is rand.NewSource(seed)'s from the first value on. It
// implements rand.Source64 for the methods of RNG that run through
// rand.Rand.
type blockSource struct {
	buf [rngLen]uint64 // buf[pos:] are the next values
	pos int
}

// Seed implements rand.Source: it does what math/rand's
// rngSource.Seed does, then draws the first rngLen values. rngSource
// fills register element k with the (21+3k)th to (23+3k)th values of
// the Lehmer generator x ← 48271·x mod (2^31−1) started at the seed,
// XORed with a fixed table (rngCooked, recovered into seedCooked).
// Here every Lehmer value is one product with a precomputed power of
// 48271 (seedPow), so the products are independent rather than a
// chain. The register, reversed and rotated, is the block before the
// first, so one refill draws the first rngLen values.
func (s *blockSource) Seed(seed int64) {
	const int32max = 1<<31 - 1
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	lehmer := func(n int) uint64 {
		t := uint64(seedPow[n]) * x0
		t = t&int32max + t>>31
		t = t&int32max + t>>31
		if t >= int32max {
			t -= int32max
		}
		return t
	}
	for k := 0; k < rngLen; k++ {
		n := 21 + 3*k
		v := lehmer(n)<<40 ^ lehmer(n+1)<<20 ^ lehmer(n+2) ^ seedCooked[k]
		s.buf[(rngLen+rngLen-rngTap-1-k)%rngLen] = v
	}
	s.refill()
}

// seedPow[n] is 48271^n mod (2^31−1), and seedCooked is math/rand's
// rngCooked table, recovered from the first rngLen values of
// rand.NewSource(1) by undoing one refill and the seeding's Lehmer
// values.
var seedPow, seedCooked = seedTables()

func seedTables() (pow *[21 + 3*rngLen]uint32, cooked *[rngLen]uint64) {
	pow = new([21 + 3*rngLen]uint32)
	pow[0] = 1
	for n := 1; n < len(pow); n++ {
		pow[n] = uint32(uint64(pow[n-1]) * 48271 % (1<<31 - 1))
	}
	var b [rngLen]uint64
	src := rand.NewSource(1).(rand.Source64)
	for i := range b {
		b[i] = src.Uint64()
	}
	for i := rngLen - 1; i >= rngTap; i-- {
		b[i] -= b[i-rngTap]
	}
	for i := rngTap - 1; i >= 0; i-- {
		b[i] -= b[i+rngLen-rngTap]
	}
	cooked = new([rngLen]uint64)
	for k := range cooked {
		n := 21 + 3*k
		cooked[k] = b[(rngLen+rngLen-rngTap-1-k)%rngLen] ^ uint64(pow[n])<<40 ^ uint64(pow[n+1])<<20 ^ uint64(pow[n+2])
	}
	return pow, cooked
}

// refill replaces buf, which holds x_m … x_{m+606}, by the next rngLen
// values x_{m+607} … x_{m+1213}, in place: x_{m+607+i} = x_{m+i} +
// x_{m+334+i}, where the second term is an old value for i < 273 and
// one written in this refill after that.
func (s *blockSource) refill() {
	b := &s.buf
	lo, hi := b[:rngTap], b[rngLen-rngTap:]
	for i := range lo {
		lo[i] += hi[i]
	}
	lo, hi = b[:rngLen-rngTap], b[rngTap:]
	for i := range hi {
		hi[i] += lo[i]
	}
	s.pos = 0
}

// Uint64 implements rand.Source64.
func (s *blockSource) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// Int63 implements rand.Source.
func (s *blockSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
