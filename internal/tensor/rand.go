package tensor

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source for weight initialization and
// synthetic data. It wraps math/rand so that every experiment in this
// repository is reproducible from a fixed seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

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
