package tensor

import (
	"math"
	"strings"
	"testing"
)

// kernelTier is one microkernel tier GemmPanels can walk in this
// build (kernelTiers lists them per build); use() selects it.
type kernelTier struct {
	name string
	use  func()
}

// kern4x8Go is a copy of the portable microkernel
// (gemm_kernel_generic.go), which an amd64 build does not compile: the
// generic tier of the tests below, on every build.
func kern4x8Go(k int, ap, bp []float32, tile *[gemmMR][gemmNR]float32) {
	*tile = [gemmMR][gemmNR]float32{}
	for p := 0; p < k; p++ {
		for r := 0; r < gemmMR; r++ {
			a := ap[p*gemmMR+r]
			for j := 0; j < gemmNR; j++ {
				tile[r][j] += a * bp[p*gemmNR+j]
			}
		}
	}
}

// gemmPanelsGo is the raw (no epilogue) panel product on kern4x8Go:
// one 4×8 tile per (A panel, B panel), live rows and columns copied
// out.
func gemmPanelsGo(m, n, k int, ap, bp, c []float32) {
	var tile [gemmMR][gemmNR]float32
	for i0 := 0; i0 < m; i0 += gemmMR {
		for j0 := 0; j0 < n; j0 += gemmNR {
			kern4x8Go(k, ap[i0*k:(i0+gemmMR)*k], bp[j0*k:(j0+gemmNR)*k], &tile)
			for r := 0; r < gemmMR && i0+r < m; r++ {
				for j := 0; j < gemmNR && j0+j < n; j++ {
					c[(i0+r)*n+j0+j] = tile[r][j]
				}
			}
		}
	}
}

// machineNaN is the NaN this machine's arithmetic generates. The
// tables inject only this one: when two different NaNs meet, the
// survivor depends on operand order, which Go does not fix for the
// code it compiles (the assembly tiers do fix it, see
// TestKernelTiersKeepNaNPayloads).
var (
	inf32      = float32(math.Inf(1))
	machineNaN = inf32 - inf32
)

// sprinkle overwrites a few elements of v with the values a kernel may
// not treat like ordinary numbers: NaN, ±Inf, −0 and denormals.
func sprinkle(g *RNG, v []float32) {
	if len(v) == 0 {
		return
	}
	specials := []float32{
		machineNaN, inf32, -inf32, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	}
	for _, s := range specials {
		if g.Float64() < 0.5 {
			v[g.Intn(len(v))] = s
		}
	}
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestKernelTiersBitwiseEqual runs the three GEMM entry points on
// every microkernel tier this machine has and compares the outputs,
// as bit patterns, with the generic tier: every output element must
// accumulate over k in sequential multiply-then-add order whatever
// kernel computes it, or the golden digests of bench/ break. The row
// counts cover a single panel, an exact pair, a ragged pair and a pair
// plus a single (full and ragged); the column counts a lone tail
// column (the detector's conv3), full panels, and tails beside them;
// k = 0 has no panel to read. Each epilogue stage runs with and
// without the others.
func TestKernelTiersBitwiseEqual(t *testing.T) {
	g := NewRNG(14)
	ks := []int{0, 1, 3, 27, 288, 1440}
	ns := []int{1, 7, 8, 9, 16, 32, 40}
	const maxM = 25
	if testing.Short() {
		ks = []int{0, 1, 27, 288}
	}
	tiers := kernelTiers(t)
	for _, k := range ks {
		for _, n := range ns {
			b := randMat(g, k*n)
			sprinkle(g, b)
			bp := make([]float32, PackBSize(k, n))
			PackB(k, n, b, bp)
			bias, scale, shift := randMat(g, n), randMat(g, n), randMat(g, n)
			eps := []*Epilogue{
				nil,
				{Bias: bias},
				{Scale: scale, Shift: shift},
				{ReLU: true},
				{ReLU: true, Cap: 0.5},
				{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 6},
			}
			for m := 1; m <= maxM; m++ {
				a := randMat(g, m*k)
				sprinkle(g, a)
				ap := make([]float32, PackASize(m, k))
				packA(m, k, a, ap)
				// The lanes past m are never read back: poison them.
				for i := m; i < roundUp(m, gemmMR); i++ {
					for p := 0; p < k; p++ {
						ap[(i-i%gemmMR)*k+p*gemmMR+i%gemmMR] = machineNaN
					}
				}
				raw := make([]float32, m*n)
				gemmPanelsGo(m, n, k, ap, bp, raw)
				want, got := make([]float32, m*n), make([]float32, m*n)
				scratchA, scratchB := make([]float32, len(ap)), make([]float32, len(bp))
				for ei, ep := range eps {
					for i, v := range raw {
						want[i] = ep.applyOne(v, i%n)
					}
					for _, tier := range tiers {
						tier.use()
						for _, entry := range []struct {
							name string
							run  func()
						}{
							{"GemmPanels", func() { GemmPanels(m, n, k, ap, bp, got, ep) }},
							{"GemmPacked", func() { GemmPacked(m, n, k, a, bp, got, ep, scratchA) }},
							{"Gemm", func() { Gemm(m, n, k, a, b, got, ep, scratchA, scratchB) }},
						} {
							for i := range got {
								got[i] = -12345 // must be overwritten
							}
							entry.run()
							if i := sameBits(got, want); i >= 0 {
								t.Fatalf("%s on %s, m=%d n=%d k=%d ep#%d: [%d] %v (%#08x), generic tier %v (%#08x)",
									entry.name, tier.name, m, n, k, ei, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("GEMM tiers covered: %s (this process runs %q)", tierNames(tiers), Kernel())
}

// tierNames lists the generic tier, which the tests compute directly,
// and then the tiers they switched to.
func tierNames(tiers []kernelTier) string {
	names := []string{"generic"}
	for _, tier := range tiers {
		if tier.name != "generic" {
			names = append(names, tier.name)
		}
	}
	return strings.Join(names, " ")
}

// TestDepthwiseTiersBitwiseEqual runs DepthwiseSpan on every tier this
// machine has and compares the outputs, as bit patterns, with the
// generic tier (depthwiseGo over every channel). The channel counts are
// all vector tail, one four-lane vector, vectors and a tail, and whole
// eight-lane vectors; the pixel counts run the four-pixel blocks, the
// single pixels after them, or both; the taps number one to nine, read
// pixels one or two apart, and hold NaN, ±Inf, −0 and denormals in
// inputs and weights. Every epilogue of TestKernelTiersBitwiseEqual
// closes the span, and nothing past the span may be written.
func TestDepthwiseTiersBitwiseEqual(t *testing.T) {
	g := NewRNG(18)
	tiers := kernelTiers(t)
	const guard = 8
	for _, ic := range []int{1, 3, 4, 5, 8, 13, 16, 64} {
		bias, scale, shift := randMat(g, ic), randMat(g, ic), randMat(g, ic)
		eps := []*Epilogue{
			{},
			{Bias: bias},
			{Scale: scale, Shift: shift},
			{ReLU: true},
			{ReLU: true, Cap: 0.5},
			{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 6},
		}
		for ntaps := 1; ntaps <= 9; ntaps++ {
			for _, step := range []int{1, 2} {
				for _, npix := range []int{1, 4, 7} {
					xstride := step * ic
					taps := make([]Tap, ntaps)
					for i := range taps {
						x, w := randMat(g, (npix-1)*xstride+ic), randMat(g, ic)
						sprinkle(g, x)
						sprinkle(g, w)
						taps[i] = Tap{X: x, W: w}
					}
					want, got := make([]float32, npix*ic), make([]float32, npix*ic+guard)
					for ei, ep := range eps {
						depthwiseGo(want, npix, ic, xstride, 0, taps, ep)
						for _, tier := range tiers {
							tier.use()
							for i := range got {
								got[i] = -12345 // must be overwritten, and the guard kept
							}
							DepthwiseSpan(got[:npix*ic], npix, ic, xstride, taps, ep)
							if i := sameBits(got[:npix*ic], want); i >= 0 {
								t.Fatalf("%s, ic=%d taps=%d step=%d npix=%d ep#%d: [%d] %v (%#08x), generic tier %v (%#08x)",
									tier.name, ic, ntaps, step, npix, ei, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
							}
							for _, v := range got[npix*ic:] {
								if v != -12345 {
									t.Fatalf("%s, ic=%d taps=%d npix=%d: wrote past the span", tier.name, ic, ntaps, npix)
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("depthwise tiers covered: %s (this process runs %q)", tierNames(tiers), Kernel())
}

// BenchmarkGemmPanels times the panel product on the shapes that carry
// a many-microclassifier frame: the windowed head (24×1440×32), a
// localized microclassifier's pointwise convolution over its crop
// (6×128×32, a ragged pair), and a base-DNN pointwise layer.
func BenchmarkGemmPanels(b *testing.B) {
	for _, s := range []struct {
		name    string
		m, n, k int
	}{
		{"windowed-head-24x32x1440", 24, 32, 1440},
		{"localized-pw-6x32x128", 6, 32, 128},
		{"base-pw-84x64x32", 84, 64, 32},
		{"dense-1x32x576", 1, 32, 576},
	} {
		b.Run(s.name, func(b *testing.B) {
			g := NewRNG(15)
			ap, bp := randMat(g, PackASize(s.m, s.k)), randMat(g, PackBSize(s.k, s.n))
			c := make([]float32, s.m*s.n)
			ep := &Epilogue{Bias: randMat(g, s.n), ReLU: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmPanels(s.m, s.n, s.k, ap, bp, c, ep)
			}
			b.ReportMetric(float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAdd/s")
		})
	}
}
