package tensor

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// kernelTier is one microkernel tier GemmInPlace can walk in this
// build (kernelTiers lists them per build); use() selects it.
type kernelTier struct {
	name string
	use  func()
}

// rowBase is the base of row r of a, from the ARows definition and
// nothing the GEMM itself uses.
func rowBase(a *ARows, r int) int {
	r += a.First
	return r/(a.Width*a.Height)*a.ImageStep + r/a.Width%a.Height*a.LineStep + r%a.Width*a.Step
}

// gemmScalar is the oracle every GEMM route is pinned to: for each
// output element, the k products of its A row, gathered segment by
// segment from where the row lies, and its B column (b row-major k×n),
// summed from +0 in ascending order with each product rounded before
// its add, then the epilogue in applyOne order. It shares no kernel,
// tile walk or packing with the code under test.
func gemmScalar(m, n int, a *ARows, b []float32, ep *Epilogue) []float32 {
	c := make([]float32, m*n)
	row := make([]float32, 0, a.Segs*a.Len)
	for i := 0; i < m; i++ {
		row = row[:0]
		for s := 0; s < a.Segs; s++ {
			o := rowBase(a, i) + s*a.Pitch
			row = append(row, a.Data[o:o+a.Len]...)
		}
		for j := 0; j < n; j++ {
			var s float32
			for p, x := range row {
				s += float32(x * b[p*n+j])
			}
			c[i*n+j] = ep.applyOne(s, j)
		}
	}
	return c
}

// machineNaN is the NaN this machine's arithmetic generates. The
// tables inject only this one: when two different NaNs meet, the
// survivor depends on operand order, which Go does not fix for the
// code it compiles, the scalar oracle's included (the assembly tiers do
// fix it, see TestKernelTiersKeepNaNPayloads).
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

// stridedRows lays out an m-row operand of depth k the way a
// convolution's receptive fields lie in its input — segs segments per
// row (k = segs·len), consecutive rows overlapping, lines and images
// that do not follow on evenly (a tile of four or eight rows wraps
// one), a first row past the start — over Data that is machineNaN
// wherever no row reads, so a kernel that strays returns NaN. The rows
// hold random values with specials sprinkled in.
func stridedRows(g *RNG, m, k, segs int) *ARows {
	l := k / segs
	a := &ARows{Segs: segs, Len: l, Pitch: l + 3, Width: 5, Height: 2, Step: max(l/2, 1), First: 3}
	a.LineStep = a.Width*a.Step + 7
	a.ImageStep = a.Height*a.LineStep + 11
	a.Data = make([]float32, rowBase(a, m-1)+(segs-1)*a.Pitch+l+2)
	for i := range a.Data {
		a.Data[i] = machineNaN
	}
	for i := 0; i < m; i++ {
		for s := 0; s < segs; s++ {
			o := rowBase(a, i) + s*a.Pitch
			for p := o; p < o+l; p++ {
				a.Data[p] = float32(g.NormFloat64())
			}
		}
	}
	for i := 0; i < m; i++ {
		sprinkle(g, a.Data[rowBase(a, i):rowBase(a, i)+l])
	}
	return a
}

// TestKernelTiersBitwiseEqual runs the GEMM entry points on every
// microkernel tier this machine has and compares the outputs, as bit
// patterns, with the scalar oracle (gemmScalar): every output element
// must accumulate over k in sequential multiply-then-add order whatever
// kernel computes it, or the golden digests of bench/ break. The row
// counts run from a single row through several tiles, full and ragged,
// on both tile heights; the column counts a lone tail column (the
// detector's conv3), full panels, and tails beside them; k = 0 has
// nothing to read. GemmInPlace reads both a row-major matrix and rows
// of one and of three segments laid out like a convolution's receptive
// fields, whose tiles wrap lines and images. Each epilogue stage runs
// with and without the others.
func TestKernelTiersBitwiseEqual(t *testing.T) {
	g := NewRNG(14)
	ks := []int{0, 1, 3, 27, 288, 1440}
	ns := []int{1, 7, 8, 9, 16, 32, 40}
	const maxM = 25
	if testing.Short() {
		ks = []int{0, 1, 27, 288}
	}
	// On the AVX-512 tier the column walk takes two panels at a time
	// while both lie inside the packed width, then a single one. The
	// column counts must reach every case of that walk.
	for _, c := range []struct {
		walk string
		hit  func(n int) bool
	}{
		{"a full pair", func(n int) bool { return n >= 2*gemmNR }},
		{"a pair whose second panel is padded", func(n int) bool { return n%(2*gemmNR) > gemmNR }},
		{"a pair, then a single panel", func(n int) bool { return n > 2*gemmNR && roundUp(n, gemmNR)%(2*gemmNR) != 0 }},
	} {
		if !slices.ContainsFunc(ns, c.hit) {
			t.Fatalf("no column count in %v walks %s", ns, c.walk)
		}
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
				matrix := Matrix(a, k)
				layouts := []*ARows{&matrix}
				if k > 0 {
					layouts = append(layouts, stridedRows(g, m, k, 1))
				}
				if k > 0 && k%3 == 0 {
					layouts = append(layouts, stridedRows(g, m, k, 3))
				}
				got := make([]float32, m*n)
				scratchB := make([]float32, len(bp))
				for ei, ep := range eps {
					wants := make([][]float32, len(layouts))
					for li, rows := range layouts {
						wants[li] = gemmScalar(m, n, rows, b, ep)
					}
					for _, tier := range tiers {
						tier.use()
						type entry struct {
							name string
							want []float32
							run  func()
						}
						entries := []entry{
							{"GemmPacked", wants[0], func() { GemmPacked(m, n, k, a, bp, got, ep, nil) }},
							{"Gemm", wants[0], func() { Gemm(m, n, k, a, b, got, ep, nil, scratchB) }},
						}
						for li, rows := range layouts {
							entries = append(entries, entry{fmt.Sprintf("GemmInPlace/%d-segment layout %d", rows.Segs, li), wants[li],
								func() { GemmInPlace(m, n, rows, bp, got, ep) }})
						}
						for _, e := range entries {
							for i := range got {
								got[i] = -12345 // must be overwritten
							}
							e.run()
							if i := sameBits(got, e.want); i >= 0 {
								t.Fatalf("%s on %s, m=%d n=%d k=%d ep#%d: [%d] %v (%#08x), scalar oracle %v (%#08x)",
									e.name, tier.name, m, n, k, ei, i, got[i], math.Float32bits(got[i]), e.want[i], math.Float32bits(e.want[i]))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("GEMM tiers covered: %s (this process runs %q)", tierNames(tiers), Kernel())
}

// tierNames lists the tiers a test switched to.
func tierNames(tiers []kernelTier) string {
	names := make([]string, len(tiers))
	for i, tier := range tiers {
		names[i] = tier.name
	}
	return strings.Join(names, " ")
}

// depthwiseTaps lays out ntaps taps of a span of npix pixels, ic
// channels and input stride xstride in one input and one weight array,
// in reverse order and a few floats apart, with random values and NaN,
// ±Inf, −0 and denormals sprinkled in.
func depthwiseTaps(g *RNG, ntaps, npix, ic, xstride int) (x, w []float32, taps []Tap) {
	span := (npix-1)*xstride + ic
	x, w = randMat(g, ntaps*(span+3)), randMat(g, ntaps*(ic+5))
	sprinkle(g, x)
	sprinkle(g, w)
	taps = make([]Tap, ntaps)
	for i := range taps {
		at := ntaps - 1 - i
		taps[i] = Tap{X: at * (span + 3), W: at * (ic + 5)}
	}
	return x, w, taps
}

// TestDepthwiseTiersBitwiseEqual runs DepthwiseSpans on every tier this
// machine has and compares the outputs, as bit patterns, with the
// generic tier (depthwiseGo over every channel): first on one span at
// a time, then on rows of several spans. The channel counts are
// all vector tail (1, 3, 4, 5), vectors and a tail, whole eight-lane
// vectors, and sixteen-lane blocks beside an eight-lane
// block and a tail (24, 29, 40, 136: on AVX-512 one to eight blocks of
// sixteen, then a block of eight); the pixel counts reach every pixel
// block the kernels walk — eight pixels, four, single ones, their
// mixes, and a last eight backed up over four pixels (12) or one (15)
// already stored; the taps number none to nine, read pixels one or two apart,
// lie in reverse order in their arrays, and hold NaN, ±Inf, −0 and
// denormals in inputs and weights. Every epilogue of
// TestKernelTiersBitwiseEqual closes the span, and nothing past the
// span may be written.
func TestDepthwiseTiersBitwiseEqual(t *testing.T) {
	g := NewRNG(18)
	tiers := kernelTiers(t)
	const guard = 8
	for _, ic := range []int{1, 3, 4, 5, 8, 13, 16, 64, 24, 29, 40, 136} {
		bias, scale, shift := randMat(g, ic), randMat(g, ic), randMat(g, ic)
		eps := []*Epilogue{
			{},
			{Bias: bias},
			{Scale: scale, Shift: shift},
			{ReLU: true},
			{ReLU: true, Cap: 0.5},
			{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 6},
		}
		for ntaps := 0; ntaps <= 9; ntaps++ {
			for _, step := range []int{1, 2} {
				for _, npix := range []int{1, 4, 7, 8, 9, 12, 15, 17} {
					xstride := step * ic
					x, w, taps := depthwiseTaps(g, ntaps, npix, ic, xstride)
					want, got := make([]float32, npix*ic), make([]float32, npix*ic+guard)
					for ei, ep := range eps {
						depthwiseGo(want, npix, ic, xstride, 0, x, w, taps, ep)
						for _, tier := range tiers {
							tier.use()
							for i := range got {
								got[i] = -12345 // must be overwritten, and the guard kept
							}
							DepthwiseSpans(got[:npix*ic], ic, xstride, x, w, []Span{{Npix: npix, Taps: taps}}, ep)
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
	depthwiseRowsBitwiseEqual(t, g, tiers)
	t.Logf("depthwise tiers covered: %s (this process runs %q)", tierNames(tiers), Kernel())
}

// depthwiseRowsBitwiseEqual runs rows of spans the way a convolution
// lays them out — a border pixel, an interior run, more border pixels —
// each span with its own taps (some with none, and an empty span), in
// one DepthwiseSpans call per row, against depthwiseGo span by span.
func depthwiseRowsBitwiseEqual(t *testing.T, g *RNG, tiers []kernelTier) {
	const guard = 8
	for _, ic := range []int{5, 8, 24, 40, 136} {
		ep := &Epilogue{Bias: randMat(g, ic), Scale: randMat(g, ic), Shift: randMat(g, ic), ReLU: true, Cap: 6}
		for _, runs := range [][]int{{1, 22, 1}, {9, 1}, {1, 4, 0, 1, 1}, {3, 15, 2}} {
			const xstride = 2 // pixels apart, in units of ic
			npix := 0
			for _, n := range runs {
				npix += n
			}
			x, w := randMat(g, (npix*xstride+12)*ic), randMat(g, 12*ic)
			sprinkle(g, x)
			sprinkle(g, w)
			var spans []Span
			out := 0
			for i, n := range runs {
				taps := make([]Tap, (i*5+3)%9) // 3, 8, 4, 0, 5 taps
				for j := range taps {
					taps[j] = Tap{X: (out*xstride + (j*7)%12) * ic, W: ((j*5 + i) % 12) * ic}
				}
				spans = append(spans, Span{Out: out, Npix: n, Taps: taps})
				out += n
			}
			want, got := make([]float32, npix*ic), make([]float32, npix*ic+guard)
			for _, sp := range spans {
				depthwiseGo(want[sp.Out*ic:], sp.Npix, ic, xstride*ic, 0, x, w, sp.Taps, ep)
			}
			for _, tier := range tiers {
				tier.use()
				for i := range got {
					got[i] = -12345
				}
				DepthwiseSpans(got[:npix*ic], ic, xstride*ic, x, w, spans, ep)
				if i := sameBits(got[:npix*ic], want); i >= 0 {
					t.Fatalf("%s, ic=%d row %v: [%d] %v (%#08x), generic tier %v (%#08x)",
						tier.name, ic, runs, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
				for _, v := range got[npix*ic:] {
					if v != -12345 {
						t.Fatalf("%s, ic=%d row %v: wrote past the row", tier.name, ic, runs)
					}
				}
			}
		}
	}
}

// TestDepthwiseSpansChecks: a span past the end of dst, or a tap that
// reads past the input or the weights for any pixel or channel of its
// span, panics before a kernel runs, and a negative offset does too.
func TestDepthwiseSpansChecks(t *testing.T) {
	const npix, ic, xstride = 3, 16, 32
	x, w := make([]float32, (npix-1)*xstride+ic+4), make([]float32, 2*ic)
	dst := make([]float32, npix*ic)
	ep := &Epilogue{}
	DepthwiseSpans(dst, ic, xstride, x, w, []Span{{Npix: npix, Taps: []Tap{{X: 4, W: ic}}}}, ep)
	for _, bad := range []Span{
		{Npix: npix, Taps: []Tap{{X: 0, W: 0}, {X: 5, W: 0}}},
		{Npix: npix, Taps: []Tap{{X: 0, W: 0}, {X: 0, W: ic + 1}}},
		{Npix: npix, Taps: []Tap{{X: 0, W: 0}, {X: -1, W: 0}}},
		{Npix: npix, Taps: []Tap{{X: 0, W: 0}, {X: 0, W: -1}}},
		{Out: 1, Npix: npix},
		{Out: -1, Npix: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("span %+v outside dst[%d], x[%d], w[%d]: no panic", bad, len(dst), len(x), len(w))
				}
			}()
			DepthwiseSpans(dst, ic, xstride, x, w, []Span{{Npix: 1}, bad}, ep)
		}()
	}
}

// TestKernelsDoNotAllocate: GemmInPlace with every epilogue step on
// (bias, scale/shift, ReLU with a cap) and DepthwiseSpans allocate
// nothing on any tier. Each call takes an Epilogue built on the
// caller's stack, as nn's layers build theirs, so a tier whose
// kernel setup made the caller's epilogue escape would allocate it
// here on every call.
func TestKernelsDoNotAllocate(t *testing.T) {
	g := NewRNG(20)
	const m, n, k = 13, 17, 40
	rows := Matrix(randMat(g, m*k), k)
	bp := randMat(g, PackBSize(k, n))
	c := make([]float32, m*n)
	bias, scale, shift := randMat(g, n), randMat(g, n), randMat(g, n)
	const npix, ic = 9, 40
	x, w, taps := depthwiseTaps(g, 9, npix, ic, ic)
	spans := []Span{{Npix: npix, Taps: taps}}
	dst := make([]float32, npix*ic)
	dwBias, dwScale, dwShift := randMat(g, ic), randMat(g, ic), randMat(g, ic)
	tiers := kernelTiers(t)
	for _, tier := range tiers {
		tier.use()
		if allocs := testing.AllocsPerRun(20, func() {
			ep := Epilogue{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 6}
			GemmInPlace(m, n, &rows, bp, c, &ep)
		}); allocs != 0 {
			t.Errorf("GemmInPlace on %s: %v allocs per call, want 0", tier.name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			ep := Epilogue{Bias: dwBias, Scale: dwScale, Shift: dwShift, ReLU: true, Cap: 6}
			DepthwiseSpans(dst, ic, ic, x, w, spans, &ep)
		}); allocs != 0 {
			t.Errorf("DepthwiseSpans on %s: %v allocs per call, want 0", tier.name, allocs)
		}
	}
	t.Logf("allocation tiers covered: %s", tierNames(tiers))
}

// BenchmarkGemmInPlace times the GEMM on the row-major shapes that
// carry a many-microclassifier frame, on every tier this machine has
// (one sub-benchmark per shape and tier, e.g.
// windowed-head-24x32x1440/avx512): the windowed head (24×1440×32), a
// localized microclassifier's pointwise convolution over its crop
// (6×128×32, one ragged tile), a base-DNN pointwise layer and a batch-1
// dense layer. internal/nn's BenchmarkConv times whole layers,
// receptive fields and halo included, on the tier the process runs.
func BenchmarkGemmInPlace(b *testing.B) {
	tiers := kernelTiers(b)
	for _, s := range []struct {
		name    string
		m, n, k int
	}{
		{"windowed-head-24x32x1440", 24, 32, 1440},
		{"localized-pw-6x32x128", 6, 32, 128},
		{"base-pw-84x64x32", 84, 64, 32},
		{"dense-1x32x576", 1, 32, 576},
	} {
		g := NewRNG(15)
		a, bp := Matrix(randMat(g, s.m*s.k), s.k), randMat(g, PackBSize(s.k, s.n))
		c := make([]float32, s.m*s.n)
		ep := &Epilogue{Bias: randMat(g, s.n), ReLU: true}
		for _, tier := range tiers {
			b.Run(s.name+"/"+tier.name, func(b *testing.B) {
				tier.use()
				for i := 0; i < b.N; i++ {
					GemmInPlace(s.m, s.n, &a, bp, c, ep)
				}
				b.ReportMetric(float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAdd/s")
			})
		}
	}
}

// BenchmarkDepthwiseSpan times DepthwiseSpans on the spans of a
// base-DNN frame (96×54 input, width multiplier 0.25), on every tier
// this machine has (one sub-benchmark per span and tier, e.g.
// conv2_1-interior-46px-ic8/avx512): each depthwise layer's interior
// span, nine taps over pixels stride·ic apart, and a one-pixel border
// span with the six taps a left-edge pixel keeps, 8 to 128 channels,
// with batch-norm and ReLU closing each, one span per call. The taps
// lie as a 3×3 kernel's do over an input row, as internal/nn lays them
// out. internal/nn's BenchmarkDepthwise times whole layers, a row per
// call.
func BenchmarkDepthwiseSpan(b *testing.B) {
	tiers := kernelTiers(b)
	for _, s := range []struct {
		name                 string
		npix, ic, stride, kx int // kx: the first kernel column the span reads
	}{
		{"conv2_1-interior", 46, 8, 1, 0},
		{"conv2_1-border", 1, 8, 1, 1},
		{"conv2_2-interior", 23, 16, 2, 0},
		{"conv3_1-interior", 22, 32, 1, 0},
		{"conv3_1-border", 1, 32, 1, 1},
		{"conv4_1-interior", 10, 64, 1, 0},
		{"conv4_1-border", 1, 64, 1, 1},
		{"conv5-interior", 4, 128, 1, 0},
		{"conv5-border", 1, 128, 1, 1},
	} {
		const k = 3
		g := NewRNG(19)
		width := (s.npix-1)*s.stride + k // input pixels per line
		x, w := randMat(g, k*width*s.ic), randMat(g, k*k*s.ic)
		var taps []Tap
		for ky := 0; ky < k; ky++ {
			for kx := s.kx; kx < k; kx++ {
				taps = append(taps, Tap{X: (ky*width + kx - s.kx) * s.ic, W: (ky*k + kx) * s.ic})
			}
		}
		ep := &Epilogue{Bias: randMat(g, s.ic), Scale: randMat(g, s.ic), Shift: randMat(g, s.ic), ReLU: true}
		dst := make([]float32, s.npix*s.ic)
		spans := []Span{{Npix: s.npix, Taps: taps}}
		for _, tier := range tiers {
			b.Run(fmt.Sprintf("%s-%dpx-ic%d/%s", s.name, s.npix, s.ic, tier.name), func(b *testing.B) {
				tier.use()
				for i := 0; i < b.N; i++ {
					DepthwiseSpans(dst, s.ic, s.stride*s.ic, x, w, spans, ep)
				}
				b.ReportMetric(float64(s.npix*s.ic*len(taps))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAdd/s")
			})
		}
	}
}
