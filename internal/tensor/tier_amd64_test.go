//go:build amd64 && !purego

package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// kernelTiers lists the tiers this machine can run, generic first;
// use() makes GemmInPlace, the epilogue, the depthwise span and
// NoisePixels' fast path run that tier until the test or benchmark ends.
func kernelTiers(tb testing.TB) []kernelTier {
	detected := cpuTier
	tb.Cleanup(func() { cpuTier = detected })
	var tiers []kernelTier
	for t := tierGeneric; t <= detectTier(); t++ {
		tiers = append(tiers, kernelTier{t.String(), func() { cpuTier = t }})
	}
	return tiers
}

// TestKernelDispatch checks that the CPUID probe is what selected the
// tier at package initialization, that the probe agrees with the
// operating system's view of the CPU (avx2 and avx512f in
// /proc/cpuinfo), and that each tier is what GemmInPlace, the epilogue
// and the depthwise span walk: its own Kernel() name, tile and lanes.
func TestKernelDispatch(t *testing.T) {
	have := detectTier()
	if cpuTier != have {
		t.Fatalf("tier %v at start-up, CPUID probe says %v", cpuTier, have)
	}
	if Kernel() != have.String() {
		t.Fatalf("Kernel() = %q, want %q", Kernel(), have.String())
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
				for _, f := range []struct {
					flag  string
					probe bool
				}{{"avx2", have >= tierAVX2}, {"avx512f", have == tierAVX512}} {
					if listed := strings.Contains(" "+flags+" ", " "+f.flag+" "); listed != f.probe {
						t.Fatalf("/proc/cpuinfo lists %s: %v, CPUID probe says %v", f.flag, listed, f.probe)
					}
				}
				break
			}
		}
	}
	t.Logf("dispatch: CPUID probe selects %q", Kernel())

	want := []struct {
		name             string
		rows, cols, lane int
	}{
		{"generic", gemmMR, gemmNR, 0},
		{"avx2", tileMax, gemmNR, 8},
		{"avx512", tileMax, 2 * gemmNR, 16},
	}
	tiers := kernelTiers(t)
	for i, tier := range tiers {
		tier.use()
		w := want[i]
		if tier.name != w.name || Kernel() != w.name || tileRows() != w.rows || tileCols() != w.cols || lanes() != w.lane {
			t.Fatalf("tier %q: Kernel() = %q, %d×%d tiles, %d lanes; want %q, %d×%d, %d",
				tier.name, Kernel(), tileRows(), tileCols(), lanes(), w.name, w.rows, w.cols, w.lane)
		}
	}
}

// nanPayloadDigests are SHA-256 digests of the bits of
// TestKernelTiersKeepNaNPayloads' outputs, each float32 little-endian
// in order, as the four-lane SSE kernels that the assembly tiers
// started from computed them. They fix the operand order every
// assembly tier keeps.
var nanPayloadDigests = map[string]string{
	"gemm 13×16":      "6bda94d213c7619caa776bcfcb040c4695a48bb006b7a68db5eb3e5a308756f0",
	"depthwise 16×7":  "fe0ecad3175dbdb48bdf02d3eee37ea4cddb6cf6d0ab8fc342729b73b4c91a2f",
	"depthwise 24×9":  "175dec4d33bab05cf3625fb90426c718cecf5aeb014802257821eec3e65d0a31",
	"depthwise 136×5": "d62b6f3a83f2eeb277e8f87e6ee163350fc2f7b6bf2c2bc36362f8863d899456",
}

// bitsDigest is the SHA-256 of v's bits, each float32 little-endian.
func bitsDigest(v []float32) string {
	b := make([]byte, 0, 4*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKernelTiersKeepNaNPayloads holds the assembly tiers to more than
// the generic tier can be held to: with several different NaNs in the
// operands, which one survives a product or a sum depends on operand
// order, and every assembly tier must give the bits in
// nanPayloadDigests. The 13×17 GEMM runs, on the AVX-512 tier, a full
// pair of panels, a ragged pair and single panels after them.
func TestKernelTiersKeepNaNPayloads(t *testing.T) {
	var tiers []kernelTier
	for _, tier := range kernelTiers(t) {
		if tier.name != "generic" {
			tiers = append(tiers, tier)
		}
	}
	if len(tiers) == 0 {
		t.Skip("no assembly tier on this machine")
	}
	g := NewRNG(17)
	const m, n, k = 13, 17, 40
	a, b := randMat(g, m*k), randMat(g, k*n)
	for i, payload := range []uint32{0x7fc00001, 0xffc00002, 0x7fc12345, 0x7fa00000, 0xffc00000} {
		a[(i*53)%len(a)] = math.Float32frombits(payload)
		b[(i*71)%len(b)] = math.Float32frombits(payload ^ 0x100)
		a[(i*31+7)%len(a)] = inf32
		b[(i*29+3)%len(b)] = 0
	}
	bp := make([]float32, PackBSize(k, n))
	PackB(k, n, b, bp)
	// A row with a NaN in a is NaN in every column, so these NaNs in the
	// epilogue meet NaN values of another payload.
	ep := &Epilogue{Bias: randMat(g, n), Scale: randMat(g, n), Shift: randMat(g, n), ReLU: true, Cap: 6}
	ep.Bias[2] = math.Float32frombits(0x7fc0b1a5)
	ep.Scale[5] = math.Float32frombits(0xffc05ca1)
	ep.Shift[6] = math.Float32frombits(0x7fc05f17)
	// The kernels apply the epilogue to full tiles and to the ragged
	// rows 8..12 alike; column 16 is the ragged-column tile, which takes
	// it in Go and stays out of the digest. Column 3 (NaN in b) meets a
	// NaN bias; column 10 meets NaNs of three payloads in bias, scale
	// and shift (so does 16, outside the digest); −0 in bias,
	// scale and shift turns values into ±0 ahead of the ReLU's MAX.
	negZero := float32(math.Copysign(0, -1))
	ep.Bias[3] = math.Float32frombits(0xffc0b1a6)
	for _, j := range []int{10, 16} {
		ep.Bias[j] = math.Float32frombits(0x7fc0dea0 + uint32(j))
		ep.Scale[j] = math.Float32frombits(0xffc0dea1 + uint32(j))
		ep.Shift[j] = math.Float32frombits(0x7fc0dea2 + uint32(j))
	}
	ep.Bias[11], ep.Scale[12], ep.Shift[12] = negZero, negZero, negZero
	ep.Scale[15], ep.Shift[15] = negZero, negZero
	check := func(name string, run func() []float32) {
		want, ok := nanPayloadDigests[name]
		if !ok {
			t.Fatalf("%s: no digest recorded", name)
		}
		for _, tier := range tiers {
			tier.use()
			out := run()
			size := len(out)
			nans := 0
			for _, v := range out {
				if v != v {
					nans++
				}
			}
			if nans == 0 || nans == size {
				t.Fatalf("%s on %s: %d of %d outputs are NaN: the table exercises nothing", name, tier.name, nans, size)
			}
			if got := bitsDigest(out); got != want {
				t.Fatalf("%s on %s: bits digest %s, want %s", name, tier.name, got, want)
			}
		}
	}
	// The digest covers columns 0..15 alone: column 16 is the
	// ragged-column tile, whose epilogue runs in Go, and Go fixes no
	// operand order (a -race build picks another NaN there).
	check("gemm 13×16", func() []float32 {
		c := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, c, ep, nil)
		var kernel []float32
		for r := 0; r < m; r++ {
			kernel = append(kernel, c[r*n:r*n+2*gemmNR]...)
		}
		return kernel
	})

	// The depthwise span: NaNs of different payloads in the inputs, the
	// weights and the bias meet in its products and sums. Tap t's weight
	// for channel t is a NaN, and so is its input there at every pixel
	// (every pixel block the kernels walk), so each product in those
	// lanes has two NaN operands; the bias of channel 9 is a NaN that the
	// NaN products of that lane are added to, the NaN sums of channels 0
	// and 1 meet a NaN scale and shift, and tap 2's zero weight meets an
	// infinite input. The spans past the first repeat the pattern in
	// their last eight channels — on AVX-512 the eight-lane block beside
	// the sixteen-lane ones — and walk eight-pixel blocks (24×9) and two
	// blocks of channels against four pixels and eight against one
	// (136×5).
	for _, sp := range []struct{ ic, npix int }{{16, 7}, {24, 9}, {136, 5}} {
		const ntaps = 9
		ic, npix := sp.ic, sp.npix
		x, w := make([]float32, 0, ntaps*npix*ic), make([]float32, 0, ntaps*ic)
		taps := make([]Tap, ntaps)
		for t := range taps {
			taps[t] = Tap{X: len(x), W: len(w)}
			x, w = append(x, randMat(g, npix*ic)...), append(w, randMat(g, ic)...)
			chans := []int{t}
			if ic > 16 {
				chans = append(chans, ic-8+t%8)
			}
			for _, c := range chans {
				w[taps[t].W+c] = math.Float32frombits(0x7fc00100 + uint32(t))
				for p := 0; p < npix; p++ {
					x[taps[t].X+p*ic+c] = math.Float32frombits(0xffc00200 + uint32(16*p+t))
				}
			}
			for p := 0; p < npix; p++ {
				x[taps[t].X+p*ic+9] = math.Float32frombits(0x7fc00300 + uint32(16*p+t))
			}
		}
		w[taps[2].W+11], x[taps[2].X+3*ic+11] = 0, inf32
		dwEp := &Epilogue{Bias: randMat(g, ic), Scale: randMat(g, ic), Shift: randMat(g, ic), ReLU: true, Cap: 6}
		dwEp.Bias[9] = math.Float32frombits(0x7fc0beef)
		dwEp.Scale[0] = math.Float32frombits(0xffc05ca1)
		dwEp.Shift[1] = math.Float32frombits(0x7fc05f17)
		if ic > 16 {
			dwEp.Bias[ic-7] = math.Float32frombits(0xffc0beef)
			dwEp.Scale[ic-8] = math.Float32frombits(0x7fc05ca2)
			dwEp.Shift[ic-8] = math.Float32frombits(0xffc05f18)
		}
		check(fmt.Sprintf("depthwise %d×%d", ic, npix), func() []float32 {
			out := make([]float32, npix*ic)
			DepthwiseSpans(out, ic, ic, x, w, []Span{{Npix: npix, Taps: taps}}, dwEp)
			return out
		})
	}
	names := make([]string, len(tiers))
	for i, tier := range tiers {
		names[i] = tier.name
	}
	t.Logf("NaN payload tiers covered: %s (this process runs %q)", strings.Join(names, " "), Kernel())
}
