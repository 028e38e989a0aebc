//go:build amd64 && !purego

package tensor

import (
	"math"
	"os"
	"strings"
	"testing"
)

// kernelTiers lists the assembly tiers this machine can run; use()
// makes GemmInPlace walk that tier until the test ends.
func kernelTiers(t *testing.T) []kernelTier {
	detected := useAVX2
	t.Cleanup(func() { useAVX2 = detected })
	tiers := []kernelTier{{"sse", func() { useAVX2 = false }}}
	if detectAVX2() {
		tiers = append(tiers, kernelTier{"avx2", func() { useAVX2 = true }})
	}
	return tiers
}

// TestKernelDispatch checks that the CPUID probe is what selected the
// tier at package initialization, that the probe agrees with the
// operating system's view of the CPU, and that the selection is the
// tile GemmInPlace walks: four rows with the flag off, eight with it on.
func TestKernelDispatch(t *testing.T) {
	have := detectAVX2()
	if useAVX2 != have {
		t.Fatalf("useAVX2 = %v at start-up, CPUID probe says %v", useAVX2, have)
	}
	if want := map[bool]string{true: "avx2", false: "sse"}[have]; Kernel() != want {
		t.Fatalf("Kernel() = %q, want %q", Kernel(), want)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if key, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "flags" {
				listed := strings.Contains(" "+flags+" ", " avx2 ")
				if listed != have {
					t.Fatalf("/proc/cpuinfo lists avx2: %v, CPUID probe says %v", listed, have)
				}
				break
			}
		}
	}
	t.Logf("dispatch: CPUID probe avx2=%v, kernel %q", have, Kernel())

	tiers := kernelTiers(t)
	tiers[0].use()
	if Kernel() != "sse" || tileRows() != gemmMR {
		t.Fatalf("flag forced off: Kernel() = %q, %d-row tiles", Kernel(), tileRows())
	}
	if !have {
		return
	}
	tiers[1].use()
	if Kernel() != "avx2" || tileRows() != tileMax {
		t.Fatalf("flag on: Kernel() = %q, %d-row tiles", Kernel(), tileRows())
	}
}

// TestKernelTiersKeepNaNPayloads holds the two assembly tiers to more
// than the generic tier can be held to: with several different NaNs in
// the operands, which one survives a product or a sum depends on
// operand order, and the AVX2 kernel keeps the SSE kernel's.
func TestKernelTiersKeepNaNPayloads(t *testing.T) {
	tiers := kernelTiers(t)
	if len(tiers) < 2 {
		t.Skip("one assembly tier on this machine")
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
	out := [2][]float32{make([]float32, m*n), make([]float32, m*n)}
	nans := 0
	for i, tier := range tiers {
		tier.use()
		GemmPacked(m, n, k, a, bp, out[i], ep, nil)
	}
	for _, v := range out[0] {
		if v != v {
			nans++
		}
	}
	if nans == 0 || nans == m*n {
		t.Fatalf("%d of %d outputs are NaN: the table exercises nothing", nans, m*n)
	}
	if i := sameBits(out[0], out[1]); i >= 0 {
		t.Fatalf("[%d] sse %#08x, avx2 %#08x", i, math.Float32bits(out[0][i]), math.Float32bits(out[1][i]))
	}

	// The depthwise span: NaNs of different payloads in the inputs, the
	// weights and the bias meet in its products and sums. Tap t's weight
	// for channel t is a NaN, and so is its input there at every pixel
	// (both the four-pixel blocks and the single pixels after them), so
	// each product in those lanes has two NaN operands; the bias of
	// channel 9 is a NaN that the NaN products of that lane are added
	// to, the NaN sums of channels 0 and 1 meet a NaN scale and shift,
	// and tap 2's zero weight meets an infinite input.
	const ic, npix, ntaps = 16, 7, 9
	taps := make([]Tap, ntaps)
	for t := range taps {
		taps[t] = Tap{X: randMat(g, npix*ic), W: randMat(g, ic)}
		taps[t].W[t] = math.Float32frombits(0x7fc00100 + uint32(t))
		for p := 0; p < npix; p++ {
			taps[t].X[p*ic+t] = math.Float32frombits(0xffc00200 + uint32(16*p+t))
			taps[t].X[p*ic+9] = math.Float32frombits(0x7fc00300 + uint32(16*p+t))
		}
	}
	taps[2].W[11], taps[2].X[3*ic+11] = 0, inf32
	dwEp := &Epilogue{Bias: randMat(g, ic), Scale: randMat(g, ic), Shift: randMat(g, ic), ReLU: true, Cap: 6}
	dwEp.Bias[9] = math.Float32frombits(0x7fc0beef)
	dwEp.Scale[0] = math.Float32frombits(0xffc05ca1)
	dwEp.Shift[1] = math.Float32frombits(0x7fc05f17)
	for i, tier := range tiers {
		tier.use()
		out[i] = make([]float32, npix*ic)
		DepthwiseSpan(out[i], npix, ic, ic, taps, dwEp)
	}
	nans = 0
	for _, v := range out[0] {
		if v != v {
			nans++
		}
	}
	if nans == 0 || nans == npix*ic {
		t.Fatalf("depthwise: %d of %d outputs are NaN: the table exercises nothing", nans, npix*ic)
	}
	if i := sameBits(out[0], out[1]); i >= 0 {
		t.Fatalf("depthwise [%d] sse %#08x, avx2 %#08x", i, math.Float32bits(out[0][i]), math.Float32bits(out[1][i]))
	}
}
