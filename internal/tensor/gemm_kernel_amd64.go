//go:build amd64 && !purego

package tensor

// The amd64 build carries two microkernel tiers over the same A rows
// and B panels. The four-lane SSE 4×8 kernel needs nothing past the
// amd64 baseline; the eight-lane AVX2 8×8 kernel
// (gemm_kernel_avx2_amd64.s) runs eight rows at once and is selected
// once, at package initialization, when the CPU and the operating
// system support it. Both accumulate each output element over p in
// sequential multiply-then-add order (lane-parallel across columns,
// never across k, never fused), so results are bitwise identical to
// each other and to the portable Go kernel.

// useAVX2 selects the eight-row tile. It is written only here and by
// tests.
var useAVX2 = detectAVX2()

// detectAVX2 reports whether AVX2 instructions may run: the CPU has
// AVX and AVX2, and the operating system saves the YMM state (OSXSAVE
// set and XCR0 enabling both the SSE and AVX register files).
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// Kernel names the GEMM microkernel tier this process runs: "avx2",
// "sse", or (other architectures and -tags purego) "generic".
func Kernel() string {
	if useAVX2 {
		return "avx2"
	}
	return "sse"
}

// tileRows is the height of the tile GemmInPlace walks: eight rows on
// the AVX2 tier, four on the SSE tier.
func tileRows() int {
	if useAVX2 {
		return tileMax
	}
	return gemmMR
}

// kernTile computes one tile over the full k extent — the tileRows()
// rows of a whose bases are in offs, against the B panel bp — and stores
// it raw, row r at c[r*ldc:]. The rows were checked against a.Data when
// their bases were taken (rowWalk.next).
func kernTile(a *ARows, offs *[tileMax]int, bp, c []float32, ldc int) {
	_ = bp[a.Segs*a.Len*gemmNR-1]
	if useAVX2 {
		_ = c[7*ldc+7]
		kern8x8AVX2(&a.Data[0], offs, a.Segs, a.Len, a.Pitch, &bp[0], &c[0], ldc)
		return
	}
	_ = c[3*ldc+7]
	kern4x8SSE(&a.Data[0], offs, a.Segs, a.Len, a.Pitch, &bp[0], &c[0], ldc)
}

// Implemented in gemm_kernel_amd64.s and gemm_kernel_avx2_amd64.s.
//
//go:noescape
func kern4x8SSE(a *float32, offs *[tileMax]int, segs, seglen, pitch int, bp, c *float32, ldc int)

//go:noescape
func kern8x8AVX2(a *float32, offs *[tileMax]int, segs, seglen, pitch int, bp, c *float32, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
