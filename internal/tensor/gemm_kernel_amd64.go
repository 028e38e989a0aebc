//go:build amd64 && !purego

package tensor

// The amd64 build carries two assembly microkernel tiers over the same
// A rows and B panels: the eight-lane AVX2 8×8 kernel
// (gemm_kernel_avx2_amd64.s) runs eight rows at once, and the
// sixteen-lane AVX-512 8×16 kernel (gemm_kernel_avx512_amd64.s) runs
// the same eight rows against a pair of B panels. A CPU without AVX2
// runs the generic tier, the portable Go 4×8 tile (kernTileGo) that
// every other architecture runs. The tier is selected once, at package
// initialization, from what the CPU and the operating system support.
// Every kernel accumulates each output element over p in sequential
// multiply-then-add order (lane-parallel across columns, never across
// k, never fused) and applies the epilogue to its accumulators in
// applyOne's order before it stores them, so results are bitwise
// identical across tiers.

// tier is a microkernel tier: the instruction set the GEMM tile, the
// depthwise span and the epilogue run on.
type tier uint8

const (
	tierGeneric tier = iota
	tierAVX2
	tierAVX512
)

// cpuTier is the tier this process runs. It is written only here and
// by tests; tileRows, tileCols, lanes and Kernel all derive from it.
var cpuTier = detectTier()

// detectTier reads the highest tier whose instructions may run, the
// generic tier where neither of these can:
//   - avx2: the CPU has AVX and AVX2, and the operating system saves
//     the YMM state (OSXSAVE set, XCR0 enabling the SSE and AVX
//     register files);
//   - avx512: in addition the CPU has AVX512F (CPUID.7.0:EBX bit 16)
//     and XCR0 enables the opmask and both halves of the ZMM state
//     (XCR0 & 0xE6 == 0xE6).
func detectTier() tier {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierGeneric
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return tierGeneric
	}
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return tierGeneric
	}
	const avx2, avx512f = 1 << 5, 1 << 16
	_, ebx, _, _ := cpuid(7, 0)
	switch {
	case ebx&avx2 == 0:
		return tierGeneric
	case ebx&avx512f != 0 && xcr0&0xe6 == 0xe6:
		return tierAVX512
	}
	return tierAVX2
}

func (t tier) String() string {
	return [...]string{tierGeneric: "generic", tierAVX2: "avx2", tierAVX512: "avx512"}[t]
}

// Kernel names the GEMM microkernel tier this process runs: "avx512",
// "avx2", or "generic" (the portable Go kernel, which a CPU without
// AVX2, other architectures and -tags purego run).
func Kernel() string { return cpuTier.String() }

// tileRows is the height of the tile GemmInPlace walks: eight rows on
// the AVX2 and AVX-512 tiers, the portable kernel's four on the
// generic tier.
func tileRows() int {
	if cpuTier >= tierAVX2 {
		return tileMax
	}
	return gemmMR
}

// tileCols is the widest tile GemmInPlace walks: two B panels on the
// AVX-512 tier, one elsewhere.
func tileCols() int {
	if cpuTier == tierAVX512 {
		return 2 * gemmNR
	}
	return gemmNR
}

// kernTile computes one tile over the full k extent — the tileRows()
// rows of a whose bases are in offs, against the B panels bp (a pair
// as PackB lays it out, 16k floats, on the AVX-512 tier; or one panel,
// the first or last eight of each k-step's 16 floats) — applies ep to
// it, its per-column vectors read from column col on, and stores it,
// row r at c[r*ldc:]. The rows were checked against a.Data when their
// bases were taken (rowWalk.next), and ep's vectors over every column
// of the product (Epilogue.kernel); a tile whose columns run past the
// product's takes a zero ep.
func kernTile(a *ARows, offs *[tileMax]int, bp, c []float32, ldc int, ep *kernEpilogue, col int) {
	k := a.Segs * a.Len
	switch {
	case len(bp) == 2*gemmNR*k:
		_ = c[7*ldc+15]
		kern8x16AVX512(&a.Data[0], offs, a.Segs, a.Len, a.Pitch, &bp[0], &c[0], ldc, ep, col)
	case cpuTier >= tierAVX2:
		_ = bp[2*gemmNR*(k-1)+gemmNR-1]
		_ = c[7*ldc+7]
		kern8x8AVX2(&a.Data[0], offs, a.Segs, a.Len, a.Pitch, &bp[0], &c[0], ldc, ep, col)
	default:
		kernTileGo(a, offs, bp, c, ldc, &ep.generic, col)
	}
}

// Implemented in gemm_kernel_avx2_amd64.s and
// gemm_kernel_avx512_amd64.s. Each steps through bp 16 floats a k-step.
//
//go:noescape
func kern8x8AVX2(a *float32, offs *[tileMax]int, segs, seglen, pitch int, bp, c *float32, ldc int, ep *kernEpilogue, col int)

//go:noescape
func kern8x16AVX512(a *float32, offs *[tileMax]int, segs, seglen, pitch int, bp, c *float32, ldc int, ep *kernEpilogue, col int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
