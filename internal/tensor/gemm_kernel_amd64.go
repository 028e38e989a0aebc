//go:build amd64 && !purego

package tensor

// The amd64 build carries two microkernel tiers over the same packed
// panels. The four-lane SSE 4×8 kernel needs nothing past the amd64
// baseline; the eight-lane AVX2 8×8 kernel (gemm_kernel_avx2_amd64.s)
// runs two adjacent A panels at once and is selected once, at package
// initialization, when the CPU and the operating system support it.
// Both accumulate each output element over p in sequential
// multiply-then-add order (lane-parallel across columns, never across
// k, never fused), so results are bitwise identical to each other and
// to the portable Go kernel.

// useAVX2 selects the eight-row tier. It is written only here and by
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

// kern4x8 computes one 4×8 register tile over the full k extent from
// packed panels (A interleaved by 4 rows, B by 8 columns) and stores
// it raw into the four C rows: cR[j] = Σ_p ap[p*4+R]·bp[p*8+j].
func kern4x8(k int, ap, bp, c0, c1, c2, c3 []float32) {
	if k <= 0 {
		for j := 0; j < gemmNR; j++ {
			c0[j], c1[j], c2[j], c3[j] = 0, 0, 0, 0
		}
		return
	}
	_ = ap[4*k-1]
	_ = bp[8*k-1]
	_ = c0[7]
	_ = c1[7]
	_ = c2[7]
	_ = c3[7]
	kern4x8SSE(k, &ap[0], &bp[0], &c0[0], &c1[0], &c2[0], &c3[0])
}

// kern8x8 computes one 8×8 tile from two adjacent A panels (ap holds
// both, 8k floats) and one B panel, k > 0, and stores row r raw at
// c[r*ldc:].
func kern8x8(k int, ap, bp, c []float32, ldc int) {
	_ = ap[8*k-1]
	_ = bp[8*k-1]
	_ = c[7*ldc+7]
	kern8x8AVX2(k, &ap[0], &bp[0], &c[0], ldc)
}

// gemmPanelPairs is GemmPanels' eight-row tier: it walks A two panels
// at a time through kern8x8 for as long as more than one panel of rows
// remains, epilogue included, and returns how many rows it completed
// (a multiple of eight, or m). What it leaves — at most one panel — is
// the 4×8 kernel's. It completes no rows without AVX2, or when k is 0
// (the 4×8 walk zero-fills without touching the empty panels).
func gemmPanelPairs(m, n, k int, ap, bp, c []float32, ep *Epilogue) int {
	if !useAVX2 || k <= 0 {
		return 0
	}
	const pairRows = 2 * gemmMR
	nFull := n - n%gemmNR
	i0 := 0
	for ; i0+pairRows <= m; i0 += pairRows {
		pair := ap[i0*k : (i0+pairRows)*k]
		rows := c[i0*n : (i0+pairRows)*n]
		for j0 := 0; j0 < nFull; j0 += gemmNR {
			kern8x8(k, pair, bp[j0*k:(j0+gemmNR)*k], rows[j0:], n)
		}
		if nj := n - nFull; nj > 0 {
			tail := bp[nFull*k:]
			kernColsTail(k, nj, pair[:gemmMR*k], tail, rows[nFull:], rows[n+nFull:], rows[2*n+nFull:], rows[3*n+nFull:])
			kernColsTail(k, nj, pair[gemmMR*k:], tail, rows[4*n+nFull:], rows[5*n+nFull:], rows[6*n+nFull:], rows[7*n+nFull:])
		}
		ep.Apply(rows, pairRows, n)
	}
	if m-i0 <= gemmMR {
		return i0
	}
	gemmRaggedBlock(pairRows, m, n, k, i0, ap, bp, c, ep) // 5 to 7 live rows
	return m
}

// Implemented in gemm_kernel_amd64.s and gemm_kernel_avx2_amd64.s.
//
//go:noescape
func kern4x8SSE(k int, ap, bp, c0, c1, c2, c3 *float32)

//go:noescape
func kern8x8AVX2(k int, ap, bp, c *float32, ldc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
