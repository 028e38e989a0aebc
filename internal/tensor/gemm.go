package tensor

// This file is the inference fast path's compute core: a cache-blocked,
// register-tiled single-precision GEMM with a fused epilogue, the
// primitive that im2col-lowered convolutions, pointwise convolutions,
// and fully-connected layers in internal/nn all reduce to. It is
// deliberately allocation-free: callers supply packing scratch buffers
// (see PackASize/PackBSize), so steady-state per-frame inference never
// touches the garbage collector.
//
// Layout conventions: all matrices are dense row-major. A is m×k, B is
// k×n, C is m×n. The convolution weight layout [K,K,inC,outC] used by
// internal/nn is already the row-major [k*k*inC, outC] matrix this GEMM
// wants, so weights never need transposition.
//
// The inner microkernel computes a register tile from packed panels:
// A in panels of four rows, B in panels of eight columns. amd64 has two
// tiers, picked once at package initialization (gemm_kernel_amd64.go):
// an eight-lane AVX2 kernel that runs two adjacent A panels as one 8×8
// tile where the CPU has it, and the four-lane SSE 4×8 kernel of the
// amd64 baseline for everything else, a leftover single panel included.
// Other architectures, and -tags purego, run a portable Go 4×8 kernel
// (gemm_kernel_generic.go). Every kernel accumulates each output
// element over k in the same sequential multiply-then-add order, so
// results are bitwise identical across kernels, row splits, and worker
// counts.

// gemmMR×gemmNR is the panel geometry, and the tile of the 4×8
// kernels: four A rows against eight B columns.
const (
	gemmMR = 4
	gemmNR = 8
)

// SmallM switches Gemm to the unpacked row-block path: below this row
// count packing B for a single product costs more than it saves (the
// whole B matrix is streamed exactly once either way). A caller that
// already holds a packed B has nothing to save and calls GemmPacked
// whatever m is.
const SmallM = 8

// Epilogue describes the fused write-back applied to every GEMM output
// element, in order: add Bias[j], then scale/shift (the inference-time
// batch-norm fold: v*Scale[j]+Shift[j]), then ReLU with optional Cap
// (ReLU6 when Cap=6). All slices are indexed by output column and may
// be nil to skip that step. The epilogue runs on each completed row
// block while it is still cache-hot, so the activation never takes an
// extra pass over cold memory.
type Epilogue struct {
	Bias  []float32
	Scale []float32
	Shift []float32
	ReLU  bool
	Cap   float32
}

// Apply transforms the first m rows of c, each n columns long, in
// place, in one pass: each vector of a row is loaded once, takes bias,
// scale/shift and ReLU in registers and is stored once (applyVec); the
// columns past the last whole vector, and every column of the portable
// build, run applyOne in the same order.
func (ep *Epilogue) Apply(c []float32, m, n int) {
	if ep == nil || m <= 0 {
		return
	}
	for j0 := ep.applyVec(c, m, n); j0 < n; j0++ {
		for i := 0; i < m; i++ {
			c[i*n+j0] = ep.applyOne(c[i*n+j0], j0)
		}
	}
}

// applyOne runs the epilogue for a single element at column j.
func (ep *Epilogue) applyOne(v float32, j int) float32 {
	if ep == nil {
		return v
	}
	if ep.Bias != nil {
		v += ep.Bias[j]
	}
	return ep.activate(v, j)
}

// activate runs what follows the bias for the element at column j:
// scale/shift, then ReLU and its cap. The depthwise kernel starts its
// accumulator at the bias, so this is all of the epilogue it has left.
func (ep *Epilogue) activate(v float32, j int) float32 {
	if ep.Scale != nil {
		v = float32(v*ep.Scale[j]) + ep.Shift[j]
	}
	if ep.ReLU {
		if v < 0 {
			v = 0
		} else if ep.Cap > 0 && v > ep.Cap {
			v = ep.Cap
		}
	}
	return v
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// PackASize returns the scratch length GemmPacked needs to pack an
// m×k A matrix (rows padded to the microkernel tile height).
func PackASize(m, k int) int { return roundUp(m, gemmMR) * k }

// PackBSize returns the scratch length needed by PackB for a k×n B
// matrix (columns padded to the microkernel tile width).
func PackBSize(k, n int) int { return roundUp(n, gemmNR) * k }

// PackB packs row-major B (k×n) into column panels of width gemmNR:
// panel j0 holds columns [j0, j0+8) interleaved per k-step, zero-padded
// past n. The packed layout makes the microkernel's B reads perfectly
// sequential. dst must have at least PackBSize(k, n) elements.
func PackB(k, n int, b, dst []float32) {
	j0 := 0
	for ; j0+gemmNR <= n; j0 += gemmNR {
		panel := dst[j0*k : (j0+gemmNR)*k : (j0+gemmNR)*k]
		for p := 0; p < k; p++ {
			row := b[p*n+j0 : p*n+j0+gemmNR : p*n+j0+gemmNR]
			q := p * gemmNR
			panel[q] = row[0]
			panel[q+1] = row[1]
			panel[q+2] = row[2]
			panel[q+3] = row[3]
			panel[q+4] = row[4]
			panel[q+5] = row[5]
			panel[q+6] = row[6]
			panel[q+7] = row[7]
		}
	}
	if j0 < n {
		panel := dst[j0*k : (j0+gemmNR)*k]
		jMax := n - j0
		for p := 0; p < k; p++ {
			row := b[p*n+j0:]
			q := p * gemmNR
			for j := 0; j < jMax; j++ {
				panel[q+j] = row[j]
			}
			for j := jMax; j < gemmNR; j++ {
				panel[q+j] = 0
			}
		}
	}
}

// packA packs row-major A (m×k) into row panels of height gemmMR:
// panel i0 holds rows [i0, i0+4) interleaved per k-step, so element
// (i0+r, p) sits at dst[i0*k + p*4 + r] (VecInterleave4's layout). The
// lanes of the last panel past m repeat row m-1; GemmPanels discards
// what the microkernel computes for them.
func packA(m, k int, a, dst []float32) {
	row := func(i int) []float32 {
		if i >= m {
			i = m - 1
		}
		return a[i*k : (i+1)*k]
	}
	for i0 := 0; i0 < m; i0 += gemmMR {
		VecInterleave4(dst[i0*k:(i0+gemmMR)*k], row(i0), row(i0+1), row(i0+2), row(i0+3))
	}
}

// GemmPacked computes C = A·B with B already packed by PackB; the
// epilogue is applied to each completed row block while it is still
// cache-hot (the fused write-back). a holds the unpacked row-major m×k
// block; scratchA needs PackASize(m, k) elements. C rows are fully
// overwritten. Row blocks are independent and every output element
// accumulates over k in the same sequential order, so callers may
// split m across goroutines (each with its own scratchA) for bitwise
// identical results.
func GemmPacked(m, n, k int, a, bp, c []float32, ep *Epilogue, scratchA []float32) {
	packA(m, k, a, scratchA)
	GemmPanels(m, n, k, scratchA, bp, c, ep)
}

// GemmPanels is GemmPacked for an A that is already in panel layout
// (see packA; PackASize(m, k) elements): every 4-row panel, the ragged
// last one included, runs through a microkernel — in pairs through the
// eight-row tier where there is one, the rest through the 4×8 kernel.
// What the lanes of the last panel past m hold is irrelevant: their
// outputs land in a stack tile and are dropped.
func GemmPanels(m, n, k int, ap, bp, c []float32, ep *Epilogue) {
	nFull := n - n%gemmNR
	i0 := gemmPanelPairs(m, n, k, ap, bp, c, ep)
	for ; i0+gemmMR <= m; i0 += gemmMR {
		panel := ap[i0*k : (i0+gemmMR)*k]
		c0 := c[(i0+0)*n : (i0+1)*n]
		c1 := c[(i0+1)*n : (i0+2)*n]
		c2 := c[(i0+2)*n : (i0+3)*n]
		c3 := c[(i0+3)*n : (i0+4)*n]
		for j0 := 0; j0 < nFull; j0 += gemmNR {
			kern4x8(k, panel, bp[j0*k:(j0+gemmNR)*k], c0[j0:], c1[j0:], c2[j0:], c3[j0:])
		}
		if nFull < n {
			kernColsTail(k, n-nFull, panel, bp[nFull*k:], c0[nFull:], c1[nFull:], c2[nFull:], c3[nFull:])
		}
		ep.Apply(c[i0*n:], gemmMR, n)
	}
	if i0 < m {
		gemmRaggedBlock(gemmMR, m, n, k, i0, ap, bp, c, ep)
	}
}

// gemmRaggedBlock finishes rows [i0, m) of C, fewer than the h (4 or
// 8) rows of the panel block that starts at i0: each h×8 tile goes to
// the stack and only the live rows (and, in the zero-padded last B
// panel, the live columns) are copied out, then the epilogue runs over
// each live row. Same kernels, same k order as a full block.
func gemmRaggedBlock(h, m, n, k, i0 int, ap, bp, c []float32, ep *Epilogue) {
	block := ap[i0*k : (i0+h)*k]
	var tile [2 * gemmMR * gemmNR]float32
	for j0 := 0; j0 < n; j0 += gemmNR {
		b := bp[j0*k : (j0+gemmNR)*k]
		if h == gemmMR {
			kern4x8(k, block, b, tile[:], tile[gemmNR:], tile[2*gemmNR:], tile[3*gemmNR:])
		} else {
			kern8x8(k, block, b, tile[:], gemmNR)
		}
		w := min(n-j0, gemmNR)
		for r := 0; i0+r < m; r++ {
			copy(c[(i0+r)*n+j0:(i0+r)*n+j0+w], tile[r*gemmNR:r*gemmNR+w])
		}
	}
	ep.Apply(c[i0*n:], m-i0, n)
}

// kernColsTail computes the trailing (n % 8) columns of one 4-row
// block from the final zero-padded B panel, each product rounded
// before its add on every target.
func kernColsTail(k, nj int, ap, bpPanel []float32, c0, c1, c2, c3 []float32) {
	for jj := 0; jj < nj; jj++ {
		var s0, s1, s2, s3 float32
		for p := 0; p < k; p++ {
			b := bpPanel[p*gemmNR+jj]
			s0 += float32(ap[p*gemmMR+0] * b)
			s1 += float32(ap[p*gemmMR+1] * b)
			s2 += float32(ap[p*gemmMR+2] * b)
			s3 += float32(ap[p*gemmMR+3] * b)
		}
		c0[jj], c1[jj], c2[jj], c3[jj] = s0, s1, s2, s3
	}
}

// gemmSmall handles short A blocks (m < SmallM) without packing:
// B is streamed once in row order while up to four C rows accumulate
// in cache.
func gemmSmall(m, n, k int, a, b, c []float32, ep *Epilogue) {
	for i := 0; i < m*n; i++ {
		c[i] = 0
	}
	i0 := 0
	for ; i0+4 <= m; i0 += 4 {
		axpy4(n, k, a[i0*k:], b, c[i0*n:])
	}
	switch m - i0 {
	case 1:
		axpy1(n, k, a[i0*k:], b, c[i0*n:])
	case 2:
		axpy2(n, k, a[i0*k:], b, c[i0*n:])
	case 3:
		axpy2(n, k, a[i0*k:], b, c[i0*n:])
		axpy1(n, k, a[(i0+2)*k:], b, c[(i0+2)*n:])
	}
	ep.Apply(c, m, n)
}

func axpy4(n, k int, a, b, c []float32) {
	c0 := c[0*n : 1*n : 1*n]
	c1 := c[1*n : 2*n : 2*n]
	c2 := c[2*n : 3*n : 3*n]
	c3 := c[3*n : 4*n : 4*n]
	for p := 0; p < k; p++ {
		bv := b[p*n : (p+1)*n : (p+1)*n]
		VecAxpy(a[p], bv, c0)
		VecAxpy(a[k+p], bv, c1)
		VecAxpy(a[2*k+p], bv, c2)
		VecAxpy(a[3*k+p], bv, c3)
	}
}

func axpy2(n, k int, a, b, c []float32) {
	c0 := c[0*n : 1*n : 1*n]
	c1 := c[1*n : 2*n : 2*n]
	for p := 0; p < k; p++ {
		bv := b[p*n : (p+1)*n : (p+1)*n]
		VecAxpy(a[p], bv, c0)
		VecAxpy(a[k+p], bv, c1)
	}
}

func axpy1(n, k int, a, b, c []float32) {
	c0 := c[0*n : 1*n : 1*n]
	for p := 0; p < k; p++ {
		VecAxpy(a[p], b[p*n:(p+1)*n:(p+1)*n], c0)
	}
}

// Gemm computes C = A·B (A m×k, B k×n, C m×n, all row-major) with the
// fused epilogue applied on write-back. scratchA and scratchB are
// packing buffers of at least PackASize/PackBSize elements; they (and
// ep) may be nil only when m < SmallM, where the unpacked path
// runs. C is fully overwritten.
func Gemm(m, n, k int, a, b, c []float32, ep *Epilogue, scratchA, scratchB []float32) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		for i := 0; i < m; i++ {
			row := c[i*n : (i+1)*n]
			for j := range row {
				row[j] = ep.applyOne(0, j)
			}
		}
		return
	}
	if m < SmallM {
		gemmSmall(m, n, k, a, b, c, ep)
		return
	}
	PackB(k, n, b, scratchB)
	GemmPacked(m, n, k, a, scratchB, c, ep, scratchA)
}
