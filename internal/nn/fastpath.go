package nn

import (
	"repro/internal/tensor"
)

// This file holds the layers' forward kernels: the single-pass
// convolution lowering plus the GEMM-backed convolution and
// fully-connected forward passes, and a specialized direct depthwise
// kernel. The same kernels serve two callers with different buffer
// policies:
//
//   - Compiled programs (program.go), the only inference engine, hold
//     the weights already packed, pass preallocated workspace scratch
//     and run serially, so steady-state per-frame execution performs
//     zero heap allocations and re-lowers nothing that did not change
//     since the last frame; cross-frame parallelism comes from streams
//     and microclassifier fan-out, not from inside a kernel.
//   - The layers' Forward methods, the training pass, allocate their
//     scratch and pack their weights per call, and parallelize row
//     blocks with parFor. Results are bitwise independent of the worker
//     count because every output row is computed by the same sequential
//     k-loop regardless of which goroutine runs it. A training batch
//     smaller than tensor.SmallM rows (the last, partial one) takes the
//     GEMM's small-M path.

// convGeom captures the resolved geometry of one convolution.
type convGeom struct {
	n, h, w, ic        int
	k, s               int
	oh, ow, padY, padX int
	f                  int
}

func (c *Conv2D) geom(shape []int) convGeom {
	n, h, w, ic := checkRank4(c.LayerName, shape)
	oh, padY := outDim(h, c.Kernel, c.Stride, c.Pad)
	ow, padX := outDim(w, c.Kernel, c.Stride, c.Pad)
	return convGeom{n: n, h: h, w: w, ic: ic, k: c.Kernel, s: c.Stride,
		oh: oh, ow: ow, padY: padY, padX: padX, f: c.Filters}
}

func (d *DepthwiseConv2D) geom(shape []int) convGeom {
	n, h, w, ic := checkRank4(d.LayerName, shape)
	oh, padY := outDim(h, d.Kernel, d.Stride, d.Pad)
	ow, padX := outDim(w, d.Kernel, d.Stride, d.Pad)
	return convGeom{n: n, h: h, w: w, ic: ic, k: d.Kernel, s: d.Stride,
		oh: oh, ow: ow, padY: padY, padX: padX, f: ic}
}

// isPointwise reports whether the convolution is a 1×1 stride-1
// unpadded map — in which case the lowered matrix is the input itself
// and the GEMM reads the activations directly.
func (g convGeom) isPointwise() bool {
	return g.k == 1 && g.s == 1 && g.padY == 0 && g.padX == 0
}

// colWidth is the lowered matrix's row length (K·K·inC).
func (g convGeom) colWidth() int { return g.k * g.k * g.ic }

// lowerPanels lowers the NHWC input for output rows [row0, row1) —
// indexed (b, oy, ox) in row-major order over [n, oh, ow] — straight
// into the GEMM's A-panel layout (tensor.GemmPanels): what im2col
// followed by the GEMM's own packing pass would produce, in one pass
// over the input and with no row-major matrix in between. Row r of the
// lowered matrix is the K·K·inC receptive field of output position r,
// zero where a tap falls outside the input; its (kx, ci) runs match the
// input's (x, channel) layout, so a panel's four rows interleave as
// whole spans. zeros is a read-only run of at least inC zeros. Lanes of
// the last panel past row1 repeat row1-1. dst needs
// tensor.PackASize(row1-row0, colWidth()) elements.
func (g convGeom) lowerPanels(xd []float32, row0, row1 int, zeros, dst []float32) {
	kw := g.colWidth()
	rowC := g.k * g.ic
	zeros = zeros[:g.ic]
	var (
		rowBase    [4]int  // index of input pixel (b, 0, ix0), possibly left of the row
		iy0        [4]int  // input y of tap ky=0
		kxLo, kxHi [4]int  // taps [kxLo, kxHi) fall inside the input's width
		wide       [4]bool // every kx does
		src        [4][]float32
	)
	for p0 := row0; p0 < row1; p0 += 4 {
		for l := range src {
			r := p0 + l
			if r >= row1 {
				r = row1 - 1
			}
			b, oy, ox := r/(g.oh*g.ow), r/g.ow%g.oh, r%g.ow
			ix0 := ox*g.s - g.padX
			iy0[l] = oy*g.s - g.padY
			rowBase[l] = (b*g.h*g.w + ix0) * g.ic
			kxLo[l], kxHi[l] = 0, g.k
			if ix0 < 0 {
				kxLo[l] = -ix0
			}
			if ix0+g.k > g.w {
				kxHi[l] = g.w - ix0
			}
			wide[l] = kxLo[l] == 0 && kxHi[l] == g.k
		}
		panel := dst[(p0-row0)*kw : (p0-row0+4)*kw]
		for ky := 0; ky < g.k; ky++ {
			seg := panel[ky*rowC*4 : (ky+1)*rowC*4]
			var at [4]int   // index of input pixel (b, iy, ix0), possibly left of the row
			var inY [4]bool // input row iy exists
			whole := true
			for l := range at {
				iy := iy0[l] + ky
				inY[l] = iy >= 0 && iy < g.h
				at[l] = rowBase[l] + iy*g.w*g.ic
				whole = whole && inY[l] && wide[l]
			}
			if whole {
				tensor.VecInterleave4(seg, xd[at[0]:at[0]+rowC], xd[at[1]:at[1]+rowC],
					xd[at[2]:at[2]+rowC], xd[at[3]:at[3]+rowC])
				continue
			}
			for kx := 0; kx < g.k; kx++ {
				for l := range src {
					src[l] = zeros
					if inY[l] && kx >= kxLo[l] && kx < kxHi[l] {
						o := at[l] + kx*g.ic
						src[l] = xd[o : o+g.ic]
					}
				}
				tensor.VecInterleave4(seg[kx*g.ic*4:(kx+1)*g.ic*4], src[0], src[1], src[2], src[3])
			}
		}
	}
}

// rowBlock returns the row-block length the training path splits an
// m-row GEMM into: whole 4-row panels, so blocks never share one.
func rowBlock(m int) int {
	blocks := gemmBlocks(m)
	return ((m+blocks-1)/blocks + 3) &^ 3
}

// convForward runs the convolution as a lowered GEMM with the fused
// epilogue, writing into out (length n·oh·ow·f). This is the layers'
// Forward path: it packs the weights and allocates its scratch per
// call, and splits the rows across parFor blocks.
func convForward(g convGeom, xd, wd, out []float32, ep tensor.Epilogue) {
	m := g.n * g.oh * g.ow
	kk := g.colWidth()
	if m == 0 {
		return
	}
	if g.isPointwise() {
		gemmRows(m, g.f, kk, xd, wd, out, ep)
		return
	}
	pb := make([]float32, tensor.PackBSize(kk, g.f))
	tensor.PackB(kk, g.f, wd, pb)
	zeros := make([]float32, g.ic)
	chunk := rowBlock(m)
	parFor((m+chunk-1)/chunk, func(bi int) {
		// Address a closure-local copy of the epilogue: taking &ep on
		// the shared parameter would force it onto the heap for every
		// caller.
		epc := ep
		lo := bi * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		ap := make([]float32, tensor.PackASize(hi-lo, kk))
		g.lowerPanels(xd, lo, hi, zeros, ap)
		tensor.GemmPanels(hi-lo, g.f, kk, ap, pb, out[lo*g.f:], &epc)
	})
}

// gemmRows multiplies a row-major activation matrix against the
// weights across parFor row blocks (the layers' Forward path).
func gemmRows(m, n, k int, a, b, c []float32, ep tensor.Epilogue) {
	if m < tensor.SmallM {
		epSmall := ep // see convForward
		tensor.Gemm(m, n, k, a, b, c, &epSmall, nil, nil)
		return
	}
	pb := make([]float32, tensor.PackBSize(k, n))
	tensor.PackB(k, n, b, pb)
	chunk := rowBlock(m)
	parFor((m+chunk-1)/chunk, func(bi int) {
		epc := ep // see convForward
		lo := bi * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		rows := hi - lo
		tensor.GemmPacked(rows, n, k, a[lo*k:], pb, c[lo*n:], &epc,
			make([]float32, tensor.PackASize(rows, k)))
	})
}

// gemmBlocks picks how many row blocks to split an m-row GEMM into on
// the training path.
func gemmBlocks(m int) int {
	w := Workers
	if w < 1 {
		w = 1
	}
	if w > (m+31)/32 {
		w = (m + 31) / 32 // keep blocks at least 32 rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// depthwiseForward is the layers' Forward path of the depthwise
// convolution: depthwiseRow over every output row, the rows split
// across parFor.
func depthwiseForward(g convGeom, xd, wd, out []float32, ep tensor.Epilogue) {
	parFor(g.n*g.oh, func(job int) {
		epc := ep // see convForward
		depthwiseRow(g, xd, wd, out, &epc, job)
	})
}

// depthwiseRow computes one output row (batch b, row oy encoded in
// job) of a depthwise convolution at any stride: each channel
// convolves with its own K×K filter, the bias starts the accumulator,
// and the batch-norm scale/shift and ReLU close it, all inside
// tensor.DepthwiseSpan. The interior pixels, whose K columns all fall
// inside the input row, are one span s·inC floats apart; each border
// pixel is a span of its own. A span gets the taps, in (ky, kx) order,
// that fall inside the input for every one of its pixels. Both the
// layers' Forward and a compiled program run it, reading the weights
// and the epilogue vectors live.
func depthwiseRow(g convGeom, xd, wd, out []float32, ep *tensor.Epilogue, job int) {
	b, oy := job/g.oh, job%g.oh
	iy0 := oy*g.s - g.padY
	kyLo, kyHi := max(0, -iy0), min(g.k, g.h-iy0)
	// Interior: ox·s - padX ≥ 0 and ox·s - padX + K ≤ w.
	oxLo, oxHi := (g.padX+g.s-1)/g.s, 0
	if r := g.w + g.padX - g.k; r >= 0 {
		oxHi = min(g.ow, r/g.s+1)
	}
	var buf [9]tensor.Tap // a 3×3 kernel's taps stay on the stack
	taps := buf[:]
	if g.k*g.k > len(buf) {
		taps = make([]tensor.Tap, g.k*g.k)
	}
	row := out[job*g.ow*g.ic : (job+1)*g.ow*g.ic]
	for ox0 := 0; ox0 < g.ow; {
		ox1 := ox0 + 1
		if ox0 == oxLo && oxLo < oxHi {
			ox1 = oxHi
		}
		ix0 := ox0*g.s - g.padX // a span of several pixels is interior: every kx
		kxLo, kxHi := max(0, -ix0), min(g.k, g.w-ix0)
		n := 0
		for ky := kyLo; ky < kyHi; ky++ {
			xRow := ((b*g.h+iy0+ky)*g.w + ix0) * g.ic
			for kx := kxLo; kx < kxHi; kx++ {
				w := (ky*g.k + kx) * g.ic
				// Field by field: a composite literal is built on the
				// stack and copied, and the copy stalls on the stores
				// just made.
				taps[n].X = xd[xRow+kx*g.ic:]
				taps[n].W = wd[w : w+g.ic]
				n++
			}
		}
		tensor.DepthwiseSpan(row[ox0*g.ic:ox1*g.ic], ox1-ox0, g.ic, g.s*g.ic, taps[:n], ep)
		ox0 = ox1
	}
}
