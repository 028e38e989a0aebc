package nn

import (
	"repro/internal/tensor"
)

// This file holds the layers' forward kernels: the GEMM-backed
// convolution and fully-connected forward passes, which hand the GEMM
// their input in place (tensor.ARows), and a specialized direct
// depthwise kernel. The same kernels serve two callers with different
// buffer policies:
//
//   - Compiled programs (program.go), the only inference engine, hold
//     the weights already packed, stage a padded convolution's input in
//     a preallocated workspace slot and run serially, so steady-state
//     per-frame execution performs zero heap allocations and re-packs
//     nothing that did not change since the last frame; cross-frame
//     parallelism comes from streams and microclassifier fan-out, not
//     from inside a kernel.
//   - The layers' Forward methods, the training pass, allocate their
//     staging and pack their weights per call, and parallelize row
//     blocks with parFor. Results are bitwise independent of the worker
//     count because every output row is computed by the same sequential
//     k-loop regardless of which goroutine runs it.

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

// colWidth is the GEMM depth of the convolution: one receptive field,
// K·K·inC floats.
func (g convGeom) colWidth() int { return g.k * g.k * g.ic }

// staged returns the height and width of the input with the padding its
// taps need: the top and left pads before the input's first row and
// column, whatever the last output's taps reach past its last ones
// after them. It is (h, w) when every tap lies inside the input.
func (g convGeom) staged() (hs, ws int) {
	return max(g.padY+g.h, (g.oh-1)*g.s+g.k), max(g.padX+g.w, (g.ow-1)*g.s+g.k)
}

// inPlace reports whether every tap lies inside the input, so the GEMM
// reads the receptive fields straight from it. Otherwise it reads them
// from a copy with a zero halo (stage).
func (g convGeom) inPlace() bool {
	hs, ws := g.staged()
	return hs == g.h && ws == g.w
}

// stage copies the NHWC input into dst, an [n, hs, ws, inC] buffer (see
// staged), at row padY and column padX of each image. It writes only
// the interior, so a halo that starts zero stays zero: its taps
// multiply +0 as the padding's did in im2col.
func (g convGeom) stage(xd, dst []float32) {
	hs, ws := g.staged()
	rowLen := g.w * g.ic
	for b := 0; b < g.n; b++ {
		for y := 0; y < g.h; y++ {
			src := (b*g.h + y) * rowLen
			at := ((b*hs+y+g.padY)*ws + g.padX) * g.ic
			copy(dst[at:at+rowLen], xd[src:src+rowLen])
		}
	}
}

// rows describes the GEMM's left operand over x, the input when
// inPlace, else its staged copy: output position (b, oy, ox) reads its
// receptive field as K segments, one per kernel row ky, of K·inC floats
// at row oy·s+ky, column ox·s of image b — the im2col row, in its
// order, without the copy.
func (g convGeom) rows(x []float32) tensor.ARows {
	hs, ws := g.staged()
	return tensor.ARows{Data: x, Segs: g.k, Len: g.k * g.ic, Pitch: ws * g.ic,
		Width: g.ow, Height: g.oh, Step: g.s * g.ic, LineStep: g.s * ws * g.ic, ImageStep: hs * ws * g.ic}
}

// convForward runs the convolution as a GEMM over its input in place,
// staged with a zero halo when the padding needs one, with the fused
// epilogue, writing into out (length n·oh·ow·f). This is the layers'
// Forward path.
func convForward(g convGeom, xd, wd, out []float32, ep tensor.Epilogue) {
	if !g.inPlace() {
		hs, ws := g.staged()
		staged := make([]float32, g.n*hs*ws*g.ic)
		g.stage(xd, staged)
		xd = staged
	}
	gemmForward(g.n*g.oh*g.ow, g.f, g.rows(xd), wd, out, ep)
}

// gemmForward multiplies the m rows a describes against the weights w
// (row-major, a.Segs·a.Len × n) with the fused epilogue, writing the
// m×n result into c: the layers' Forward path. It packs the weights per
// call and splits the rows across parFor blocks of whole eight-row
// tiles.
func gemmForward(m, n int, a tensor.ARows, w, c []float32, ep tensor.Epilogue) {
	if m == 0 {
		return
	}
	k := a.Segs * a.Len
	pb := make([]float32, tensor.PackBSize(k, n))
	tensor.PackB(k, n, w, pb)
	blocks := gemmBlocks(m)
	chunk := ((m+blocks-1)/blocks + 7) &^ 7
	parFor((m+chunk-1)/chunk, func(bi int) {
		// Address closure-local copies: taking &ep or &a on the shared
		// parameters would force them onto the heap for every caller.
		epc, rows := ep, a
		lo := bi * chunk
		rows.First = lo
		tensor.GemmInPlace(min(chunk, m-lo), n, &rows, pb, c[lo*n:], &epc)
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
// across parFor, on span lists built for this call.
func depthwiseForward(g convGeom, xd, wd, out []float32, ep tensor.Epilogue) {
	rows := g.dwRows()
	parFor(g.n*g.oh, func(job int) {
		epc := ep // see gemmForward
		depthwiseRow(g, rows, xd, wd, out, &epc, job)
	})
}

// dwRows splits each output row of the depthwise convolution into its
// spans (tensor.Span) and builds their taps. The interior pixels, whose
// K columns all fall inside the input row, are one span s·inC floats
// apart; each border pixel is a span of its own. A span's taps are
// those that fall inside the input for every one of its pixels, in
// (ky, kx) order, as offsets from the first input line the row reads
// and from the weights of that line's kernel row. So the list depends
// only on which kernel rows fall inside the input, and rows that share
// them share one list: a compiled program builds a handful once, at
// compile time, and a run builds none.
func (g convGeom) dwRows() [][]tensor.Span {
	// Interior: ox·s - padX ≥ 0 and ox·s - padX + K ≤ w.
	oxLo, oxHi := (g.padX+g.s-1)/g.s, 0
	if r := g.w + g.padX - g.k; r >= 0 {
		oxHi = min(g.ow, r/g.s+1)
	}
	rows := make([][]tensor.Span, g.oh)
	built := map[[2]int][]tensor.Span{}
	for oy := range rows {
		iy0 := oy*g.s - g.padY
		kyLo, kyHi := max(0, -iy0), min(g.k, g.h-iy0)
		if spans, ok := built[[2]int{kyLo, kyHi}]; ok {
			rows[oy] = spans
			continue
		}
		var spans []tensor.Span
		for ox0 := 0; ox0 < g.ow; {
			ox1 := ox0 + 1
			if ox0 == oxLo && oxLo < oxHi {
				ox1 = oxHi
			}
			ix0 := ox0*g.s - g.padX // a span of several pixels is interior: every kx
			sp := tensor.Span{Out: ox0, Npix: ox1 - ox0}
			for ky := kyLo; ky < kyHi; ky++ {
				for kx := max(0, -ix0); kx < min(g.k, g.w-ix0); kx++ {
					sp.Taps = append(sp.Taps, tensor.Tap{X: ((ky-kyLo)*g.w + ix0 + kx) * g.ic, W: ((ky-kyLo)*g.k + kx) * g.ic})
				}
			}
			spans = append(spans, sp)
			ox0 = ox1
		}
		built[[2]int{kyLo, kyHi}] = spans
		rows[oy] = spans
	}
	return rows
}

// depthwiseRow computes one output row (batch b, row oy encoded in
// job) of a depthwise convolution at any stride: each channel
// convolves with its own K×K filter, the bias starts the accumulator,
// and the batch-norm scale/shift and ReLU close it, all inside one
// tensor.DepthwiseSpans call over the row's spans (dwRows). Both the
// layers' Forward and a compiled program run it, reading the weights
// and the epilogue vectors live.
func depthwiseRow(g convGeom, rows [][]tensor.Span, xd, wd, out []float32, ep *tensor.Epilogue, job int) {
	b, oy := job/g.oh, job%g.oh
	iy0 := oy*g.s - g.padY
	kyLo, kyHi := max(0, -iy0), min(g.k, g.h-iy0)
	var x, w []float32
	if kyLo < kyHi {
		x = xd[(b*g.h+iy0+kyLo)*g.w*g.ic:]
		w = wd[kyLo*g.k*g.ic:]
	}
	tensor.DepthwiseSpans(out[job*g.ow*g.ic:(job+1)*g.ow*g.ic], g.ic, g.s*g.ic, x, w, rows[oy], ep)
}
