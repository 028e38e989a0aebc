//go:build amd64 && !purego

package tensor

// depthwiseVec computes the spans' channels up to the last whole vector
// and returns how many that is: whole vectors of lanes() channels, and
// on the AVX-512 tier a last block of eight after the blocks of
// sixteen; none on the generic tier. DepthwiseSpans has checked every
// span and tap.
func depthwiseVec(dst []float32, ic, xstride int, x, w []float32, spans []Span, ep *Epilogue) int {
	l := lanes()
	if l == 0 {
		return 0
	}
	wide := ic &^ (l - 1)
	nc := wide
	if l == 16 {
		nc = ic &^ 7
	}
	if nc == 0 {
		return 0
	}
	var xp, wp *float32
	if len(x) > 0 && len(w) > 0 {
		xp, wp = &x[0], &w[0]
	}
	var kep kernEpilogue
	ep.kernel(&kep, nc)
	switch {
	case l == 8:
		depthwiseAVX2(&dst[0], 0, nc, ic, xstride, xp, wp, &spans[0], len(spans), &kep)
	default:
		if wide > 0 {
			depthwiseAVX512(&dst[0], 0, wide, ic, xstride, xp, wp, &spans[0], len(spans), &kep)
		}
		if nc > wide {
			depthwiseAVX2(&dst[0], wide, nc, ic, xstride, xp, wp, &spans[0], len(spans), &kep)
		}
	}
	return nc
}

// Implemented in depthwise_avx2_amd64.s and depthwise_avx512_amd64.s:
// channels [c0, nc) of nspans > 0 spans of a depthwise row, c0 and nc
// multiples of the kernel's lane count (8, 16), c0 < nc. Operands are
// as in DepthwiseSpans; x and w are read only through the spans' taps,
// and may be nil where no span has one.
//
//go:noescape
func depthwiseAVX2(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)

//go:noescape
func depthwiseAVX512(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)
