//go:build amd64 && !purego

package tensor

// The register-blocked kernels that end in the epilogue: Epilogue.Apply
// and the depthwise span, each in two vector widths (epilogue_amd64.s):
// eight lanes on the AVX2 and AVX-512 tiers, four on SSE. Every lane
// does what applyOne and depthwiseGo do, with its operands in one fixed
// order (the input or running value first in a product or a sum, zero
// first in the ReLU's MAX, the cap first in its MIN), the order the
// golden digests were recorded with, so NaN, −0 and every rounding
// come out the same on each tier.

// Epilogue steps as the kernels read them, one bit each.
const (
	epBias = 1 << iota
	epScale
	epReLU
	epCap
)

func (ep *Epilogue) mode() int {
	m := 0
	if ep.Bias != nil {
		m |= epBias
	}
	if ep.Scale != nil {
		m |= epScale
	}
	if ep.ReLU {
		m |= epReLU
		if ep.Cap > 0 {
			m |= epCap
		}
	}
	return m
}

// lanes is the vector width of the epilogue and the depthwise span on
// the tier this process runs: the AVX-512 tier keeps them at eight.
func lanes() int {
	if cpuTier >= tierAVX2 {
		return 8
	}
	return 4
}

// vecOperands bounds-checks ep's per-column vectors over columns
// [0, n), n > 0, and returns the first element of each, nil for a step
// that is off.
func (ep *Epilogue) vecOperands(n int) (bias, scale, shift *float32) {
	if ep.Bias != nil {
		bias = &ep.Bias[:n][0]
	}
	if ep.Scale != nil {
		scale = &ep.Scale[:n][0]
		shift = &ep.Shift[:n][0]
	}
	return bias, scale, shift
}

// applyVec runs the epilogue over the whole vectors of the m rows of
// c, n columns each, and returns how many leading columns it covered.
func (ep *Epilogue) applyVec(c []float32, m, n int) int {
	mode := ep.mode()
	if mode == 0 {
		return n
	}
	nv := n &^ (lanes() - 1)
	if nv == 0 {
		return 0
	}
	_ = c[(m-1)*n+nv-1]
	bias, scale, shift := ep.vecOperands(nv)
	if lanes() == 8 {
		epilogueAVX2(m, nv, n, &c[0], bias, scale, shift, mode, ep.Cap)
	} else {
		epilogueSSE(m, nv, n, &c[0], bias, scale, shift, mode, ep.Cap)
	}
	return nv
}

// depthwiseVec computes a DepthwiseSpan's channels up to the last whole
// vector and returns how many that is.
func depthwiseVec(dst []float32, npix, ic, xstride int, taps []Tap, ep *Epilogue) int {
	nc := ic &^ (lanes() - 1)
	if nc == 0 {
		return 0
	}
	_ = dst[(npix-1)*ic+nc-1]
	last := (npix-1)*xstride + nc - 1
	for i := range taps {
		_ = taps[i].X[last]
		_ = taps[i].W[nc-1]
	}
	var tp *Tap
	if len(taps) > 0 {
		tp = &taps[0]
	}
	bias, scale, shift := ep.vecOperands(nc)
	if lanes() == 8 {
		depthwiseAVX2(&dst[0], npix, nc, ic, xstride, tp, len(taps), bias, scale, shift, ep.mode(), ep.Cap)
	} else {
		depthwiseSSE(&dst[0], npix, nc, ic, xstride, tp, len(taps), bias, scale, shift, ep.mode(), ep.Cap)
	}
	return nc
}

// Implemented in epilogue_amd64.s. m is positive, and n and nc are
// positive multiples of the tier's lane count; bias, scale and shift
// are read only where mode has their bit.
//
//go:noescape
func epilogueSSE(m, n, ld int, c, bias, scale, shift *float32, mode int, cap float32)

//go:noescape
func epilogueAVX2(m, n, ld int, c, bias, scale, shift *float32, mode int, cap float32)

//go:noescape
func depthwiseSSE(dst *float32, npix, nc, ic, xstride int, taps *Tap, ntaps int, bias, scale, shift *float32, mode int, cap float32)

//go:noescape
func depthwiseAVX2(dst *float32, npix, nc, ic, xstride int, taps *Tap, ntaps int, bias, scale, shift *float32, mode int, cap float32)
