package tensor

// Tap is one tap of a depthwise span: X is the input as the span's
// first pixel sees it through this tap (pixel p of the span reads
// channel c at X[p·xstride+c]), and W holds the tap's per-channel
// weights.
type Tap struct {
	X, W []float32
}

// DepthwiseSpan computes npix output pixels of ic channels each into
// dst (pixel p at dst[p·ic:]), channel c of pixel p as
//
//	v = Bias[c] (+0 without a bias)
//	v = v + X[p·xstride+c]·W[c]   for each tap, in order
//
// then ep's scale/shift and ReLU (see Epilogue), the product rounded
// before every add. Each output vector starts at its bias, accumulates
// every tap in a register, takes the epilogue there and is stored
// once: eight lanes wide on the AVX2 tier, four on SSE; the
// channels past the last whole vector, and every channel of the
// portable build, run depthwiseGo in the same order, so all tiers give
// the same bits. ep is not nil (a zero Epilogue applies nothing);
// xstride is not negative. A caller that keeps taps in a small array
// on its stack runs the span without allocating.
func DepthwiseSpan(dst []float32, npix, ic, xstride int, taps []Tap, ep *Epilogue) {
	if npix <= 0 || ic <= 0 {
		return
	}
	if xstride < 0 {
		panic("tensor: DepthwiseSpan with a negative xstride")
	}
	if c := depthwiseVec(dst, npix, ic, xstride, taps, ep); c < ic {
		depthwiseGo(dst, npix, ic, xstride, c, taps, ep)
	}
}

// depthwiseGo computes channels [c0, ic) of a DepthwiseSpan one lane at
// a time, each product written float32(x*y) so that no target fuses it
// into the add.
func depthwiseGo(dst []float32, npix, ic, xstride, c0 int, taps []Tap, ep *Epilogue) {
	for p := 0; p < npix; p++ {
		x0 := p * xstride
		out := dst[p*ic : (p+1)*ic]
		for c := c0; c < ic; c++ {
			var v float32
			if ep.Bias != nil {
				v = ep.Bias[c]
			}
			for _, t := range taps {
				v += float32(t.X[x0+c] * t.W[c])
			}
			out[c] = ep.activate(v, c)
		}
	}
}
