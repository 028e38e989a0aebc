package tensor

// Tap is one tap of a depthwise span, as offsets into the input and
// the weights: pixel p of the span reads channel c through the tap at
// x[X + p·xstride + c] and weighs it by w[W + c].
type Tap struct {
	X, W int
}

// Span is a run of Npix output pixels of a depthwise row, from pixel
// Out on (dst[Out·ic:]), that share their taps.
type Span struct {
	Out, Npix int
	Taps      []Tap
}

// DepthwiseSpans computes the spans of a depthwise row into dst, ic
// channels per pixel, channel c of pixel p of a span as
//
//	v = Bias[c] (+0 without a bias)
//	v = v + x[t.X + p·xstride + c]·w[t.W + c]   for each tap t, in order
//
// then ep's scale/shift and ReLU (see Epilogue), the product rounded
// before every add. Each output vector starts at its bias, accumulates
// every tap in a register, takes the epilogue there and is stored
// once: sixteen lanes wide on the AVX-512 tier (eight for a last block
// of eight channels) and eight on AVX2, eight vectors at a time across
// pixels and channel blocks where a span has them, and all spans in
// one kernel call; the channels past the last whole vector, and every
// channel on the generic tier, run depthwiseGo in the same order, so
// all tiers give the same bits. ep is not nil (a
// zero Epilogue applies nothing); xstride is not negative; every span
// must lie inside dst, and every tap inside x and w for every pixel
// and channel of its span. A caller that builds its spans once runs
// them without allocating.
func DepthwiseSpans(dst []float32, ic, xstride int, x, w []float32, spans []Span, ep *Epilogue) {
	if ic <= 0 || len(spans) == 0 {
		return
	}
	if xstride < 0 {
		panic("tensor: DepthwiseSpans with a negative xstride")
	}
	// The kernels read and write unchecked: every span's pixels, and
	// every tap at its last pixel, must lie inside their slices.
	for i := range spans {
		sp := &spans[i]
		if sp.Out < 0 || sp.Npix < 0 || sp.Out+sp.Npix > len(dst)/ic {
			panic("tensor: DepthwiseSpans span outside dst")
		}
		if sp.Npix == 0 || len(sp.Taps) == 0 {
			continue
		}
		xl, wl := len(x)-(sp.Npix-1)*xstride-ic, len(w)-ic
		if xl < 0 || wl < 0 {
			panic("tensor: DepthwiseSpans tap outside its input or weights")
		}
		for _, t := range sp.Taps {
			if uint(t.X) > uint(xl) || uint(t.W) > uint(wl) {
				panic("tensor: DepthwiseSpans tap outside its input or weights")
			}
		}
	}
	if len(dst) < ic {
		return // every span is empty
	}
	if c := depthwiseVec(dst, ic, xstride, x, w, spans, ep); c < ic {
		for _, sp := range spans {
			depthwiseGo(dst[sp.Out*ic:], sp.Npix, ic, xstride, c, x, w, sp.Taps, ep)
		}
	}
}

// depthwiseGo computes channels [c0, ic) of npix pixels one lane at a
// time, each product written float32(x*y) so that no target fuses it
// into the add.
func depthwiseGo(dst []float32, npix, ic, xstride, c0 int, x, w []float32, taps []Tap, ep *Epilogue) {
	for p := 0; p < npix; p++ {
		x0 := p * xstride
		out := dst[p*ic : (p+1)*ic]
		for c := c0; c < ic; c++ {
			var v float32
			if ep.Bias != nil {
				v = ep.Bias[c]
			}
			for _, t := range taps {
				v += float32(x[t.X+x0+c] * w[t.W+c])
			}
			out[c] = ep.activate(v, c)
		}
	}
}
