//go:build amd64 && !purego

package tensor

// Every assembly kernel ends in the epilogue: the GEMM tiles take it
// on their accumulators before their one store, and the depthwise span
// on each output vector before its one store. Every lane does what
// applyOne and depthwiseGo do, with its operands in one fixed order
// (the input or running value first in a product or a sum, zero first
// in the ReLU's MAX, the cap first in its MIN), the order the golden
// digests were recorded with, so NaN, −0 and every rounding come out
// the same on each tier.

// Epilogue steps as the kernels read them, one bit each.
const (
	epBias = 1 << iota
	epScale
	epReLU
	epCap
)

// kernEpilogue is an Epilogue as the kernels read it. The assembly
// kernels read the first element of each per-column vector that is on
// (nil for a step that is off), and the steps as ep* bits; a kernel
// reads a vector from its own first column on, at an offset it is
// given. The generic tier's Go tile reads a copy of the Epilogue.
type kernEpilogue struct {
	bias, scale, shift *float32
	mode               int
	cap                float32
	generic            Epilogue
}

// kernel fills k, which is zero, with ep as the tier this process runs
// reads it, bounds-checking ep's per-column vectors over columns
// [0, n), n > 0, for the assembly tiers. A nil ep applies nothing. On
// the generic tier k holds a copy of ep, not ep itself: storing ep
// through k would make every caller's epilogue escape to the heap. k
// is filled in place, one field at a time: a struct returned by value
// is copied in halves that straddle its fields, and each such load
// stalls on the field stores just made.
func (ep *Epilogue) kernel(k *kernEpilogue, n int) {
	if ep == nil {
		return
	}
	if cpuTier == tierGeneric {
		k.generic = *ep
		return
	}
	mode := 0
	if ep.Bias != nil {
		k.bias = &ep.Bias[:n][0]
		mode |= epBias
	}
	if ep.Scale != nil {
		k.scale = &ep.Scale[:n][0]
		k.shift = &ep.Shift[:n][0]
		mode |= epScale
	}
	if ep.ReLU {
		mode |= epReLU
		if ep.Cap > 0 {
			mode |= epCap
			k.cap = ep.Cap
		}
	}
	k.mode = mode
}

// lanes is the widest vector the depthwise span runs on the tier this
// process runs: sixteen lanes on AVX-512, eight on AVX2, none on the
// generic tier, where depthwiseGo computes every channel.
func lanes() int {
	switch cpuTier {
	case tierAVX512:
		return 16
	case tierAVX2:
		return 8
	}
	return 0
}
