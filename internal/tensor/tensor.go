// Package tensor provides a minimal dense float32 tensor used by the
// neural-network engine in internal/nn. Tensors are stored in NHWC
// layout (batch, height, width, channels) for rank-4 data, which keeps
// the innermost loop of convolutions over channels and therefore
// cache-friendly for the depthwise-separable architectures this
// repository is built around.
//
// The package is deliberately small: shape algebra, element access,
// arithmetic helpers, slicing/cropping, and deterministic random
// initialization. Anything layer-specific lives in internal/nn.
package tensor

import "fmt"

// Tensor is a dense float32 tensor with row-major layout. The last
// dimension varies fastest. For image data the canonical layout is
// NHWC; rank-1 and rank-2 tensors are used for biases and dense-layer
// weights.
type Tensor struct {
	// Shape holds the extent of each dimension, outermost first.
	Shape []int
	// Data is the backing array, of length Prod(Shape).
	Data []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := Prod(shape)
	if n < 0 {
		panic(fmt.Sprintf("tensor: negative shape %v", shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data in a tensor with the given shape. The slice is
// used directly (not copied); len(data) must equal Prod(shape).
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != Prod(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Prod returns the product of the dims, or 0 for an empty shape. It
// returns -1 if any dim is negative.
func Prod(shape []int) int {
	if len(shape) == 0 {
		return 0
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return -1
		}
		n *= d
	}
	return n
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if u.Shape[i] != d {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Prod(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// At returns the element at the given indices. Intended for tests and
// low-rate access; hot loops index Data directly.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx...)]
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx...)] = v
}

// offset converts multi-dimensional indices to a flat offset.
func (t *Tensor) offset(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		d := t.Shape[i]
		if x < 0 || x >= d {
			panic(fmt.Sprintf("tensor: index %d out of range [0,%d) in dim %d", x, d, i))
		}
		off = off*d + x
	}
	return off
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AXPY computes t += a*u element-wise.
func (t *Tensor) AXPY(a float32, u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: axpy shape mismatch %v vs %v", t.Shape, u.Shape))
	}
	for i, v := range u.Data {
		t.Data[i] += a * v
	}
}

// Sum returns the sum of all elements in float64 for stability.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for empty.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element and its flat index. It panics on an
// empty tensor.
func (t *Tensor) Max() (float32, int) {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	best, arg := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, arg = v, i+1
		}
	}
	return best, arg
}

// String renders a compact description, not the full contents.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}

// CropHW returns a copy of the spatial region [y0,y1)×[x0,x1) of a
// rank-4 NHWC tensor, preserving batch and channel dims. This is the
// primitive behind microclassifier feature-map cropping (§3.2 of the
// paper): cropping activations rather than pixels lets every
// microclassifier choose its own region of interest.
func (t *Tensor) CropHW(y0, y1, x0, x1 int) *Tensor {
	if t.Rank() != 4 {
		panic(fmt.Sprintf("tensor: CropHW needs rank-4 NHWC, got %v", t.Shape))
	}
	n, h, w, c := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	if y0 < 0 || x0 < 0 || y1 > h || x1 > w || y0 >= y1 || x0 >= x1 {
		panic(fmt.Sprintf("tensor: crop [%d:%d,%d:%d] out of bounds for %dx%d", y0, y1, x0, x1, h, w))
	}
	ch, cw := y1-y0, x1-x0
	out := New(n, ch, cw, c)
	for b := 0; b < n; b++ {
		for y := 0; y < ch; y++ {
			srcRow := ((b*h+(y+y0))*w + x0) * c
			dstRow := ((b*ch+y)*cw + 0) * c
			copy(out.Data[dstRow:dstRow+cw*c], t.Data[srcRow:srcRow+cw*c])
		}
	}
	return out
}

// CropHWInto writes the spatial region [y0,y1)×[x0,x1) of t into dst,
// which must already have shape [N, y1-y0, x1-x0, C]. It is CropHW
// without the allocation — the primitive behind the zero-allocation
// microclassifier streaming path.
func (t *Tensor) CropHWInto(dst *Tensor, y0, y1, x0, x1 int) {
	if t.Rank() != 4 || dst.Rank() != 4 {
		panic(fmt.Sprintf("tensor: CropHWInto needs rank-4 NHWC, got %v -> %v", t.Shape, dst.Shape))
	}
	n, h, w, c := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	if y0 < 0 || x0 < 0 || y1 > h || x1 > w || y0 >= y1 || x0 >= x1 {
		panic(fmt.Sprintf("tensor: crop [%d:%d,%d:%d] out of bounds for %dx%d", y0, y1, x0, x1, h, w))
	}
	ch, cw := y1-y0, x1-x0
	if dst.Shape[0] != n || dst.Shape[1] != ch || dst.Shape[2] != cw || dst.Shape[3] != c {
		panic(fmt.Sprintf("tensor: CropHWInto dst %v does not fit crop [%d,%d,%d,%d] of %v", dst.Shape, n, ch, cw, c, t.Shape))
	}
	for b := 0; b < n; b++ {
		for y := 0; y < ch; y++ {
			srcRow := ((b*h+(y+y0))*w + x0) * c
			dstRow := ((b*ch+y)*cw + 0) * c
			copy(dst.Data[dstRow:dstRow+cw*c], t.Data[srcRow:srcRow+cw*c])
		}
	}
}

// ConcatChannels depthwise-concatenates rank-4 NHWC tensors with equal
// batch and spatial dims. It is the primitive behind the windowed
// microclassifier (§3.3.3), which concatenates per-frame activations.
func ConcatChannels(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatChannels of nothing")
	}
	n, h, w := ts[0].Shape[0], ts[0].Shape[1], ts[0].Shape[2]
	totalC := 0
	for _, t := range ts {
		if t.Rank() != 4 || t.Shape[0] != n || t.Shape[1] != h || t.Shape[2] != w {
			panic(fmt.Sprintf("tensor: concat shape mismatch %v vs %v", ts[0].Shape, t.Shape))
		}
		totalC += t.Shape[3]
	}
	out := New(n, h, w, totalC)
	pos := 0
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst := ((b*h+y)*w + x) * totalC
				off := 0
				for _, t := range ts {
					c := t.Shape[3]
					src := ((b*h+y)*w + x) * c
					copy(out.Data[dst+off:dst+off+c], t.Data[src:src+c])
					off += c
				}
				_ = pos
			}
		}
	}
	return out
}

// ConcatChannelsInto is ConcatChannels without the allocation: dst
// must already have shape [N, H, W, ΣC]. Used by the windowed
// microclassifier's zero-allocation streaming path.
func ConcatChannelsInto(dst *Tensor, ts ...*Tensor) {
	if len(ts) == 0 {
		panic("tensor: ConcatChannelsInto of nothing")
	}
	n, h, w := ts[0].Shape[0], ts[0].Shape[1], ts[0].Shape[2]
	totalC := 0
	for _, t := range ts {
		if t.Rank() != 4 || t.Shape[0] != n || t.Shape[1] != h || t.Shape[2] != w {
			panic(fmt.Sprintf("tensor: concat shape mismatch %v vs %v", ts[0].Shape, t.Shape))
		}
		totalC += t.Shape[3]
	}
	if dst.Shape[0] != n || dst.Shape[1] != h || dst.Shape[2] != w || dst.Shape[3] != totalC {
		panic(fmt.Sprintf("tensor: ConcatChannelsInto dst %v does not fit [%d,%d,%d,%d]", dst.Shape, n, h, w, totalC))
	}
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				base := ((b*h+y)*w + x) * totalC
				off := 0
				for _, t := range ts {
					c := t.Shape[3]
					src := ((b*h+y)*w + x) * c
					copy(dst.Data[base+off:base+off+c], t.Data[src:src+c])
					off += c
				}
			}
		}
	}
}

// SplitChannels is the inverse of ConcatChannels: it splits t along the
// channel dim into parts of the given sizes.
func SplitChannels(t *Tensor, sizes ...int) []*Tensor {
	if t.Rank() != 4 {
		panic("tensor: SplitChannels needs rank-4 NHWC")
	}
	n, h, w, c := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	sum := 0
	for _, s := range sizes {
		sum += s
	}
	if sum != c {
		panic(fmt.Sprintf("tensor: split sizes %v do not sum to %d channels", sizes, c))
	}
	parts := make([]*Tensor, len(sizes))
	for i, s := range sizes {
		parts[i] = New(n, h, w, s)
	}
	for b := 0; b < n; b++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				src := ((b*h+y)*w + x) * c
				off := 0
				for i, s := range sizes {
					dst := ((b*h+y)*w + x) * s
					copy(parts[i].Data[dst:dst+s], t.Data[src+off:src+off+s])
					off += s
				}
			}
		}
	}
	return parts
}
