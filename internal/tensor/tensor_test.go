package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 {
		t.Fatalf("Rank = %d, want 3", x.Rank())
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestOffsetRowMajor(t *testing.T) {
	x := New(2, 3, 4)
	if got := x.offset(1, 2, 3); got != 1*12+2*4+3 {
		t.Fatalf("offset(1,2,3) = %d, want 23", got)
	}
	x.Set(42, 1, 2, 3)
	if x.At(1, 2, 3) != 42 {
		t.Fatal("Set/At round trip failed")
	}
	if x.Data[23] != 42 {
		t.Fatal("Set did not write row-major offset")
	}
}

func TestOffsetPanicsOutOfRange(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	x.At(0, 2)
}

func TestCloneIsDeep(t *testing.T) {
	x := New(3)
	x.Data[0] = 1
	y := x.Clone()
	y.Data[0] = 2
	if x.Data[0] != 1 {
		t.Fatal("Clone shares data with original")
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[5] = 7
	if x.Data[5] != 7 {
		t.Fatal("Reshape did not share data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestArithmetic(t *testing.T) {
	x := FromSlice([]float32{11, 22, 33}, 3)
	y := FromSlice([]float32{10, 20, 30}, 3)
	x.Scale(2)
	if x.Data[0] != 22 {
		t.Fatalf("Scale got %v", x.Data)
	}
	x.AXPY(0.5, y)
	if x.Data[1] != 44+10 {
		t.Fatalf("AXPY got %v", x.Data)
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-1, 4, 2, 3}, 4)
	if x.Sum() != 8 {
		t.Fatalf("Sum = %v, want 8", x.Sum())
	}
	if x.Mean() != 2 {
		t.Fatalf("Mean = %v, want 2", x.Mean())
	}
	v, i := x.Max()
	if v != 4 || i != 1 {
		t.Fatalf("Max = (%v,%d), want (4,1)", v, i)
	}
}

func TestCropHW(t *testing.T) {
	// 1x3x4x2 tensor with Data[((y*4)+x)*2+c] = 100*y + 10*x + c.
	x := New(1, 3, 4, 2)
	for y := 0; y < 3; y++ {
		for xx := 0; xx < 4; xx++ {
			for c := 0; c < 2; c++ {
				x.Set(float32(100*y+10*xx+c), 0, y, xx, c)
			}
		}
	}
	crop := x.CropHW(1, 3, 2, 4)
	want := []int{1, 2, 2, 2}
	for i, d := range want {
		if crop.Shape[i] != d {
			t.Fatalf("crop shape %v, want %v", crop.Shape, want)
		}
	}
	if crop.At(0, 0, 0, 0) != 120 || crop.At(0, 1, 1, 1) != 231 {
		t.Fatalf("crop contents wrong: %v", crop.Data)
	}
}

func TestCropPasteAdjoint(t *testing.T) {
	// Pasting a crop's worth of gradient back must land on exactly the
	// cropped region.
	x := New(1, 4, 4, 1)
	g := New(1, 2, 2, 1)
	g.Fill(1)
	pasteHW(x, g, 1, 2)
	var sum float32
	for _, v := range x.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("paste sum = %v, want 4", sum)
	}
	if x.At(0, 1, 2, 0) != 1 || x.At(0, 2, 3, 0) != 1 || x.At(0, 0, 0, 0) != 0 {
		t.Fatal("paste wrote outside target region")
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	g := NewRNG(1)
	a := New(2, 3, 3, 2)
	b := New(2, 3, 3, 5)
	g.FillNormal(a, 0, 1)
	g.FillNormal(b, 0, 1)
	cat := ConcatChannels(a, b)
	if cat.Shape[3] != 7 {
		t.Fatalf("concat channels = %d, want 7", cat.Shape[3])
	}
	parts := SplitChannels(cat, 2, 5)
	for i, p := range []*Tensor{a, b} {
		if !p.SameShape(parts[i]) {
			t.Fatalf("part %d shape %v, want %v", i, parts[i].Shape, p.Shape)
		}
		for j := range p.Data {
			if p.Data[j] != parts[i].Data[j] {
				t.Fatalf("part %d differs at %d", i, j)
			}
		}
	}
}

func TestConcatPreservesSpatialLayout(t *testing.T) {
	a := New(1, 2, 2, 1)
	b := New(1, 2, 2, 1)
	a.Set(5, 0, 1, 0, 0)
	b.Set(7, 0, 1, 0, 0)
	cat := ConcatChannels(a, b)
	if cat.At(0, 1, 0, 0) != 5 || cat.At(0, 1, 0, 1) != 7 {
		t.Fatal("concat misplaced channel values")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	x, y := New(100), New(100)
	a.FillNormal(x, 0, 1)
	b.FillNormal(y, 0, 1)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestHeInitStatistics(t *testing.T) {
	g := NewRNG(3)
	x := New(20000)
	g.FillHe(x, 50)
	mean := x.Mean()
	var varsum float64
	for _, v := range x.Data {
		varsum += (float64(v) - mean) * (float64(v) - mean)
	}
	std := math.Sqrt(varsum / float64(x.Len()))
	want := math.Sqrt(2.0 / 50.0)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("He mean = %v, want ~0", mean)
	}
	if math.Abs(std-want)/want > 0.05 {
		t.Fatalf("He std = %v, want ~%v", std, want)
	}
}

// Property: CropHW then pasteHW into a zero tensor reproduces the
// cropped region and only that region.
func TestQuickCropPaste(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		h, w, c := 2+g.Intn(6), 2+g.Intn(6), 1+g.Intn(3)
		x := New(1, h, w, c)
		g.FillNormal(x, 0, 1)
		y0 := g.Intn(h - 1)
		x0 := g.Intn(w - 1)
		y1 := y0 + 1 + g.Intn(h-y0-1) + 1
		if y1 > h {
			y1 = h
		}
		x1 := x0 + 1 + g.Intn(w-x0-1) + 1
		if x1 > w {
			x1 = w
		}
		crop := x.CropHW(y0, y1, x0, x1)
		back := New(1, h, w, c)
		pasteHW(back, crop, y0, x0)
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for ch := 0; ch < c; ch++ {
					in := y >= y0 && y < y1 && xx >= x0 && xx < x1
					got := back.At(0, y, xx, ch)
					if in && got != x.At(0, y, xx, ch) {
						return false
					}
					if !in && got != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ConcatChannels/SplitChannels are mutual inverses for
// arbitrary channel splits.
func TestQuickConcatSplit(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		n, h, w := 1+g.Intn(2), 1+g.Intn(4), 1+g.Intn(4)
		k := 2 + g.Intn(3)
		parts := make([]*Tensor, k)
		sizes := make([]int, k)
		for i := range parts {
			sizes[i] = 1 + g.Intn(4)
			parts[i] = New(n, h, w, sizes[i])
			g.FillNormal(parts[i], 0, 1)
		}
		cat := ConcatChannels(parts...)
		back := SplitChannels(cat, sizes...)
		for i := range parts {
			for j := range parts[i].Data {
				if parts[i].Data[j] != back[i].Data[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// pasteHW adds src into the spatial region of t starting at (y0, x0):
// the adjoint of CropHW, which the crop tests check it against.
func pasteHW(t, src *Tensor, y0, x0 int) {
	n, h, w, c := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	sh, sw := src.Shape[1], src.Shape[2]
	for b := 0; b < n; b++ {
		for y := 0; y < sh; y++ {
			dstRow := ((b*h+(y+y0))*w + x0) * c
			srcRow := ((b*sh+y)*sw + 0) * c
			for i := 0; i < sw*c; i++ {
				t.Data[dstRow+i] += src.Data[srcRow+i]
			}
		}
	}
}
