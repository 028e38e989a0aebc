package tensor

import (
	"math"
	"testing"
)

// naiveGemm is the oracle: the textbook triple loop with the epilogue
// applied afterwards.
func naiveGemm(m, n, k int, a, b []float32, ep *Epilogue) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = ep.applyOne(s, j)
		}
	}
	return c
}

func randMat(g *RNG, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(g.NormFloat64())
	}
	return out
}

func maxAbsDiff(a, b []float32) float64 {
	var worst float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst {
			worst = d
		}
	}
	return worst
}

func TestGemmMatchesNaive(t *testing.T) {
	g := NewRNG(7)
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {1, 5, 3}, {2, 7, 9}, {3, 4, 4}, {4, 4, 8},
		{5, 9, 16}, {7, 3, 31}, {8, 8, 8}, {9, 13, 5}, {12, 16, 27},
		{17, 6, 64}, {33, 33, 33}, {84, 32, 72}, {6, 256, 128},
	}
	for _, s := range shapes {
		a := randMat(g, s.m*s.k)
		b := randMat(g, s.k*s.n)
		bias := randMat(g, s.n)
		scale := randMat(g, s.n)
		shift := randMat(g, s.n)
		eps := []*Epilogue{
			nil,
			{Bias: bias},
			{Bias: bias, ReLU: true},
			{Bias: bias, ReLU: true, Cap: 1},
			{Bias: bias, Scale: scale, Shift: shift},
			{Scale: scale, Shift: shift, ReLU: true},
		}
		for ei, ep := range eps {
			want := naiveGemm(s.m, s.n, s.k, a, b, ep)
			got := make([]float32, s.m*s.n)
			for i := range got {
				got[i] = float32(g.NormFloat64()) // must be overwritten
			}
			Gemm(s.m, s.n, s.k, a, b, got, ep,
				make([]float32, PackASize(s.m, s.k)), make([]float32, PackBSize(s.k, s.n)))
			if d := maxAbsDiff(want, got); d > 1e-4 {
				t.Fatalf("m=%d n=%d k=%d ep#%d: max diff %v", s.m, s.n, s.k, ei, d)
			}
		}
	}
}

// TestGemmPackedRowSplit verifies that splitting the row range across
// independent GemmPacked calls is bitwise identical to one call over
// the full matrix — the property that lets callers split rows across
// goroutines through ARows.First.
func TestGemmPackedRowSplit(t *testing.T) {
	g := NewRNG(8)
	m, n, k := 21, 17, 40
	a := randMat(g, m*k)
	b := randMat(g, k*n)
	ep := &Epilogue{Bias: randMat(g, n), ReLU: true}

	bp := make([]float32, PackBSize(k, n))
	PackB(k, n, b, bp)
	whole := make([]float32, m*n)
	GemmPacked(m, n, k, a, bp, whole, ep, make([]float32, PackASize(m, k)))

	split := make([]float32, m*n)
	for _, blk := range []struct{ lo, hi int }{{0, 8}, {8, 12}, {12, 21}} {
		rows := blk.hi - blk.lo
		GemmPacked(rows, n, k, a[blk.lo*k:], bp, split[blk.lo*n:], ep,
			make([]float32, PackASize(rows, k)))
	}
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("row-split differs at %d: %v vs %v", i, whole[i], split[i])
		}
	}
}

func TestGemmZeroK(t *testing.T) {
	c := []float32{9, 9}
	Gemm(1, 2, 0, nil, nil, c, &Epilogue{Bias: []float32{1, -2}, ReLU: true}, nil, nil)
	if c[0] != 1 || c[1] != 0 {
		t.Fatalf("zero-k epilogue wrong: %v", c)
	}
}

// TestGemmPackedBitwiseMatchesThreePass pins GemmPacked to the scalar
// oracle's three passes — the rows gathered where they lie, each
// element summed from +0 with every product rounded before its add,
// then the epilogue — with ==: every output element must keep its
// sequential mul-then-add order over k. The shapes cover every m%8 and
// n%8, the 6×3 maps of a 96×39 frame (m=18), and the windowed
// microclassifier's head (24×1440×32).
func TestGemmPackedBitwiseMatchesThreePass(t *testing.T) {
	g := NewRNG(11)
	shapes := []struct{ m, n, k int }{
		{8, 8, 8}, {9, 8, 5}, {10, 9, 16}, {11, 15, 7}, {12, 16, 27}, {13, 1, 32},
		{17, 6, 64}, {18, 64, 64}, {18, 128, 64}, {21, 17, 40}, {33, 33, 33}, {24, 32, 1440},
		{1, 8, 3}, {3, 12, 9}, {5, 7, 31}, {6, 32, 128}, {14, 9, 12}, {15, 24, 20},
	}
	for _, s := range shapes {
		a, b := randMat(g, s.m*s.k), randMat(g, s.k*s.n)
		ep := &Epilogue{Bias: randMat(g, s.n), Scale: randMat(g, s.n), Shift: randMat(g, s.n), ReLU: true, Cap: 6}
		bp := make([]float32, PackBSize(s.k, s.n))
		PackB(s.k, s.n, b, bp)
		rows := Matrix(a, s.k)
		want, got := gemmScalar(s.m, s.n, &rows, b, ep), make([]float32, s.m*s.n)
		GemmPacked(s.m, s.n, s.k, a, bp, got, ep, make([]float32, PackASize(s.m, s.k)))
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("m=%d n=%d k=%d: [%d] %v, scalar oracle %v", s.m, s.n, s.k, i, got[i], want[i])
		}
	}
}
