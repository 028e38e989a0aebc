package nn

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

func TestOutDim(t *testing.T) {
	cases := []struct {
		in, k, s   int
		pad        Padding
		out, padLo int
	}{
		{8, 3, 1, valid, 6, 0},
		{8, 3, 1, Same, 8, 1},
		{8, 3, 2, Same, 4, 0},
		{9, 3, 2, Same, 5, 1},
		{7, 3, 2, valid, 3, 0},
		{2, 3, 1, valid, 0, 0},
		{224, 3, 2, Same, 112, 0},
	}
	for _, c := range cases {
		out, padLo := outDim(c.in, c.k, c.s, c.pad)
		if out != c.out || padLo != c.padLo {
			t.Errorf("outDim(%d,%d,%d,%v) = (%d,%d), want (%d,%d)", c.in, c.k, c.s, c.pad, out, padLo, c.out, c.padLo)
		}
	}
}

func TestConvKnownValues(t *testing.T) {
	g := tensor.NewRNG(1)
	c := NewConv2D("c", 1, 1, 3, 1, valid, g)
	// 3x3 identity-ish: kernel of all ones, bias 2.
	c.W.Value.Fill(1)
	c.B.Value.Fill(2)
	x := tensor.New(1, 3, 3, 1)
	for i := range x.Data {
		x.Data[i] = float32(i) // 0..8, sum 36
	}
	out := c.Forward(x)
	if !reflect.DeepEqual(out.Shape, []int{1, 1, 1, 1}) {
		t.Fatalf("conv out shape %v", out.Shape)
	}
	if out.Data[0] != 38 {
		t.Fatalf("conv value %v, want 38", out.Data[0])
	}
}

func TestConvSamePaddingCenters(t *testing.T) {
	g := tensor.NewRNG(1)
	c := NewConv2D("c", 1, 1, 3, 1, Same, g)
	c.W.Value.Zero()
	// Only the center tap is 1: output must equal input.
	c.W.Value.Set(1, 1, 1, 0, 0)
	c.B.Value.Zero()
	x := tensor.New(1, 4, 5, 1)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	out := c.Forward(x)
	if !out.SameShape(x) {
		t.Fatalf("same-padded conv changed shape: %v", out.Shape)
	}
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("center-tap conv not identity at %d", i)
		}
	}
}

func TestDepthwiseActsPerChannel(t *testing.T) {
	g := tensor.NewRNG(1)
	d := NewDepthwiseConv2D("d", 2, 1, 1, Same, g)
	d.W.Value.Set(2, 0, 0, 0) // channel 0 doubled
	d.W.Value.Set(3, 0, 0, 1) // channel 1 tripled
	d.B.Value.Zero()
	x := tensor.New(1, 2, 2, 2)
	x.Fill(1)
	out := d.Forward(x)
	for p := 0; p < 4; p++ {
		if out.Data[p*2] != 2 || out.Data[p*2+1] != 3 {
			t.Fatalf("depthwise mixed channels: %v", out.Data)
		}
	}
}

func TestDenseKnownValues(t *testing.T) {
	g := tensor.NewRNG(1)
	d := NewDense("fc", 2, 2, g)
	copy(d.W.Value.Data, []float32{1, 2, 3, 4}) // [[1,2],[3,4]]
	copy(d.B.Value.Data, []float32{10, 20})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	out := d.Forward(x)
	if out.Data[0] != 14 || out.Data[1] != 26 {
		t.Fatalf("dense = %v, want [14 26]", out.Data)
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	m := NewMaxPool2D("mp", 2, 2, valid)
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4, 1)
	out := m.Forward(x)
	want := []float32{6, 8, 14, 16}
	if !reflect.DeepEqual(out.Data, want) {
		t.Fatalf("maxpool = %v, want %v", out.Data, want)
	}
}

func TestGlobalMaxFindsAnyLocation(t *testing.T) {
	gm := NewGlobalMax("gm")
	x := tensor.New(1, 5, 7, 1)
	x.Fill(-1)
	x.Set(9, 0, 3, 6, 0)
	out := gm.Forward(x)
	if out.Data[0] != 9 {
		t.Fatalf("global max = %v, want 9", out.Data[0])
	}
}

func TestReLU6Caps(t *testing.T) {
	r := NewReLU6("r")
	x := tensor.FromSlice([]float32{-3, 3, 9}, 3)
	out := r.Forward(x)
	if out.Data[0] != 0 || out.Data[1] != 3 || out.Data[2] != 6 {
		t.Fatalf("relu6 = %v", out.Data)
	}
}

// TestReLUBackwardMask pins the gradient mask Backward reads off the
// cached output at the kinks, where finite differences cannot: the
// gradient passes only where Forward copied the input through.
func TestReLUBackwardMask(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	x := []float32{-1, negZero, 0, 1e-30, 0.5, 5.999, 6, 7}
	for _, tc := range []struct {
		r    *ReLU
		pass []bool
	}{
		{NewReLU("r"), []bool{false, false, false, true, true, true, true, true}},
		{NewReLU6("r6"), []bool{false, false, false, true, true, true, false, false}},
	} {
		tc.r.Forward(tensor.FromSlice(append([]float32(nil), x...), len(x)))
		grad := tensor.New(len(x))
		grad.Fill(1)
		gin := tc.r.Backward(grad)
		for i, want := range tc.pass {
			if got := gin.Data[i] == 1; got != want {
				t.Errorf("%s: x=%v passes gradient %v, want %v", tc.r.LayerName, x[i], got, want)
			}
		}
	}
}

func TestMAddsFormulas(t *testing.T) {
	g := tensor.NewRNG(1)
	// Paper §4.5: conv madds = (H/S)(W/S)·M·K²·F.
	c := NewConv2D("c", 16, 32, 3, 2, Same, g)
	in := []int{1, 64, 64, 16}
	want := int64(32*32) * 16 * 9 * 32
	if got := c.MAdds(in); got != want {
		t.Errorf("conv madds = %d, want %d", got, want)
	}
	// Separable: (H/S)(W/S)·M·(K²+F).
	dw, pw := SeparableConv2D("s", 16, 32, 3, 2, Same, g)
	gotSep := dw.MAdds(in) + pw.MAdds(dw.OutShape(in))
	wantSep := int64(32*32) * 16 * (9 + 32)
	if gotSep != wantSep {
		t.Errorf("sepconv madds = %d, want %d", gotSep, wantSep)
	}
	// FC: N·H·W·M.
	d := NewDense("fc", 7*12*512, 200, g)
	if got := d.MAdds([]int{1, 7 * 12 * 512}); got != int64(200*7*12*512) {
		t.Errorf("dense madds = %d", got)
	}
}

// TestProgramTapsAndRunTo reads intermediate activations the way the
// base DNN's extractor does: by layer name through OpIndex, either from
// a whole Run or from a RunTo that stops at the tap.
func TestProgramTapsAndRunTo(t *testing.T) {
	g := tensor.NewRNG(1)
	net := NewNetwork("t").
		Add(NewConv2D("conv1", 1, 2, 3, 1, Same, g)).
		Add(NewReLU("relu1")).
		Add(NewConv2D("conv2", 2, 3, 3, 2, Same, g)).
		Add(NewReLU("relu2"))
	x := randInput(1, 8, 8, 1)
	prog, err := Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	out := prog.Run(ws, x)
	i1, ok1 := prog.OpIndex("relu1")
	i2, ok2 := prog.OpIndex("relu2")
	if !ok1 || !ok2 {
		t.Fatal("fused ReLU taps not addressable")
	}
	tap := prog.Output(ws, i1).Clone()
	if !reflect.DeepEqual(tap.Shape, []int{1, 8, 8, 2}) {
		t.Fatalf("tap relu1 shape %v", tap.Shape)
	}
	if prog.Output(ws, i2) != out {
		t.Fatal("final tap should be the program output")
	}
	mid := prog.RunTo(prog.NewWorkspace(), x, i1)
	for i := range mid.Data {
		if mid.Data[i] != tap.Data[i] {
			t.Fatal("RunTo disagrees with Run's tap")
		}
	}
}

func TestNetworkMAddsTo(t *testing.T) {
	g := tensor.NewRNG(1)
	net := NewNetwork("t").
		Add(NewConv2D("conv1", 1, 2, 3, 1, Same, g)).
		Add(NewConv2D("conv2", 2, 3, 3, 1, Same, g))
	in := []int{1, 8, 8, 1}
	m1, shape1 := net.MAddsTo("conv1", in)
	if m1 != net.Layers()[0].MAdds(in) {
		t.Fatal("MAddsTo(conv1) wrong")
	}
	if !reflect.DeepEqual(shape1, []int{1, 8, 8, 2}) {
		t.Fatalf("MAddsTo shape %v", shape1)
	}
	mAll, _ := net.MAddsTo("conv2", in)
	if mAll != net.MAdds(in) {
		t.Fatal("MAddsTo(last) != MAdds")
	}
}

func TestNetworkDuplicateNamePanics(t *testing.T) {
	g := tensor.NewRNG(1)
	net := NewNetwork("t").Add(NewReLU("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate layer name did not panic")
		}
	}()
	net.Add(NewReLU6("a"))
	_ = g
}

func TestSerializationRoundTrip(t *testing.T) {
	g := tensor.NewRNG(5)
	build := func(rng *tensor.RNG) *Network {
		return NewNetwork("ser").
			Add(NewConv2D("conv1", 1, 2, 3, 1, Same, rng)).
			Add(NewReLU("r")).
			Add(NewFlatten("fl")).
			Add(NewDense("fc", 2*4*4, 1, rng))
	}
	src := build(g)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := build(tensor.NewRNG(999)) // different init
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	x := randInput(1, 4, 4, 1)
	a := src.Forward(x.Clone())
	b := dst.Forward(x.Clone())
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded network differs from saved network")
		}
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	g := tensor.NewRNG(5)
	src := NewNetwork("a").Add(NewDense("fc", 4, 2, g))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewNetwork("a").Add(NewDense("fc", 5, 2, g))
	if err := LoadParams(&buf, dst); err == nil {
		t.Fatal("shape mismatch not rejected")
	}
}

func TestLoadRejectsMissingParam(t *testing.T) {
	g := tensor.NewRNG(5)
	src := NewNetwork("a").Add(NewDense("fc", 4, 2, g))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := NewNetwork("a").
		Add(NewDense("fc", 4, 2, g)).
		Add(NewDense("fc2", 2, 1, g))
	if err := LoadParams(&buf, dst); err == nil {
		t.Fatal("missing parameter not rejected")
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	x := tensor.New(4, 3, 3, 2)
	g := tensor.NewRNG(7)
	g.FillNormal(x, 5, 3)
	out := bn.Forward(x)
	// Per-channel mean ~0 and var ~1 after normalization with
	// gamma=1, beta=0.
	for ci := 0; ci < 2; ci++ {
		var mean, varsum float64
		count := 0
		for p := 0; p < out.Len()/2; p++ {
			mean += float64(out.Data[p*2+ci])
			count++
		}
		mean /= float64(count)
		for p := 0; p < out.Len()/2; p++ {
			d := float64(out.Data[p*2+ci]) - mean
			varsum += d * d
		}
		varsum /= float64(count)
		if mean > 1e-4 || mean < -1e-4 {
			t.Fatalf("bn channel %d mean %v", ci, mean)
		}
		if varsum < 0.98 || varsum > 1.02 {
			t.Fatalf("bn channel %d var %v", ci, varsum)
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	bn.RunningMean.Data[0] = 10
	bn.RunningVar.Data[0] = 4
	x := tensor.New(1, 1, 1, 1)
	x.Data[0] = 14
	prog, err := Compile(NewNetwork("bn").Add(bn), x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	out := prog.Run(prog.NewWorkspace(), x)
	// (14-10)/sqrt(4+eps) ~= 2.
	if out.Data[0] < 1.99 || out.Data[0] > 2.01 {
		t.Fatalf("bn inference = %v, want ~2", out.Data[0])
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	g := tensor.NewRNG(1)
	c := NewConv2D("c", 3, 8, 3, 1, Same, g)
	x := randInput(4, 16, 16, 3)
	old := Workers
	defer func() { Workers = old }()
	Workers = 1
	serial := c.Forward(x)
	Workers = 8
	par := c.Forward(x)
	for i := range serial.Data {
		if serial.Data[i] != par.Data[i] {
			t.Fatal("parallel conv differs from serial")
		}
	}
}
