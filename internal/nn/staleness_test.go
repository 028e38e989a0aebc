package nn_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// stalenessNet has one op of every kind that keeps a packed weight
// copy — a lowered 3×3 conv, a pointwise conv and a dense layer, all
// with eight or more GEMM rows — and a depthwise op between them, which
// keeps none: its kernel reads the live weights.
func stalenessNet() (*nn.Network, *tensor.Tensor) {
	g := tensor.NewRNG(31)
	net := nn.NewNetwork("stale")
	net.Add(nn.NewConv2D("conv1", 3, 8, 3, 1, nn.Same, g)).
		Add(nn.NewBatchNorm("conv1/bn", 8)).
		Add(nn.NewReLU("conv1/relu")).
		Add(nn.NewDepthwiseConv2D("conv2/dw", 8, 3, 1, nn.Same, g)).
		Add(nn.NewReLU("conv2/relu")).
		Add(nn.NewConv2D("conv2/sep", 8, 16, 1, 1, nn.Same, g)).
		Add(nn.NewReLU("conv2/sep/relu")).
		Add(nn.NewFlatten("flatten")).
		Add(nn.NewDense("fc", 6*7*16, 5, g))
	x := tensor.New(8, 6, 7, 3)
	g.FillNormal(x, 0, 1)
	return net, x
}

// stalenessNetFewRows is the shape of a microclassifier's tail: a
// pointwise conv over a 2×3 map (m = 6) and a dense layer at batch 1.
// Ops this short used to read their weights live; they hold packed
// copies like every other GEMM op now.
func stalenessNetFewRows() (*nn.Network, *tensor.Tensor) {
	g := tensor.NewRNG(33)
	net := nn.NewNetwork("stale-few-rows")
	net.Add(nn.NewConv2D("pw", 8, 16, 1, 1, nn.Same, g)).
		Add(nn.NewReLU("pw/relu")).
		Add(nn.NewFlatten("flatten")).
		Add(nn.NewDense("fc", 2*3*16, 5, g))
	x := tensor.New(1, 2, 3, 8)
	g.FillNormal(x, 0, 1)
	return net, x
}

// TestProgramNeverServesStaleWeights sweeps the in-place weight
// writers: after an SGD step, an Adam step and a LoadParams, the
// compiled program (which has already run, so it holds packed copies)
// must agree with the layer-by-layer walk (Layerwise), and every packed
// copy must equal a fresh lowering of the live weights. The training forwards
// also move the batch-norm running statistics, which the program's
// cached fold must follow (TestProgramRefoldsBatchNorm pins that bit
// for bit).
func TestProgramNeverServesStaleWeights(t *testing.T) {
	t.Run("conv, depthwise, pointwise, dense", func(t *testing.T) {
		net, x := stalenessNet()
		neverServesStaleWeights(t, net, x, 3)
	})
	t.Run("pointwise at m=6, dense at batch 1", func(t *testing.T) {
		net, x := stalenessNetFewRows()
		neverServesStaleWeights(t, net, x, 2)
	})
}

func neverServesStaleWeights(t *testing.T, net *nn.Network, x *tensor.Tensor, packed int) {
	prog, err := nn.Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()

	check := func(after string) {
		t.Helper()
		want, _ := nn.Layerwise(net, x.Clone())
		got := prog.Run(ws, x)
		for i := range want.Data {
			g, w := float64(got.Data[i]), float64(want.Data[i])
			if math.Abs(g-w) > 1e-5*(1+math.Abs(w)) {
				t.Fatalf("after %s: [%d] program %v vs network %v", after, i, g, w)
			}
		}
		n, err := prog.CheckPacked()
		if err != nil {
			t.Fatalf("after %s: %v", after, err)
		}
		if n != packed {
			t.Fatalf("after %s: %d packed copies checked, want %d", after, n, packed)
		}
	}
	step := func(opt train.Optimizer) {
		out := net.Forward(x.Clone())
		grad := tensor.New(out.Shape...)
		tensor.NewRNG(32).FillNormal(grad, 0, 1)
		net.Backward(grad)
		opt.Step(net.Params())
	}

	check("compile")
	var saved bytes.Buffer
	if err := nn.SaveParams(&saved, net); err != nil {
		t.Fatal(err)
	}
	before := prog.Run(ws, x).Clone()

	step(train.NewSGD(0.05, 0.9, 1e-4))
	check("SGD step")
	step(train.NewAdam(0.01))
	check("Adam step")
	moved := false
	for i, v := range prog.Run(ws, x).Data {
		moved = moved || v != before.Data[i]
	}
	if !moved {
		t.Fatal("two optimizer steps left the program's output unchanged")
	}

	if err := nn.LoadParams(&saved, net); err != nil {
		t.Fatal(err)
	}
	check("LoadParams")
}

// TestProgramRefoldsBatchNorm: a program keeps each batch-norm's fold
// (scale and shift) per op and recomputes it only when gamma or beta
// is Touched or a training Forward moves the running statistics. After
// each such change the program, which has already run and holds a
// fold, must equal the layer walk bit for bit, and its output must
// have moved, so a stale fold cannot pass. The net has a batch-norm
// fused into a convolution, one fused into a depthwise convolution,
// and a stand-alone one.
func TestProgramRefoldsBatchNorm(t *testing.T) {
	g := tensor.NewRNG(35)
	net := nn.NewNetwork("refold")
	net.Add(nn.NewConv2D("conv1", 3, 8, 3, 1, nn.Same, g)).
		Add(nn.NewBatchNorm("conv1/bn", 8)).
		Add(nn.NewReLU("conv1/relu")).
		Add(nn.NewDepthwiseConv2D("conv2/dw", 8, 3, 1, nn.Same, g)).
		Add(nn.NewBatchNorm("conv2/bn", 8)).
		Add(nn.NewReLU("conv2/relu")).
		Add(nn.NewBatchNorm("alone/bn", 8)).
		Add(nn.NewFlatten("flatten")).
		Add(nn.NewDense("fc", 5*6*8, 3, g))
	x := tensor.New(4, 5, 6, 3)
	g.FillNormal(x, 0, 1)
	prog, err := nn.Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	var last []float32
	check := func(after string) {
		t.Helper()
		want, _ := nn.Layerwise(net, x.Clone())
		got := prog.Run(ws, x)
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("after %s: [%d] program %v, layer walk %v", after, i, got.Data[i], want.Data[i])
			}
		}
		moved := last == nil
		for i, v := range got.Data {
			moved = moved || v != last[i]
		}
		if !moved {
			t.Fatalf("after %s: the program's output did not move", after)
		}
		last = append(last[:0], got.Data...)
	}

	check("compile")
	var saved bytes.Buffer
	if err := nn.SaveParams(&saved, net); err != nil {
		t.Fatal(err)
	}

	// A training forward alone moves only the running statistics.
	net.Forward(x.Clone())
	check("a training forward")

	out := net.Forward(x.Clone())
	grad := tensor.New(out.Shape...)
	tensor.NewRNG(36).FillNormal(grad, 0, 1)
	net.Backward(grad)
	train.NewSGD(0.1, 0, 0).Step(net.Params())
	check("one training step")

	if err := nn.LoadParams(&saved, net); err != nil {
		t.Fatal(err)
	}
	check("LoadParams")
}
