package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// close5 checks |a-b| <= tol*(1+|b|) element-wise — the fast path must
// match the naive reference kernels to float32 working precision.
func close5(t *testing.T, who string, got, want *tensor.Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", who, got.Shape, want.Shape)
	}
	for i := range want.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		if math.Abs(g-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: [%d] fast %v vs reference %v (tol %v)", who, i, g, w, tol)
		}
	}
}

// convShapeTable covers the satellite's required shape space: Same and
// valid padding, stride > 1, odd-pad edges (even inputs with Same
// padding produce asymmetric pads), and 1×1 pointwise convolutions.
var convShapeTable = []struct {
	name           string
	h, w, ic, f    int
	kernel, stride int
	pad            Padding
	batch          int
}{
	{"same-k3s1", 9, 11, 3, 8, 3, 1, Same, 1},
	{"same-k3s2-even", 8, 12, 4, 6, 3, 2, Same, 2},
	{"same-k3s2-odd", 7, 9, 5, 7, 3, 2, Same, 1},
	{"same-k5s1", 10, 10, 2, 5, 5, 1, Same, 1},
	{"same-k5s3", 11, 13, 3, 4, 5, 3, Same, 1},
	{"valid-k3s1", 9, 9, 3, 8, 3, 1, valid, 1},
	{"valid-k3s2", 10, 8, 6, 5, 3, 2, valid, 2},
	{"valid-k5s2", 12, 11, 2, 9, 5, 2, valid, 1},
	{"pointwise-1x1", 6, 7, 16, 12, 1, 1, Same, 1},
	{"pointwise-1x1-batch", 5, 5, 8, 32, 1, 1, Same, 3},
	{"tiny-map", 2, 3, 64, 33, 3, 1, Same, 1},
	{"kernel-larger-than-input", 3, 3, 2, 4, 5, 1, Same, 1},
}

func TestConv2DFastMatchesReference(t *testing.T) {
	for _, tc := range convShapeTable {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.NewRNG(3)
			l := NewConv2D("c", tc.ic, tc.f, tc.kernel, tc.stride, tc.pad, g)
			g.FillNormal(l.B.Value, 0, 0.5)
			x := tensor.New(tc.batch, tc.h, tc.w, tc.ic)
			g.FillNormal(x, 0, 1)
			close5(t, tc.name, l.Forward(x), l.forwardReference(x), 1e-5)
		})
	}
}

func TestDepthwiseFastMatchesReference(t *testing.T) {
	for _, tc := range convShapeTable {
		t.Run(tc.name, func(t *testing.T) {
			g := tensor.NewRNG(4)
			l := NewDepthwiseConv2D("d", tc.ic, tc.kernel, tc.stride, tc.pad, g)
			g.FillNormal(l.B.Value, 0, 0.5)
			x := tensor.New(tc.batch, tc.h, tc.w, tc.ic)
			g.FillNormal(x, 0, 1)
			close5(t, tc.name, l.Forward(x), l.forwardReference(x), 1e-5)
		})
	}
}

func TestDenseFastMatchesReference(t *testing.T) {
	for _, tc := range []struct{ batch, in, out int }{
		{1, 7, 5}, {1, 200, 1}, {3, 64, 200}, {16, 33, 17}, {64, 128, 32},
	} {
		g := tensor.NewRNG(5)
		l := NewDense("fc", tc.in, tc.out, g)
		g.FillNormal(l.B.Value, 0, 0.5)
		x := tensor.New(tc.batch, tc.in)
		g.FillNormal(x, 0, 1)
		close5(t, "dense", l.Forward(x), l.forwardReference(x), 1e-5)
	}
}

// sameBits fails unless got and want have one shape and the same
// float32 bit patterns.
func sameBits(t *testing.T, who string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v vs %v", who, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: [%d] %v, want %v", who, i, got.Data[i], want.Data[i])
		}
	}
}

// fusedHeads name the tails buildFusedNet closes its trunk with;
// between them the three nets reach every operator a program runs.
var fusedHeads = []string{"flatten-dense", "global-avg", "global-max"}

// buildFusedNet assembles a stack that exercises every fusion the
// compiler performs and every stand-alone op, with non-trivial
// batch-norm running statistics: conv+BN+ReLU, a stride-1 (row-vectorized)
// depthwise+BN+ReLU, a pointwise conv+ReLU, a stride-2 depthwise+BN,
// max-pool, then a stand-alone ReLU, batch-norm and ReLU6, and one of
// the fusedHeads: flatten, dense+ReLU6 and dense; global average pool
// and dense; or a 1×1 conv to one logit and a global max.
func buildFusedNet(t *testing.T, head string) (*Network, *tensor.Tensor) {
	t.Helper()
	g := tensor.NewRNG(6)
	bn := func(name string, c int) *BatchNorm {
		b := NewBatchNorm(name, c)
		g.FillNormal(b.Gamma.Value, 1, 0.2)
		g.FillNormal(b.Beta.Value, 0, 0.2)
		g.FillNormal(b.RunningMean, 0, 0.3)
		g.FillUniform(b.RunningVar, 0.5, 1.5)
		return b
	}
	conv := NewConv2D("conv1", 3, 8, 3, 2, Same, g)
	g.FillNormal(conv.B.Value, 0, 0.5)
	net := NewNetwork("fused-" + head)
	net.Add(conv).Add(bn("conv1/bn", 8)).Add(NewReLU("conv1/relu")).
		Add(NewDepthwiseConv2D("conv2/dw", 8, 3, 1, Same, g)).Add(bn("conv2/bn", 8)).Add(NewReLU("conv2/relu")).
		Add(NewConv2D("conv3/sep", 8, 16, 1, 1, Same, g)).Add(NewReLU("conv3/relu")).
		Add(NewDepthwiseConv2D("conv4/dw", 16, 3, 2, Same, g)).Add(bn("conv4/bn", 16)).
		Add(NewMaxPool2D("pool", 2, 2, Same)).
		Add(NewReLU("pool/relu")).Add(bn("pool/bn", 16)).Add(NewReLU6("pool/relu6"))
	switch head {
	case "flatten-dense":
		net.Add(NewFlatten("flatten")).
			Add(NewDense("fc1", 2*2*16, 10, g)).Add(NewReLU6("fc1/relu6")).
			Add(NewDense("fc2", 10, 1, g))
	case "global-avg":
		net.Add(NewGlobalAvgPool("gap")).Add(NewDense("fc", 16, 1, g))
	case "global-max":
		net.Add(NewConv2D("logits", 16, 1, 1, 1, Same, g)).Add(NewGlobalMax("gmax"))
	default:
		t.Fatalf("unknown head %q", head)
	}
	x := tensor.New(1, 9, 13, 3)
	g.FillNormal(x, 0, 4) // wide enough that both ReLU6s clip
	return net, x
}

// TestProgramMatchesNetwork pins the frozen, fused program to the
// layer-by-layer walk of Layerwise bit for bit, the batch-norm fold
// included: the final output and the output of every op (a fused
// group's last layer). The walk runs each operator through the loop the
// program runs, so there is nothing to tolerate; the reference kernels
// pin that loop's arithmetic.
func TestProgramMatchesNetwork(t *testing.T) {
	for _, head := range fusedHeads {
		t.Run(head, func(t *testing.T) {
			net, x := buildFusedNet(t, head)
			prog, err := Compile(net, x.Shape)
			if err != nil {
				t.Fatal(err)
			}
			ws := prog.NewWorkspace()
			names := net.LayerNames()
			want, wantTaps := Layerwise(net, x.Clone())
			sameBits(t, "final", prog.Run(ws, x), want)
			ops := map[int]bool{}
			for _, name := range names {
				if idx, ok := prog.OpIndex(name); ok {
					sameBits(t, name, prog.Output(ws, idx), wantTaps[name])
					ops[idx] = true
				}
			}
			if len(ops) != len(prog.ops) {
				t.Fatalf("compared %d of %d ops", len(ops), len(prog.ops))
			}
		})
	}
}

// TestProgramTracksLiveWeights verifies that a compiled program never
// serves stale weights: mutating weights (and Touching them) after the
// program has run must change its output without recompilation (the
// property that makes interleaved training and frozen inference safe).
func TestProgramTracksLiveWeights(t *testing.T) {
	net, x := buildFusedNet(t, "flatten-dense")
	prog, err := Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	before := prog.Run(ws, x).Clone()

	for _, p := range net.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] *= 1.5
		}
		p.Touch() // the contract for raw Value.Data writes
	}
	after := prog.Run(ws, x)
	want, _ := Layerwise(net, x.Clone())
	sameBits(t, "live-weights", after, want)
	same := true
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("program output unchanged after weight mutation: stale packed weights served")
	}
}

// TestProgramZeroAlloc pins the steady-state execution of a compiled
// program at zero heap allocations per frame — and the run that
// repacks after a weight update too: repacking is in place. A
// depthwise op larger than 3×3 (5×5 over 12×12×16, with batch-norm and
// ReLU) runs without allocating too: its span lists are built at compile
// time, whatever the kernel size.
func TestProgramZeroAlloc(t *testing.T) {
	net, x := buildFusedNet(t, "flatten-dense")
	prog, err := Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	prog.Run(ws, x) // warm up: first pack
	if n := testing.AllocsPerRun(50, func() { prog.Run(ws, x) }); n != 0 {
		t.Fatalf("program Run allocates %v objects per frame, want 0", n)
	}

	g := tensor.NewRNG(9)
	x5 := tensor.New(1, 12, 12, 16)
	g.FillNormal(x5, 0, 1)
	dw5, err := CompileLayers("dw5x5", []Layer{NewDepthwiseConv2D("dw", 16, 5, 1, Same, g),
		NewBatchNorm("dw/bn", 16), NewReLU("dw/relu")}, x5.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws5 := dw5.NewWorkspace()
	dw5.Run(ws5, x5)
	if n := testing.AllocsPerRun(50, func() { dw5.Run(ws5, x5) }); n != 0 {
		t.Fatalf("a 5×5 depthwise program allocates %v objects per run, want 0", n)
	}
	params := net.Params()
	if n := testing.AllocsPerRun(50, func() {
		for _, p := range params {
			p.Touch()
		}
		prog.Run(ws, x)
	}); n != 0 {
		t.Fatalf("program Run allocates %v objects when it repacks, want 0", n)
	}
}

// TestProgramConcurrentWorkspaces runs two workspaces of one program
// from two goroutines, starting on weights that were just Touched so
// both race to repack. Run under -race; the outputs must equal the
// layer-by-layer walk bit for bit on every iteration.
func TestProgramConcurrentWorkspaces(t *testing.T) {
	net, x := buildFusedNet(t, "flatten-dense")
	prog, err := Compile(net, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		for _, p := range net.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] *= 1.01
			}
			p.Touch()
		}
		want := prog.Run(prog.NewWorkspace(), x).Clone()
		for _, p := range net.Params() {
			p.Touch() // stale again, with nobody having repacked yet
		}
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := prog.NewWorkspace()
				for i := 0; i < 20; i++ {
					got := prog.Run(ws, x)
					for j := range want.Data {
						if got.Data[j] != want.Data[j] {
							t.Errorf("round %d run %d: [%d] %v, want %v", round, i, j, got.Data[j], want.Data[j])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		layerwise, _ := Layerwise(net, x.Clone())
		sameBits(t, "concurrent", want, layerwise)
	}
}

// TestFrozenInferenceDoesNotContaminateTraining is the satellite
// regression: running fused inference between a training forward and
// its backward must not disturb activation caches, pooling argmaxes,
// batch-norm running statistics, or the resulting gradients.
func TestFrozenInferenceDoesNotContaminateTraining(t *testing.T) {
	build := func() (*Network, *tensor.Tensor) { return buildFusedNet(t, "flatten-dense") }

	// Gradients without any interleaved inference.
	netA, x := build()
	outA := netA.Forward(x.Clone())
	gradA := tensor.New(outA.Shape...)
	gradA.Fill(1)
	netA.Backward(gradA)

	// Same training step, but with frozen inference squeezed between
	// forward and backward.
	netB, _ := build()
	prog, err := Compile(netB, x.Shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	outB := netB.Forward(x.Clone())

	var statsBefore []float32
	for _, l := range netB.Layers() {
		if bn, ok := l.(*BatchNorm); ok {
			statsBefore = append(statsBefore, bn.RunningMean.Data...)
			statsBefore = append(statsBefore, bn.RunningVar.Data...)
		}
	}
	for i := 0; i < 3; i++ {
		prog.Run(ws, x)
	}
	var statsAfter []float32
	for _, l := range netB.Layers() {
		if bn, ok := l.(*BatchNorm); ok {
			statsAfter = append(statsAfter, bn.RunningMean.Data...)
			statsAfter = append(statsAfter, bn.RunningVar.Data...)
		}
	}
	for i := range statsBefore {
		if statsBefore[i] != statsAfter[i] {
			t.Fatalf("frozen inference moved batch-norm running stats at %d: %v -> %v",
				i, statsBefore[i], statsAfter[i])
		}
	}

	gradB := tensor.New(outB.Shape...)
	gradB.Fill(1)
	netB.Backward(gradB) // panics if any lastX cache was clobbered

	paramsA, paramsB := netA.Params(), netB.Params()
	for pi := range paramsA {
		for i := range paramsA[pi].Grad.Data {
			if paramsA[pi].Grad.Data[i] != paramsB[pi].Grad.Data[i] {
				t.Fatalf("param %s grad[%d] differs after interleaved frozen inference: %v vs %v",
					paramsA[pi].Name, i, paramsA[pi].Grad.Data[i], paramsB[pi].Grad.Data[i])
			}
		}
	}
}

// TestForwardDeterministicAcrossWorkers pins the training-path forward
// to worker-count independence: the GEMM row blocking must produce
// bitwise identical outputs for any parallel split.
func TestForwardDeterministicAcrossWorkers(t *testing.T) {
	g := tensor.NewRNG(9)
	l := NewConv2D("c", 8, 16, 3, 1, Same, g)
	x := tensor.New(2, 17, 19, 8)
	g.FillNormal(x, 0, 1)

	old := Workers
	defer func() { Workers = old }()
	Workers = 1
	serial := l.Forward(x)
	Workers = 7
	parallel := l.Forward(x)
	for i := range serial.Data {
		if serial.Data[i] != parallel.Data[i] {
			t.Fatalf("conv forward depends on worker count at %d", i)
		}
	}
}

// im2col is the first pass of the scalar oracle: it lowers the NHWC
// input into a row-major matrix, one row of K·K·inC per output
// position, zero where a tap falls outside the input.
func (g convGeom) im2col(xd []float32) []float32 {
	kw := g.colWidth()
	col := make([]float32, g.n*g.oh*g.ow*kw)
	for r := 0; r < g.n*g.oh*g.ow; r++ {
		b, oy, ox := r/(g.oh*g.ow), r/g.ow%g.oh, r%g.ow
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				iy, ix := oy*g.s-g.padY+ky, ox*g.s-g.padX+kx
				if iy < 0 || iy >= g.h || ix < 0 || ix >= g.w {
					continue
				}
				src := ((b*g.h+iy)*g.w + ix) * g.ic
				copy(col[r*kw+(ky*g.k+kx)*g.ic:], xd[src:src+g.ic])
			}
		}
	}
	return col
}

// gemmThreePass is the scalar oracle every GEMM-backed op is pinned
// to, after the rows are gathered (im2col, or a dense input as it
// lies): each element of the m×k rows a times the k×n weights w sums
// its k products from +0 in ascending order, each product rounded
// before its add, then takes the epilogue in tensor's applyOne order —
// bias, scale/shift, ReLU and its cap. It shares no kernel, tile walk
// or packing with the code under test.
func gemmThreePass(m, n, k int, a, w []float32, ep tensor.Epilogue) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var v float32
			for p := 0; p < k; p++ {
				v += float32(a[i*k+p] * w[p*n+j])
			}
			if ep.Bias != nil {
				v += ep.Bias[j]
			}
			if ep.Scale != nil {
				v = float32(v*ep.Scale[j]) + ep.Shift[j]
			}
			if ep.ReLU {
				if v < 0 {
					v = 0
				} else if ep.Cap > 0 && v > ep.Cap {
					v = ep.Cap
				}
			}
			c[i*n+j] = v
		}
	}
	return c
}

// convThreePass is the scalar oracle for one convolution: im2col, then
// gemmThreePass.
func convThreePass(l *Conv2D, x *tensor.Tensor, ep tensor.Epilogue) *tensor.Tensor {
	g := l.geom(x.Shape)
	out := tensor.New(g.n, g.oh, g.ow, g.f)
	copy(out.Data, gemmThreePass(g.n*g.oh*g.ow, g.f, g.colWidth(), g.im2col(x.Data), l.W.Value.Data, ep))
	return out
}

// specials are the values a kernel may not treat like ordinary
// numbers: the NaN this machine's arithmetic generates (the only one
// injected, so which NaN survives a sum cannot depend on operand
// order), ±Inf, −0 and denormals.
func specials() []float32 {
	inf := float32(math.Inf(1))
	return []float32{inf - inf, inf, -inf, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff)}
}

// sprinkle writes each special into v at a seeded position.
func sprinkle(rng *tensor.RNG, v []float32) {
	for _, s := range specials() {
		v[rng.Intn(len(v))] = s
	}
}

// bnReLU6 returns a batch-norm over c channels with non-trivial running
// statistics, a ReLU6 after it, and the epilogue a program folds them
// into behind bias.
func bnReLU6(rng *tensor.RNG, name string, c int, bias []float32) ([]Layer, tensor.Epilogue) {
	bn := NewBatchNorm(name+"/bn", c)
	rng.FillNormal(bn.Gamma.Value, 1, 0.2)
	rng.FillNormal(bn.Beta.Value, 0, 0.2)
	rng.FillNormal(bn.RunningMean, 0, 0.3)
	rng.FillUniform(bn.RunningVar, 0.5, 1.5)
	scale, shift := bnFold(bn, make([]float32, 2*c))
	return []Layer{bn, NewReLU6(name + "/relu6")},
		tensor.Epilogue{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 6}
}

// TestConvLoweringBitwiseMatchesThreePass pins the convolution — its
// input read in place or through the zero-haloed staging copy, and the
// prepacked weights — to the scalar oracle's three passes (im2col, the
// scalar sums, the epilogue) with ==, not a tolerance: the golden
// digests of bench/ depend on every output element keeping its
// sequential mul-then-add order over k. Both callers are checked: the
// layers' Forward at one and seven workers, and compiled programs, one
// with the conv alone and one fusing batch-norm and ReLU6. Inputs,
// weights and biases hold NaN, ±Inf, −0 and denormals, and the weights
// of the first and last taps are infinite, so a halo tap multiplies
// +0 by Inf as im2col's zero did.
func TestConvLoweringBitwiseMatchesThreePass(t *testing.T) {
	table := append(convShapeTable[:len(convShapeTable):len(convShapeTable)], []struct {
		name           string
		h, w, ic, f    int
		kernel, stride int
		pad            Padding
		batch          int
	}{
		{"rows-mod4-1", 5, 5, 4, 8, 3, 1, Same, 1},  // m=25
		{"rows-mod4-2", 3, 6, 4, 16, 3, 1, Same, 1}, // m=18, the 6×3 maps of a 96×39 frame
		{"cols-mod8-1", 6, 6, 8, 9, 3, 1, valid, 1}, // n=9
		{"pointwise-rows-mod4", 3, 6, 64, 128, 1, 1, Same, 1},
		{"pointwise-under-smallm", 2, 3, 16, 12, 1, 1, Same, 1},
		{"windowed-mc-head", 4, 6, 160, 32, 3, 1, Same, 1}, // 24×1440×32
		{"windowed-mc-conv2", 4, 6, 32, 32, 3, 2, Same, 1}, // m=6
		{"base-conv1", 54, 96, 3, 8, 3, 2, Same, 1},        // pads only right and bottom
		{"dc-conv1", 39, 96, 3, 32, 3, 2, Same, 1},         // the DC's first conv on a 96×39 frame
		{"pointwise-m6", 2, 3, 256, 32, 1, 1, Same, 1},
		{"pointwise-m25", 5, 5, 64, 16, 1, 1, Same, 1},
		{"pointwise-stride2", 5, 7, 8, 9, 1, 2, Same, 2},
	}...)
	old := Workers
	defer func() { Workers = old }()
	for _, tc := range table {
		t.Run(tc.name, func(t *testing.T) {
			rng := tensor.NewRNG(21)
			l := NewConv2D("c", tc.ic, tc.f, tc.kernel, tc.stride, tc.pad, rng)
			rng.FillNormal(l.B.Value, 0, 0.5)
			x := tensor.New(tc.batch, tc.h, tc.w, tc.ic)
			rng.FillNormal(x, 0, 1)
			sprinkle(rng, x.Data)
			sprinkle(rng, l.W.Value.Data)
			sprinkle(rng, l.B.Value.Data)
			w := l.W.Value.Data
			w[0], w[len(w)-1] = float32(math.Inf(1)), float32(math.Inf(-1))
			bias := l.B.Value.Data
			want := convThreePass(l, x, tensor.Epilogue{Bias: bias})

			Workers = 1
			sameBits(t, "Forward", l.Forward(x), want)
			Workers = 7
			sameBits(t, "Forward/7 workers", l.Forward(x), want)

			prog, err := CompileLayers("c", []Layer{l}, x.Shape)
			if err != nil {
				t.Fatal(err)
			}
			ws := prog.NewWorkspace()
			sameBits(t, "Program.Run", prog.Run(ws, x), want)
			sameBits(t, "Program.Run again", prog.Run(ws, x), want)

			tail, ep := bnReLU6(rng, "c", tc.f, bias)
			prog, err = CompileLayers("c+bn+relu6", append([]Layer{l}, tail...), x.Shape)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Program with BN + ReLU6", prog.Run(prog.NewWorkspace(), x), convThreePass(l, x, ep))
		})
	}
}

// TestDenseBitwiseMatchesThreePass pins the fully-connected layer to
// the scalar oracle with ==, through both callers: Forward at one and
// seven workers, and compiled programs with and without a fused ReLU6.
// The batches are a microclassifier's one row, six rows (one ragged
// tile) and 25 (several tiles and a ragged one); the widths include a
// localized head's 192→32 fc1 and a lone output column. Inputs,
// weights and biases hold NaN, ±Inf, −0 and denormals.
func TestDenseBitwiseMatchesThreePass(t *testing.T) {
	old := Workers
	defer func() { Workers = old }()
	for _, tc := range []struct{ batch, in, out int }{
		{1, 192, 32}, {6, 192, 32}, {25, 192, 32}, {1, 32, 1}, {6, 7, 9}, {25, 33, 17},
	} {
		rng := tensor.NewRNG(31)
		d := NewDense("fc", tc.in, tc.out, rng)
		rng.FillNormal(d.B.Value, 0, 0.5)
		x := tensor.New(tc.batch, tc.in)
		rng.FillNormal(x, 0, 1)
		sprinkle(rng, x.Data)
		sprinkle(rng, d.W.Value.Data)
		sprinkle(rng, d.B.Value.Data)
		who := func(s string) string { return fmt.Sprintf("%+v %s", tc, s) }
		bias := d.B.Value.Data
		want := tensor.New(tc.batch, tc.out)
		copy(want.Data, gemmThreePass(tc.batch, tc.out, tc.in, x.Data, d.W.Value.Data, tensor.Epilogue{Bias: bias}))

		Workers = 1
		sameBits(t, who("Forward"), d.Forward(x), want)
		Workers = 7
		sameBits(t, who("Forward/7 workers"), d.Forward(x), want)

		prog, err := CompileLayers("fc", []Layer{d}, x.Shape)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, who("Program.Run"), prog.Run(prog.NewWorkspace(), x), want)

		ep := tensor.Epilogue{Bias: bias, ReLU: true, Cap: 6}
		copy(want.Data, gemmThreePass(tc.batch, tc.out, tc.in, x.Data, d.W.Value.Data, ep))
		prog, err = CompileLayers("fc+relu6", []Layer{d, NewReLU6("fc/relu6")}, x.Shape)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, who("Program with ReLU6"), prog.Run(prog.NewWorkspace(), x), want)
	}
}

// TestProgramWorkspaceReuseKeepsHalo runs a program whose convolutions
// stage their inputs with a zero halo on X, then on Y, with one
// workspace: the result must equal Y on a fresh workspace bit for bit.
// X is full of NaN and Inf, so a staging copy that ever wrote its halo
// would leave them where Y's run reads zeros.
func TestProgramWorkspaceReuseKeepsHalo(t *testing.T) {
	rng := tensor.NewRNG(33)
	c1 := NewConv2D("conv1", 3, 8, 3, 1, Same, rng)
	c2 := NewConv2D("conv2", 8, 8, 3, 2, Same, rng)
	prog, err := CompileLayers("halo", []Layer{c1, NewReLU("conv1/relu"), c2}, []int{2, 7, 9, 3})
	if err != nil {
		t.Fatal(err)
	}
	staged := 0
	for _, op := range prog.ops {
		if op.stage >= 0 {
			staged++
		}
	}
	if staged != 2 {
		t.Fatalf("%d of the program's convolutions stage their input, want 2", staged)
	}
	x, y := tensor.New(2, 7, 9, 3), tensor.New(2, 7, 9, 3)
	rng.FillNormal(y, 0, 1)
	inf := float32(math.Inf(1))
	for i := range x.Data {
		x.Data[i] = []float32{inf - inf, inf, -inf}[i%3]
	}
	ws := prog.NewWorkspace()
	prog.Run(ws, x)
	sameBits(t, "Y after X", prog.Run(ws, y), prog.Run(prog.NewWorkspace(), y))
}

// BenchmarkConv times, as compiled single-layer programs, the four
// GEMM-backed layers that carry the time of a frame at the benchmark's
// 96×54 frame size and width multiplier 0.25: the base DNN's first
// convolution (3×3, stride 2, over three channels: the staged halo and
// 27-deep receptive fields), its largest pointwise convolution, the
// windowed microclassifier's first convolution (3×3 over 160 channels
// of a 6×4 map) and a microclassifier's batch-1 fc1.
func BenchmarkConv(b *testing.B) {
	rng := tensor.NewRNG(43)
	for _, s := range []struct {
		name  string
		layer Layer
		in    []int
	}{
		{"base-conv1-96x54x3-s2", NewConv2D("conv1", 3, 8, 3, 2, Same, rng), []int{1, 54, 96, 3}},
		{"base-pw-6x4x128", NewConv2D("conv5_1/sep", 128, 128, 1, 1, Same, rng), []int{1, 4, 6, 128}},
		{"windowed-conv1-6x4x160", NewConv2D("conv1", 160, 32, 3, 1, Same, rng), []int{1, 4, 6, 160}},
		{"fc1-1x192x32", NewDense("fc1", 192, 32, rng), []int{1, 192}},
	} {
		b.Run(s.name, func(b *testing.B) {
			x := tensor.New(s.in...)
			rng.FillNormal(x, 0, 1)
			prog, err := CompileLayers(s.name, []Layer{s.layer, NewReLU("relu")}, x.Shape)
			if err != nil {
				b.Fatal(err)
			}
			ws := prog.NewWorkspace()
			prog.Run(ws, x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog.Run(ws, x)
			}
			b.ReportMetric(float64(s.layer.MAdds(x.Shape))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAdd/s")
		})
	}
}

// depthwiseRowScalar is the arithmetic of the depthwise kernels before
// the span kernel (bounds tested per tap rather than hoisted), kept as
// the oracle the span kernel is pinned to bit for bit: scalar loops
// over the channel span for every tap and for the epilogue, each
// product rounded before its add.
func depthwiseRowScalar(g convGeom, xd, wd, out []float32, ep tensor.Epilogue, job int) {
	b, oy := job/g.oh, job%g.oh
	iy0 := oy*g.s - g.padY
	for ox := 0; ox < g.ow; ox++ {
		dst := ((b*g.oh+oy)*g.ow + ox) * g.ic
		acc := out[dst : dst+g.ic]
		for i := range acc {
			acc[i] = 0
			if ep.Bias != nil {
				acc[i] = ep.Bias[i]
			}
		}
		ix0 := ox*g.s - g.padX
		for ky := 0; ky < g.k; ky++ {
			for kx := 0; kx < g.k; kx++ {
				iy, ix := iy0+ky, ix0+kx
				if iy < 0 || iy >= g.h || ix < 0 || ix >= g.w {
					continue
				}
				xin := xd[((b*g.h+iy)*g.w+ix)*g.ic:]
				wv := wd[(ky*g.k+kx)*g.ic:]
				for ci := range acc {
					acc[ci] += float32(xin[ci] * wv[ci])
				}
			}
		}
		for ci, v := range acc {
			if ep.Scale != nil {
				v = float32(v*ep.Scale[ci]) + ep.Shift[ci]
			}
			if ep.ReLU {
				if v < 0 {
					v = 0
				} else if ep.Cap > 0 && v > ep.Cap {
					v = ep.Cap
				}
			}
			acc[ci] = v
		}
	}
}

// TestDepthwiseRowBitwiseMatchesScalar pins the depthwise kernel at
// every stride to the scalar loops with ==, through both of its
// callers: the layers' Forward path (depthwiseForward) under every
// epilogue, and a compiled program fusing batch-norm and ReLU6. The
// rows cover channel counts that are all vector tail or leave one, the
// padded edges, rows with no interior span and rows that are nearly
// all interior (the base DNN's 48-wide first depthwise layer), valid
// padding, and NaN, ±Inf, −0 and denormals in the input.
func TestDepthwiseRowBitwiseMatchesScalar(t *testing.T) {
	rng := tensor.NewRNG(41)
	for _, tc := range []struct {
		h, w, ic, k, s int
		pad            Padding
	}{
		{9, 11, 8, 3, 2, Same}, {8, 12, 16, 3, 2, Same}, {7, 9, 13, 3, 2, Same},
		{11, 13, 32, 5, 3, Same}, {10, 8, 9, 3, 2, valid}, {6, 5, 64, 3, 2, Same},
		{7, 9, 5, 3, 2, Same},   // narrower than any vector: all tail
		{3, 3, 8, 3, 1, Same},   // stride 1, every pixel a border pixel
		{5, 48, 8, 3, 1, Same},  // stride 1, one 46-pixel interior span
		{3, 6, 64, 3, 1, Same},  // stride 1, the 6×3 maps at 64 channels
		{6, 9, 16, 3, 1, valid}, // no border pixels at all
	} {
		l := NewDepthwiseConv2D("d", tc.ic, tc.k, tc.s, tc.pad, rng)
		rng.FillNormal(l.B.Value, 0, 0.5)
		x := tensor.New(2, tc.h, tc.w, tc.ic)
		rng.FillNormal(x, 0, 2)
		for i, s := range specials() {
			x.Data[(i*131+7)%len(x.Data)] = s
		}
		g := l.geom(x.Shape)
		vec := func(n int) []float32 {
			v := tensor.New(n)
			rng.FillNormal(v, 0, 1)
			return v.Data
		}
		bias, scale, shift := l.B.Value.Data, vec(tc.ic), vec(tc.ic)
		n := g.n * g.oh * g.ow * g.ic
		want := make([]float32, n)
		same := func(who string, got []float32) {
			t.Helper()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("%+v %s: [%d] %v, scalar oracle %v", tc, who, i, got[i], want[i])
				}
			}
		}
		for ei, ep := range []tensor.Epilogue{
			{},
			{Bias: bias},
			{Bias: bias, ReLU: true},
			{Bias: bias, Scale: scale, Shift: shift},
			{Bias: bias, Scale: scale, Shift: shift, ReLU: true, Cap: 1},
		} {
			for job := 0; job < g.n*g.oh; job++ {
				depthwiseRowScalar(g, x.Data, l.W.Value.Data, want, ep, job)
			}
			got := make([]float32, n)
			depthwiseForward(g, x.Data, l.W.Value.Data, got, ep)
			same(fmt.Sprintf("Forward ep#%d", ei), got)
		}

		tail, ep := bnReLU6(rng, "d", tc.ic, bias)
		prog, err := CompileLayers("d", append([]Layer{l}, tail...), x.Shape)
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < g.n*g.oh; job++ {
			depthwiseRowScalar(g, x.Data, l.W.Value.Data, want, ep, job)
		}
		same("Program with BN + ReLU6", prog.Run(prog.NewWorkspace(), x).Data)
	}
}

// BenchmarkDepthwise times the base DNN's depthwise layers at the
// benchmark's frame size (96×39 at width multiplier 0.25; width ×
// height × channels below) as a compiled program runs them, fused with
// batch-norm and ReLU: stride 1 and 2, 8 to 128 channels. It sits in nn,
// not beside BenchmarkGemmInPlace in tensor, because a layer is more
// than its interior span: the border pixels and the tap lists are
// part of the cost.
func BenchmarkDepthwise(b *testing.B) {
	for _, s := range []struct{ h, w, ic, stride int }{
		{20, 48, 8, 1}, {20, 48, 16, 2}, {10, 24, 32, 1}, {10, 24, 32, 2},
		{5, 12, 64, 1}, {5, 12, 64, 2}, {3, 6, 128, 1},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d-s%d", s.w, s.h, s.ic, s.stride), func(b *testing.B) {
			g := tensor.NewRNG(42)
			l := NewDepthwiseConv2D("dw", s.ic, 3, s.stride, Same, g)
			x := tensor.New(1, s.h, s.w, s.ic)
			g.FillNormal(x, 0, 1)
			prog, err := CompileLayers("dw", []Layer{l, NewBatchNorm("dw/bn", s.ic), NewReLU("dw/relu")}, x.Shape)
			if err != nil {
				b.Fatal(err)
			}
			ws := prog.NewWorkspace()
			prog.Run(ws, x)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog.Run(ws, x)
			}
			b.ReportMetric(float64(l.MAdds(x.Shape))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAdd/s")
		})
	}
}

// TestStandaloneBatchNormBitwise pins the per-pixel loop of a
// batch-norm that no conv precedes (so nothing folds it into a GEMM
// epilogue) to the per-element definition out[i] = in[i]·scale[i%c] +
// shift[i%c], with and without the fused capped ReLU, bit for bit.
func TestStandaloneBatchNormBitwise(t *testing.T) {
	const c = 5
	g := tensor.NewRNG(12)
	bn := NewBatchNorm("bn", c)
	g.FillNormal(bn.Gamma.Value, 1, 0.3)
	g.FillNormal(bn.Beta.Value, 0, 0.3)
	g.FillNormal(bn.RunningMean, 0, 0.5)
	bn.RunningVar.Fill(0.7)
	x := tensor.New(1, 3, 4, c)
	g.FillNormal(x, 0, 4)
	scale, shift := bnFold(bn, make([]float32, 2*c))

	for _, relu6 := range []bool{false, true} {
		net := NewNetwork("bn-alone").Add(bn)
		if relu6 {
			net.Add(NewReLU6("relu6"))
		}
		prog, err := Compile(net, x.Shape)
		if err != nil {
			t.Fatal(err)
		}
		got := prog.Run(prog.NewWorkspace(), x)
		for i, v := range x.Data {
			want := float32(v*scale[i%c]) + shift[i%c]
			if relu6 {
				want = min(max(want, 0), 6)
			}
			if math.Float32bits(got.Data[i]) != math.Float32bits(want) {
				t.Fatalf("relu6 %v: [%d] = %v, want %v", relu6, i, got.Data[i], want)
			}
		}
	}
}
