package train

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestBCEWithLogitsKnownValues(t *testing.T) {
	logits := tensor.FromSlice([]float32{0}, 1)
	loss, grad := bceWithLogits(logits, []float32{1})
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("loss = %v, want ln2", loss)
	}
	if math.Abs(float64(grad.Data[0])+0.5) > 1e-6 {
		t.Fatalf("grad = %v, want -0.5", grad.Data[0])
	}
}

func TestBCEWithLogitsStableAtExtremes(t *testing.T) {
	logits := tensor.FromSlice([]float32{50, -50}, 2)
	loss, grad := bceWithLogits(logits, []float32{1, 0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss not finite: %v", loss)
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct predictions should have ~0 loss, got %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestBCEGradMatchesNumeric(t *testing.T) {
	logits := tensor.FromSlice([]float32{0.3, -1.2, 2.0}, 3)
	labels := []float32{1, 0, 1}
	_, grad := bceWithLogits(logits, labels)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up, _ := bceWithLogits(logits, labels)
		logits.Data[i] = orig - eps
		down, _ := bceWithLogits(logits, labels)
		logits.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-4 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

// quadratic is a trivial "network" target for optimizer tests:
// minimize (w-3)^2 via its gradient 2(w-3).
func quadStep(opt Optimizer, p *nn.Param, steps int) float32 {
	for i := 0; i < steps; i++ {
		p.Grad.Data[0] = 2 * (p.Value.Data[0] - 3)
		opt.Step([]*nn.Param{p})
	}
	return p.Value.Data[0]
}

func newScalarParam(v float32) *nn.Param {
	g := tensor.NewRNG(1)
	d := nn.NewDense("p", 1, 1, g)
	d.W.Value.Data[0] = v
	return d.W
}

func TestSGDConverges(t *testing.T) {
	p := newScalarParam(0)
	w := quadStep(NewSGD(0.1, 0, 0), p, 100)
	if math.Abs(float64(w)-3) > 1e-3 {
		t.Fatalf("SGD converged to %v, want 3", w)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	p := newScalarParam(0)
	w := quadStep(NewSGD(0.05, 0.9, 0), p, 200)
	if math.Abs(float64(w)-3) > 1e-2 {
		t.Fatalf("SGD+momentum converged to %v, want 3", w)
	}
}

func TestAdamConverges(t *testing.T) {
	p := newScalarParam(0)
	w := quadStep(NewAdam(0.1), p, 300)
	if math.Abs(float64(w)-3) > 1e-2 {
		t.Fatalf("Adam converged to %v, want 3", w)
	}
}

func TestWeightDecayShrinks(t *testing.T) {
	p := newScalarParam(1)
	opt := NewSGD(0.1, 0, 0.5)
	for i := 0; i < 50; i++ {
		p.Grad.Data[0] = 0 // decay only
		opt.Step([]*nn.Param{p})
	}
	if p.Value.Data[0] >= 0.1 {
		t.Fatalf("weight decay did not shrink weight: %v", p.Value.Data[0])
	}
}

func TestStepZeroesGradients(t *testing.T) {
	p := newScalarParam(0)
	p.Grad.Data[0] = 5
	NewSGD(0.1, 0, 0).Step([]*nn.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("SGD did not zero gradient")
	}
	p.Grad.Data[0] = 5
	NewAdam(0.1).Step([]*nn.Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("Adam did not zero gradient")
	}
}

// compiled returns a compiled program for net at the given input shape
// and one workspace on it: the inference engine the tests score with.
func compiled(t *testing.T, net *nn.Network, shape ...int) func(*tensor.Tensor) *tensor.Tensor {
	t.Helper()
	prog, err := nn.Compile(net, shape)
	if err != nil {
		t.Fatal(err)
	}
	ws := prog.NewWorkspace()
	return func(x *tensor.Tensor) *tensor.Tensor { return prog.Run(ws, x) }
}

// probOf scores one sample with net's compiled program: the sigmoid of
// its logit.
func probOf(t *testing.T, net *nn.Network, shape ...int) func(*tensor.Tensor) float32 {
	run := compiled(t, net, shape...)
	return func(x *tensor.Tensor) float32 {
		return float32(1 / (1 + math.Exp(-float64(run(x).Data[0]))))
	}
}

// makeBlobs builds a linearly separable 2-D dataset.
func makeBlobs(n int, seed int64) []Sample {
	rng := tensor.NewRNG(seed)
	samples := make([]Sample, n)
	for i := range samples {
		y := float32(i % 2)
		x := tensor.New(1, 2)
		cx := float64(2*y - 1) // -1 or +1 cluster center
		x.Data[0] = float32(cx + 0.5*rng.NormFloat64())
		x.Data[1] = float32(-cx + 0.5*rng.NormFloat64())
		samples[i] = Sample{X: x, Y: y}
	}
	return samples
}

func TestFitLearnsSeparableData(t *testing.T) {
	g := tensor.NewRNG(2)
	net := nn.NewNetwork("logreg").Add(nn.NewDense("fc", 2, 1, g))
	samples := makeBlobs(400, 3)
	loss, err := Fit(net, samples, Config{Epochs: 20, BatchSize: 16, Seed: 1, Optimizer: NewAdam(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Fatalf("final loss %v too high", loss)
	}
	if acc := Accuracy(probOf(t, net, 1, 2), samples, 0.5); acc < 0.95 {
		t.Fatalf("train accuracy %v < 0.95", acc)
	}
}

func TestFitConvNet(t *testing.T) {
	// Positive samples have a bright patch in the top-left quadrant.
	rng := tensor.NewRNG(4)
	var samples []Sample
	for i := 0; i < 200; i++ {
		x := tensor.New(1, 6, 6, 1)
		rng.FillNormal(x, 0, 0.1)
		y := float32(i % 2)
		if y == 1 {
			for yy := 0; yy < 3; yy++ {
				for xx := 0; xx < 3; xx++ {
					x.Set(x.At(0, yy, xx, 0)+2, 0, yy, xx, 0)
				}
			}
		}
		samples = append(samples, Sample{X: x, Y: y})
	}
	g := tensor.NewRNG(5)
	net := nn.NewNetwork("cnn").
		Add(nn.NewConv2D("c1", 1, 4, 3, 2, nn.Same, g)).
		Add(nn.NewReLU("r1")).
		Add(nn.NewFlatten("fl")).
		Add(nn.NewDense("fc", 3*3*4, 1, g))
	if _, err := Fit(net, samples, Config{Epochs: 10, BatchSize: 8, Seed: 1, Optimizer: NewAdam(0.01)}); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(probOf(t, net, 1, 6, 6, 1), samples, 0.5); acc < 0.9 {
		t.Fatalf("conv accuracy %v < 0.9", acc)
	}
}

func TestFitBalancedClasses(t *testing.T) {
	// 95:5 imbalance; balancing should still learn the minority class.
	rng := tensor.NewRNG(6)
	var samples []Sample
	for i := 0; i < 400; i++ {
		y := float32(0)
		if i%20 == 0 {
			y = 1
		}
		x := tensor.New(1, 2)
		cx := float64(2*y - 1)
		x.Data[0] = float32(cx + 0.4*rng.NormFloat64())
		x.Data[1] = float32(cx + 0.4*rng.NormFloat64())
		samples = append(samples, Sample{X: x, Y: y})
	}
	g := tensor.NewRNG(7)
	net := nn.NewNetwork("bal").Add(nn.NewDense("fc", 2, 1, g))
	if _, err := Fit(net, samples, Config{Epochs: 15, BatchSize: 16, Seed: 1, BalanceClasses: true, Optimizer: NewAdam(0.05)}); err != nil {
		t.Fatal(err)
	}
	// Every positive must be detected.
	prob := probOf(t, net, 1, 2)
	missed := 0
	for _, s := range samples {
		if s.Y == 1 {
			if p := prob(s.X); p < 0.5 {
				missed++
			}
		}
	}
	if missed > 2 {
		t.Fatalf("balanced training missed %d/20 positives", missed)
	}
}

func TestFitRejectsBadSamples(t *testing.T) {
	g := tensor.NewRNG(8)
	net := nn.NewNetwork("x").Add(nn.NewDense("fc", 2, 1, g))
	if _, err := Fit(net, nil, Config{}); err == nil {
		t.Fatal("empty sample set not rejected")
	}
	bad := []Sample{{X: tensor.New(2, 2), Y: 0}}
	if _, err := Fit(net, bad, Config{}); err == nil {
		t.Fatal("batch-dim != 1 not rejected")
	}
	mixed := []Sample{{X: tensor.New(1, 2), Y: 0}, {X: tensor.New(1, 3), Y: 1}}
	if _, err := Fit(net, mixed, Config{}); err == nil {
		t.Fatal("mixed shapes not rejected")
	}
}

func TestEpochFraction(t *testing.T) {
	// With EpochFraction very small, only a handful of batches run; the
	// trainer must not crash and must still return a loss.
	g := tensor.NewRNG(9)
	net := nn.NewNetwork("f").Add(nn.NewDense("fc", 2, 1, g))
	samples := makeBlobs(100, 10)
	loss, err := Fit(net, samples, Config{Epochs: 1, EpochFraction: 0.1, BatchSize: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) {
		t.Fatal("NaN loss")
	}
}

func TestSoftmaxCEKnownValues(t *testing.T) {
	// Uniform logits over 3 classes: loss = ln 3 and grads p-1/y.
	logits := tensor.New(1, 3)
	loss, grad := softmaxCE(logits, []int{1})
	if math.Abs(loss-math.Log(3)) > 1e-6 {
		t.Fatalf("loss = %v, want ln3", loss)
	}
	third := float32(1.0 / 3.0)
	if math.Abs(float64(grad.Data[0]-third)) > 1e-6 || math.Abs(float64(grad.Data[1]-(third-1))) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
}

func TestSoftmaxCEGradMatchesNumeric(t *testing.T) {
	logits := tensor.FromSlice([]float32{0.5, -1.0, 2.0, 0.1, 0.2, -0.3}, 2, 3)
	classes := []int{2, 0}
	_, grad := softmaxCE(logits, classes)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		up, _ := softmaxCE(logits, classes)
		logits.Data[i] = orig - eps
		down, _ := softmaxCE(logits, classes)
		logits.Data[i] = orig
		num := (up - down) / (2 * eps)
		if math.Abs(num-float64(grad.Data[i])) > 1e-4 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestSoftmaxCEStableAtExtremes(t *testing.T) {
	logits := tensor.FromSlice([]float32{100, -100, 0}, 1, 3)
	loss, grad := softmaxCE(logits, []int{0})
	if math.IsNaN(loss) || loss > 1e-6 {
		t.Fatalf("confident correct prediction loss = %v", loss)
	}
	for _, g := range grad.Data {
		if math.IsNaN(float64(g)) {
			t.Fatal("NaN gradient")
		}
	}
}

func TestFitClassesLearnsSeparable(t *testing.T) {
	// Three Gaussian blobs in 2-D.
	rng := tensor.NewRNG(20)
	centers := [][2]float64{{-2, 0}, {2, 0}, {0, 2.5}}
	var samples []ClassSample
	for i := 0; i < 300; i++ {
		c := i % 3
		x := tensor.New(1, 2)
		x.Data[0] = float32(centers[c][0] + 0.4*rng.NormFloat64())
		x.Data[1] = float32(centers[c][1] + 0.4*rng.NormFloat64())
		samples = append(samples, ClassSample{X: x, Class: c})
	}
	g := tensor.NewRNG(21)
	net := nn.NewNetwork("mc").Add(nn.NewDense("fc", 2, 3, g))
	loss, err := FitClasses(net, samples, Config{Epochs: 25, BatchSize: 16, Seed: 1, Optimizer: NewAdam(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.2 {
		t.Fatalf("multiclass loss %v too high", loss)
	}
	run := compiled(t, net, 1, 2)
	correct := 0
	for _, s := range samples {
		_, arg := run(s.X).Max()
		if arg == s.Class {
			correct++
		}
	}
	if float64(correct)/float64(len(samples)) < 0.95 {
		t.Fatalf("multiclass accuracy %v", float64(correct)/float64(len(samples)))
	}
}

func TestFitClassesRejectsEmpty(t *testing.T) {
	g := tensor.NewRNG(22)
	net := nn.NewNetwork("x").Add(nn.NewDense("fc", 2, 3, g))
	if _, err := FitClasses(net, nil, Config{}); err == nil {
		t.Fatal("empty sample set accepted")
	}
}

func TestSoftmaxCEBadClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad class did not panic")
		}
	}()
	softmaxCE(tensor.New(1, 3), []int{5})
}
