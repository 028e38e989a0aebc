package mobilenet

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPaperTapShapes(t *testing.T) {
	// At full scale the paper's feature maps are 67x120x512 at
	// conv4_2/sep and 33x60x1024 at conv5_6/sep for 1920x1080 input
	// (HxWxC; the paper floors the spatial dims).
	m := New(Config{WidthMult: 1.0, Seed: 1})
	in := []int{1, 1080, 1920, 3}

	s42, err := m.OutShapeAt("conv4_2/sep", in)
	if err != nil {
		t.Fatal(err)
	}
	// Same padding gives ceil division: 68x120. The paper quotes 67x120
	// (floor); both correspond to a /16 downsample.
	if s42[2] != 120 || s42[3] != 512 || s42[1] < 67 || s42[1] > 68 {
		t.Fatalf("conv4_2/sep shape = %v, want ~[1 67 120 512]", s42)
	}

	s56, err := m.OutShapeAt("conv5_6/sep", in)
	if err != nil {
		t.Fatal(err)
	}
	if s56[2] != 60 || s56[3] != 1024 || s56[1] < 33 || s56[1] > 34 {
		t.Fatalf("conv5_6/sep shape = %v, want ~[1 33 60 1024]", s56)
	}
}

func TestWidthMultiplierScalesChannels(t *testing.T) {
	m := New(Config{WidthMult: 0.25, Seed: 1})
	c, err := m.Channels("conv4_2/sep")
	if err != nil {
		t.Fatal(err)
	}
	if c != 128 {
		t.Fatalf("conv4_2/sep channels at 0.25 = %d, want 128", c)
	}
	c, _ = m.Channels("conv5_6/sep")
	if c != 256 {
		t.Fatalf("conv5_6/sep channels at 0.25 = %d, want 256", c)
	}
}

func TestFullScaleMAddsNearPaper(t *testing.T) {
	// MobileNet v1 at 224x224 is ~569M multiply-adds (Howard et al.).
	// Our count (without the classifier head) should be within ~5%.
	m := New(Config{WidthMult: 1.0, Seed: 1})
	madds, err := m.MAddsTo("conv6/sep", []int{1, 224, 224, 3})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(madds)
	if got < 500e6 || got > 620e6 {
		t.Fatalf("MobileNet madds = %v, want ~569M", got)
	}
}

func TestExtractMatchesForwardTo(t *testing.T) {
	m := New(Config{WidthMult: 0.25, Seed: 2})
	g := tensor.NewRNG(3)
	x := tensor.New(1, 32, 32, 3)
	g.FillNormal(x, 0, 1)
	a, err := m.Extract(x.Clone(), "conv3_2/sep")
	if err != nil {
		t.Fatal(err)
	}
	multi, err := m.ExtractMulti(x.Clone(), []string{"conv2_2/sep", "conv3_2/sep"})
	if err != nil {
		t.Fatal(err)
	}
	b := multi["conv3_2/sep"]
	if !a.SameShape(b) {
		t.Fatalf("shapes differ: %v vs %v", a.Shape, b.Shape)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Extract and ExtractMulti disagree")
		}
	}
	if multi["conv2_2/sep"].Shape[3] != 32 {
		t.Fatalf("conv2_2/sep channels = %d, want 32", multi["conv2_2/sep"].Shape[3])
	}
}

func TestExtractionIsDeterministic(t *testing.T) {
	x := tensor.New(1, 16, 16, 3)
	tensor.NewRNG(4).FillNormal(x, 0, 1)
	a, _ := New(Config{WidthMult: 0.25, Seed: 7}).Extract(x.Clone(), "conv2_1/sep")
	b, _ := New(Config{WidthMult: 0.25, Seed: 7}).Extract(x.Clone(), "conv2_1/sep")
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed produced different models")
		}
	}
}

func TestActivationsStayScaled(t *testing.T) {
	// He init should keep deep activations in a sane numeric range (no
	// blow-up or vanishing) so microclassifiers have signal to learn
	// from.
	m := New(Config{WidthMult: 0.25, Seed: 5})
	x := tensor.New(1, 64, 64, 3)
	tensor.NewRNG(6).FillNormal(x, 0, 1)
	deep, err := m.Extract(x, "conv5_6/sep")
	if err != nil {
		t.Fatal(err)
	}
	var rms float64
	for _, v := range deep.Data {
		rms += float64(v) * float64(v)
	}
	rms = math.Sqrt(rms / float64(deep.Len()))
	if rms < 1e-3 || rms > 1e3 {
		t.Fatalf("deep activation RMS = %v, numerically degenerate", rms)
	}
}

func TestIncludeTopShape(t *testing.T) {
	m := New(Config{WidthMult: 0.25, NumClasses: 10, IncludeTop: true, Seed: 1})
	x := tensor.New(1, 32, 32, 3)
	out := m.Net.Forward(x)
	if !reflect.DeepEqual(out.Shape, []int{1, 10}) {
		t.Fatalf("classifier output shape %v, want [1 10]", out.Shape)
	}
}

func TestTapForUnknownStage(t *testing.T) {
	m := New(Config{Seed: 1})
	if _, err := m.TapFor("conv9_9/sep"); err == nil {
		t.Fatal("unknown stage accepted")
	}
	if _, err := m.Extract(tensor.New(1, 8, 8, 3), "nope"); err == nil {
		t.Fatal("Extract with unknown stage accepted")
	}
}

func TestStagesOrdered(t *testing.T) {
	m := New(Config{Seed: 1})
	// The tappable stages in execution order.
	stages := []string{"conv1"}
	for _, b := range v1Blocks {
		stages = append(stages, b.name+"/dw", b.name+"/sep")
	}
	if stages[0] != "conv1" || stages[len(stages)-1] != "conv6/sep" {
		t.Fatalf("stage order wrong: %v", stages)
	}
	// Every stage must resolve to a tap.
	for _, s := range stages {
		if _, err := m.TapFor(s); err != nil {
			t.Fatalf("stage %s has no tap: %v", s, err)
		}
	}
}

func TestBatchNormVariantBuilds(t *testing.T) {
	m := New(Config{WidthMult: 0.25, BatchNorm: true, Seed: 1})
	x := tensor.New(1, 16, 16, 3)
	out, err := m.Extract(x, "conv2_2/sep")
	if err != nil {
		t.Fatal(err)
	}
	if out.Shape[3] != 32 {
		t.Fatalf("bn variant channels %d", out.Shape[3])
	}
}

// layerwise runs net one layer at a time up to and including the layer
// named upto: each layer's Forward, except a batch-norm, whose Forward
// normalizes by the batch's statistics; it runs as a one-layer program,
// the running-statistics loop. These are the loops the extractor's
// program runs.
func layerwise(t *testing.T, net *nn.Network, x *tensor.Tensor, upto string) *tensor.Tensor {
	t.Helper()
	for _, l := range net.Layers() {
		if bn, ok := l.(*nn.BatchNorm); ok {
			prog, err := nn.CompileLayers(bn.LayerName, []nn.Layer{bn}, x.Shape)
			if err != nil {
				t.Fatal(err)
			}
			x = prog.Run(prog.NewWorkspace(), x)
		} else {
			x = l.Forward(x)
		}
		if l.Name() == upto {
			return x
		}
	}
	t.Fatalf("network %q has no layer %q", net.NetName, upto)
	return nil
}

// TestExtractorMatchesLayerwise pins the compiled fast path against
// the layer-by-layer walk, with and without batch-norm, for several
// stages.
func TestExtractorMatchesLayerwise(t *testing.T) {
	for _, bn := range []bool{false, true} {
		m := New(Config{WidthMult: 0.25, BatchNorm: bn, Seed: 2})
		if bn {
			// Give the running statistics non-identity values so the
			// fold actually folds something.
			g := tensor.NewRNG(9)
			for _, l := range m.Net.Layers() {
				if b, ok := l.(*nn.BatchNorm); ok {
					g.FillNormal(b.RunningMean, 0, 0.2)
					g.FillUniform(b.RunningVar, 0.5, 1.5)
					g.FillNormal(b.Beta.Value, 0, 0.1)
				}
			}
		}
		g := tensor.NewRNG(3)
		x := tensor.New(1, 30, 40, 3)
		g.FillNormal(x, 0, 1)
		ext := m.NewExtractor()
		for _, stage := range []string{"conv1", "conv2_2/sep", "conv4_1/dw", "conv5_6/sep"} {
			tap, err := m.TapFor(stage)
			if err != nil {
				t.Fatal(err)
			}
			want := layerwise(t, m.Net, x.Clone(), tap)
			got, err := ext.Extract(x, stage)
			if err != nil {
				t.Fatal(err)
			}
			if !got.SameShape(want) {
				t.Fatalf("bn=%v %s: shape %v vs %v", bn, stage, got.Shape, want.Shape)
			}
			for i := range want.Data {
				d := float64(got.Data[i]) - float64(want.Data[i])
				if d < 0 {
					d = -d
				}
				if d > 1e-4*(1+math.Abs(float64(want.Data[i]))) {
					t.Fatalf("bn=%v %s: [%d] fast %v vs layerwise %v", bn, stage, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestExtractorZeroAlloc pins the steady-state Extract and
// ExtractMulti paths at zero heap allocations per frame, the frame
// that repacks Touched weights included.
func TestExtractorZeroAlloc(t *testing.T) {
	m := New(Config{WidthMult: 0.25, Seed: 2})
	x := tensor.New(1, 30, 40, 3)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	ext := m.NewExtractor()
	stages := []string{"conv2_2/sep", "conv4_1/sep"}
	if _, err := ext.Extract(x, "conv4_1/sep"); err != nil {
		t.Fatal(err)
	}
	if _, err := ext.ExtractMulti(x, stages); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ext.Extract(x, "conv4_1/sep"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Extract allocates %v objects per frame, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ext.ExtractMulti(x, stages); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ExtractMulti allocates %v objects per frame, want 0", n)
	}
	params := m.Net.Params()
	if n := testing.AllocsPerRun(20, func() {
		for _, p := range params {
			p.Touch()
		}
		if _, err := ext.ExtractMulti(x, stages); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ExtractMulti allocates %v objects on the frame that repacks, want 0", n)
	}
}

// TestModelExtractConcurrentSafe exercises the pooled, copying
// Extract/ExtractMulti wrappers from many goroutines (the experiment
// harness extracts training features this way) under identical-result
// assertions.
func TestModelExtractConcurrentSafe(t *testing.T) {
	m := New(Config{WidthMult: 0.25, Seed: 2})
	inputs := make([]*tensor.Tensor, 8)
	g := tensor.NewRNG(5)
	for i := range inputs {
		inputs[i] = tensor.New(1, 18, 24, 3)
		g.FillNormal(inputs[i], 0, 1)
	}
	want := make([]*tensor.Tensor, len(inputs))
	for i, x := range inputs {
		var err error
		want[i], err = m.Extract(x, "conv3_2/sep")
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 4) // one slot per worker: no shared writes
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, x := range inputs {
				got, err := m.Extract(x, "conv3_2/sep")
				if err != nil {
					errs[w] = err
					return
				}
				for j := range got.Data {
					if got.Data[j] != want[i].Data[j] {
						errs[w] = fmt.Errorf("concurrent Extract diverged on input %d", i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
