package filter

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/vision"
)

func testBase(t *testing.T) *mobilenet.Model {
	t.Helper()
	return mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
}

// TestSigmoidRange checks the sigmoid every classifier's logit goes
// through on its way to a score: saturated at both ends, 0.5 at 0.
func TestSigmoidRange(t *testing.T) {
	if lo, mid, hi := sigmoid(-100), sigmoid(0), sigmoid(100); lo > 1e-6 || mid != 0.5 || hi < 1-1e-6 {
		t.Fatalf("sigmoid(-100, 0, 100) = %v, %v, %v", lo, mid, hi)
	}
}

func TestMCDefaultStages(t *testing.T) {
	// §3.4: the full-frame object detector taps the penultimate stage,
	// the localized variants a middle stage.
	if DefaultStage(FullFrameObjectDetector) != "conv5_6/sep" {
		t.Fatal("full-frame default stage wrong")
	}
	if DefaultStage(LocalizedBinary) != "conv4_2/sep" {
		t.Fatal("localized default stage wrong")
	}
	if DefaultStage(WindowedLocalizedBinary) != "conv4_2/sep" {
		t.Fatal("windowed default stage wrong")
	}
}

func TestMCInputShapes(t *testing.T) {
	base := testBase(t)
	for _, arch := range []Arch{FullFrameObjectDetector, LocalizedBinary, WindowedLocalizedBinary, PoolingClassifier} {
		mc, err := NewMC(Spec{Name: "t-" + arch.String(), Arch: arch, Seed: 2}, base, 96, 54)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		in := mc.inputShape()
		x := tensor.New(in...)
		logit := mc.Net().Forward(x)
		if logit.Len() != 1 {
			t.Fatalf("%v: logit shape %v", arch, logit.Shape)
		}
	}
}

func TestMCCropShrinksInput(t *testing.T) {
	base := testBase(t)
	full, err := NewMC(Spec{Name: "full", Arch: LocalizedBinary, Seed: 3}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	crop := vision.Rect{X0: 0, Y0: 27, X1: 96, Y1: 54} // bottom half
	cropped, err := NewMC(Spec{Name: "crop", Arch: LocalizedBinary, Crop: &crop, Seed: 3}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	fh := full.inputShape()[1]
	ch := cropped.inputShape()[1]
	if ch >= fh {
		t.Fatalf("crop did not shrink input: %d vs %d", ch, fh)
	}
	// §3.2: cost drops proportionally to input size.
	if cropped.MAddsPerFrame(false) >= full.MAddsPerFrame(false) {
		t.Fatal("crop did not reduce madds")
	}
}

func TestMCPushPlainImmediate(t *testing.T) {
	base := testBase(t)
	mc, err := NewMC(Spec{Name: "p", Arch: LocalizedBinary, Seed: 4}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	fm := tensor.New(mc.FeatureMapShape()...)
	tensor.NewRNG(5).FillNormal(fm, 0, 1)
	cs := mc.Push(fm)
	if len(cs) != 1 || cs[0].Frame != 0 {
		t.Fatalf("plain push = %+v", cs)
	}
	if cs[0].Prob < 0 || cs[0].Prob > 1 {
		t.Fatalf("prob out of range: %v", cs[0].Prob)
	}
}

func TestWindowedStreamingMatchesBatch(t *testing.T) {
	// The buffering optimization must be semantics-preserving: the
	// streaming path (reduce once per frame, reuse buffers) must equal
	// running the full network on each window built from scratch.
	base := testBase(t)
	mc, err := NewMC(Spec{Name: "w", Arch: WindowedLocalizedBinary, Window: 5, Hidden: 16, Seed: 6}, base, 64, 36)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	const n = 9
	fms := make([]*tensor.Tensor, n)
	for i := range fms {
		fms[i] = tensor.New(mc.FeatureMapShape()...)
		rng.FillNormal(fms[i], 0, 1)
	}
	var streamed []Classification
	for _, fm := range fms {
		streamed = append(streamed, mc.Push(fm)...)
	}
	streamed = append(streamed, mc.Flush()...)
	if len(streamed) != n {
		t.Fatalf("streamed %d classifications, want %d", len(streamed), n)
	}
	for i, c := range streamed {
		if c.Frame != i {
			t.Fatalf("classification %d has frame %d", i, c.Frame)
		}
		// Both sides run the same programs on the same reduced maps.
		if want := mc.Prob(mc.BuildInput(fms, i)); math.Float32bits(c.Prob) != math.Float32bits(want) {
			t.Fatalf("frame %d: streamed %v, batch %v", i, c.Prob, want)
		}
	}
}

func TestWindowedLag(t *testing.T) {
	base := testBase(t)
	mc, _ := NewMC(Spec{Name: "lag", Arch: WindowedLocalizedBinary, Window: 5, Hidden: 8, Seed: 8}, base, 64, 36)
	// A window of 5 lags by 2 frames: frame 0 is classified on the
	// third push.
	fm := tensor.New(mc.FeatureMapShape()...)
	for i := 1; i <= 2; i++ {
		if got := mc.Push(fm); len(got) != 0 {
			t.Fatalf("windowed MC classified with %d frames: %+v", i, got)
		}
	}
	got := mc.Push(fm)
	if len(got) != 1 || got[0].Frame != 0 {
		t.Fatalf("expected frame-0 decision after 3 pushes, got %+v", got)
	}
}

func TestWindowedEvenWindowRejected(t *testing.T) {
	base := testBase(t)
	if _, err := NewMC(Spec{Name: "e", Arch: WindowedLocalizedBinary, Window: 4, Seed: 1}, base, 64, 36); err == nil {
		t.Fatal("even window accepted")
	}
}

func TestBufferingSavesMAdds(t *testing.T) {
	base := testBase(t)
	mc, _ := NewMC(Spec{Name: "b", Arch: WindowedLocalizedBinary, Window: 5, Seed: 9}, base, 96, 54)
	buffered := mc.MAddsPerFrame(true)
	unbuffered := mc.MAddsPerFrame(false)
	if buffered >= unbuffered {
		t.Fatalf("buffering saved nothing: %d vs %d", buffered, unbuffered)
	}
	// Plain MC is indifferent to the flag.
	p, _ := NewMC(Spec{Name: "pl", Arch: LocalizedBinary, Seed: 9}, base, 96, 54)
	if p.MAddsPerFrame(true) != p.MAddsPerFrame(false) {
		t.Fatal("plain MC madds depend on buffering flag")
	}
}

func TestMCMarginalCostFarBelowBaseDNN(t *testing.T) {
	// The premise of computation sharing: one MC costs a small
	// fraction of the base DNN (§4.4: base DNN ≈ 15–40 MCs).
	base := testBase(t)
	mc, _ := NewMC(Spec{Name: "c", Arch: LocalizedBinary, Seed: 10}, base, 96, 54)
	baseCost, err := base.MAddsTo("conv6/sep", []int{1, 54, 96, 3})
	if err != nil {
		t.Fatal(err)
	}
	if mc.MAddsPerFrame(true)*5 > baseCost {
		t.Fatalf("MC cost %d not well below base %d", mc.MAddsPerFrame(true), baseCost)
	}
}

func TestWindowReduceGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	conv := nn.NewConv2D("wr/conv", 2, 4, 1, 1, nn.Same, rng)
	wr := newWindowReduce("wr", conv, 3, 2)
	x := tensor.New(1, 3, 3, 6)
	rng.FillNormal(x, 0, 1)

	out := wr.Forward(x.Clone())
	grad := tensor.New(out.Shape...)
	grad.Fill(1)
	gin := wr.Backward(grad)

	const eps = 1e-2
	for i := 0; i < x.Len(); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		up := wr.Forward(x.Clone()).Sum()
		x.Data[i] = orig - eps
		down := wr.Forward(x.Clone()).Sum()
		x.Data[i] = orig
		num := (up - down) / (2 * eps)
		diff := num - float64(gin.Data[i])
		if diff > 2e-2*(1+abs(num)) || diff < -2e-2*(1+abs(num)) {
			t.Fatalf("windowReduce grad[%d]: analytic %v numeric %v", i, gin.Data[i], num)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestMCTrainsOnSyntheticFeatureMaps(t *testing.T) {
	// An MC must be able to learn a simple feature-space pattern:
	// positives have elevated channel-0 activations in the crop.
	base := testBase(t)
	mc, err := NewMC(Spec{Name: "learn", Arch: LocalizedBinary, Hidden: 16, Seed: 12}, base, 64, 36)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(13)
	var samples []train.Sample
	for i := 0; i < 120; i++ {
		x := tensor.New(mc.inputShape()...)
		rng.FillNormal(x, 0, 0.3)
		y := float32(i % 2)
		if y == 1 {
			for p := 0; p < x.Len(); p += x.Shape[3] {
				x.Data[p] += 1.5
			}
		}
		samples = append(samples, train.Sample{X: x, Y: y})
	}
	if _, err := train.Fit(mc.Net(), samples, train.Config{Epochs: 6, BatchSize: 8, Seed: 1, Optimizer: train.NewAdam(0.01)}); err != nil {
		t.Fatal(err)
	}
	if acc := train.Accuracy(mc.Prob, samples, 0.5); acc < 0.9 {
		t.Fatalf("MC failed to learn: accuracy %v", acc)
	}
}

// TestDCBuildsAcrossSweep builds every DC of the sweep and, with a
// crop and input normalization set, pins Prob's compiled program and
// arena input to the training pass over BuildInput bit for bit, and
// Prob to zero allocations once warm.
func TestDCBuildsAcrossSweep(t *testing.T) {
	crop := vision.Rect{X0: 8, Y0: 5, X1: 88, Y1: 50}
	mean, std := []float32{0.4, 0.5, 0.3}, []float32{0.2, 0.25, 0.3}
	for _, cfg := range DCSweep(1) {
		dc, err := NewDC(cfg, 96, 54)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		x := tensor.New(1, 54, 96, 3)
		p := dc.Prob(x)
		if p < 0 || p > 1 {
			t.Fatalf("%s: prob %v", cfg.Name, p)
		}
		if dc.MAddsPerFrame() <= 0 {
			t.Fatalf("%s: madds %d", cfg.Name, dc.MAddsPerFrame())
		}

		cfg.Crop = &crop
		dc, err = NewDC(cfg, 96, 54)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := dc.SetNormalization(mean, std); err != nil {
			t.Fatal(err)
		}
		tensor.NewRNG(cfg.Seed).FillUniform(x, 0, 1)
		got := dc.Prob(x)
		if want := sigmoid(dc.Net().Forward(dc.BuildInput(x)).Data[0]); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: Prob %v, training pass %v", cfg.Name, got, want)
		}
		if n := testing.AllocsPerRun(5, func() { dc.Prob(x) }); n != 0 {
			t.Fatalf("%s: Prob allocates %v objects per frame, want 0", cfg.Name, n)
		}
	}
}

func TestDCSweepCostOrdering(t *testing.T) {
	cfgs := DCSweep(1)
	var prev int64
	for i, cfg := range cfgs {
		dc, err := NewDC(cfg, 192, 108)
		if err != nil {
			t.Fatal(err)
		}
		m := dc.MAddsPerFrame()
		if i > 0 && m <= prev {
			t.Fatalf("sweep not increasing: %s %d <= %d", cfg.Name, m, prev)
		}
		prev = m
	}
}

func TestDCCropValidation(t *testing.T) {
	bad := vision.Rect{X0: 0, Y0: 0, X1: 999, Y1: 10}
	if _, err := NewDC(DCConfig{Name: "bad", Crop: &bad, Seed: 1}, 96, 54); err == nil {
		t.Fatal("oversized crop accepted")
	}
}

func TestDCCropAppliedToPixels(t *testing.T) {
	crop := vision.Rect{X0: 10, Y0: 10, X1: 50, Y1: 40}
	dc, err := NewDC(DCConfig{Name: "c", Crop: &crop, Seed: 1}, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	in := dc.inputDims
	if in[1] != 30 || in[2] != 40 {
		t.Fatalf("DC input shape %v, want [1 30 40 3]", in)
	}
	frame := tensor.New(1, 54, 96, 3)
	x := dc.BuildInput(frame)
	if x.Shape[1] != 30 || x.Shape[2] != 40 {
		t.Fatalf("BuildInput shape %v", x.Shape)
	}
}

func TestSpecValidation(t *testing.T) {
	base := testBase(t)
	if _, err := NewMC(Spec{Arch: LocalizedBinary}, base, 64, 36); err == nil {
		t.Fatal("nameless spec accepted")
	}
	if _, err := NewMC(Spec{Name: "x", Stage: "conv42/zz"}, base, 64, 36); err == nil {
		t.Fatal("bad stage accepted")
	}
}

func TestMCSaveLoadRoundTrip(t *testing.T) {
	base := testBase(t)
	crop := vision.Rect{X0: 0, Y0: 18, X1: 96, Y1: 54}
	src, err := NewMC(Spec{Name: "ser", Arch: LocalizedBinary, Crop: &crop, Hidden: 16, Seed: 21}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	fmShape := src.FeatureMapShape()
	mean := make([]float32, fmShape[3])
	std := make([]float32, fmShape[3])
	for i := range mean {
		mean[i] = 0.1 * float32(i%5)
		std[i] = 1 + 0.01*float32(i%7)
	}
	if err := src.SetNormalization(mean, std); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := LoadMC(&buf, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	fm := tensor.New(fmShape...)
	tensor.NewRNG(22).FillNormal(fm, 0, 1)
	a := src.Prob(src.cropMap(fm))
	b := dst.Prob(dst.cropMap(fm))
	if a != b {
		t.Fatalf("loaded MC differs: %v vs %v", a, b)
	}
	if dst.Spec().Arch != LocalizedBinary || dst.Spec().Crop == nil {
		t.Fatalf("spec not restored: %+v", dst.Spec())
	}
}

func TestChannelStats(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 10, 3, 20}, 1, 1, 2, 2)
	b := tensor.FromSlice([]float32{5, 30, 7, 40}, 1, 1, 2, 2)
	mean, std := ChannelStats([]*tensor.Tensor{a, b})
	if mean[0] != 4 || mean[1] != 25 {
		t.Fatalf("mean = %v", mean)
	}
	if std[0] <= 0 || std[1] <= 0 {
		t.Fatalf("std = %v", std)
	}
	if m, s := ChannelStats(nil); m != nil || s != nil {
		t.Fatal("empty stats should be nil")
	}

	// The per-pixel loop sums in the order of the per-element one it
	// replaced, so the statistics are bit-identical; an odd channel
	// count catches a stride slip.
	fms := make([]*tensor.Tensor, 3)
	for i := range fms {
		fms[i] = tensor.New(1, 4, 5, 7)
		tensor.NewRNG(int64(30+i)).FillNormal(fms[i], float32(i), 2)
	}
	mean, std = ChannelStats(fms)
	wantMean, wantStd := channelStatsPerElement(fms)
	for ci := range wantMean {
		if math.Float32bits(mean[ci]) != math.Float32bits(wantMean[ci]) || math.Float32bits(std[ci]) != math.Float32bits(wantStd[ci]) {
			t.Fatalf("channel %d: stats (%v, %v), per-element loop (%v, %v)", ci, mean[ci], std[ci], wantMean[ci], wantStd[ci])
		}
	}
}

// channelStatsPerElement is ChannelStats as it was, indexing the
// channel of every element with i % c: the oracle for the per-pixel
// loop.
func channelStatsPerElement(fms []*tensor.Tensor) (mean, std []float32) {
	c := fms[0].Shape[3]
	sum := make([]float64, c)
	sum2 := make([]float64, c)
	var count float64
	for _, fm := range fms {
		for i, v := range fm.Data {
			ci := i % c
			sum[ci] += float64(v)
			sum2[ci] += float64(v) * float64(v)
		}
		count += float64(fm.Len() / c)
	}
	mean = make([]float32, c)
	std = make([]float32, c)
	for i := 0; i < c; i++ {
		mu := sum[i] / count
		mean[i] = float32(mu)
		std[i] = float32(math.Sqrt(max(sum2[i]/count-mu*mu, 0)))
	}
	return mean, std
}

func TestNormalizationAffectsCropMap(t *testing.T) {
	base := testBase(t)
	mc, _ := NewMC(Spec{Name: "nrm", Arch: PoolingClassifier, Seed: 23}, base, 64, 36)
	fm := tensor.New(mc.FeatureMapShape()...)
	fm.Fill(2)
	c := mc.FeatureMapShape()[3]
	mean := make([]float32, c)
	std := make([]float32, c)
	for i := range mean {
		mean[i], std[i] = 2, 4
	}
	if err := mc.SetNormalization(mean, std); err != nil {
		t.Fatal(err)
	}
	out := mc.cropMap(fm)
	if out.Data[0] != 0 {
		t.Fatalf("normalized value = %v, want 0", out.Data[0])
	}
	if fm.Data[0] != 2 {
		t.Fatal("cropMap mutated its input")
	}
	if err := mc.SetNormalization(mean[:1], std[:1]); err == nil {
		t.Fatal("wrong-length normalization accepted")
	}
}

// TestPushFastPathMatchesNetwork pins the streaming fast path (frozen
// programs, arena crop, buffered window ring) against the training-net
// evaluation (BuildInput + net.Forward) for every architecture,
// including a crop and input normalization.
func TestPushFastPathMatchesNetwork(t *testing.T) {
	base := testBase(t)
	crop := vision.Rect{X0: 16, Y0: 9, X1: 88, Y1: 49}
	for _, arch := range []Arch{FullFrameObjectDetector, LocalizedBinary, WindowedLocalizedBinary, PoolingClassifier} {
		for _, withCropNorm := range []bool{false, true} {
			spec := Spec{Name: "fp-" + arch.String(), Arch: arch, Seed: 4}
			if withCropNorm {
				spec.Crop = &crop
			}
			mc, err := NewMC(spec, base, 96, 54)
			if err != nil {
				t.Fatalf("%v: %v", arch, err)
			}
			c := mc.FeatureMapShape()[3]
			if withCropNorm {
				mean := make([]float32, c)
				std := make([]float32, c)
				for i := range std {
					mean[i] = 0.1 * float32(i%5)
					std[i] = 1 + 0.05*float32(i%3)
				}
				if err := mc.SetNormalization(mean, std); err != nil {
					t.Fatal(err)
				}
			}
			g := tensor.NewRNG(int64(5 + int(arch)))
			fms := make([]*tensor.Tensor, 8)
			for i := range fms {
				fms[i] = tensor.New(mc.FeatureMapShape()...)
				g.FillNormal(fms[i], 0, 1)
			}
			var streamed []Classification
			for _, fm := range fms {
				streamed = append(streamed, mc.Push(fm)...)
			}
			streamed = append(streamed, mc.Flush()...)
			if len(streamed) != len(fms) {
				t.Fatalf("%v crop=%v: %d classifications for %d frames", arch, withCropNorm, len(streamed), len(fms))
			}
			for i, cl := range streamed {
				if cl.Frame != i {
					t.Fatalf("%v: classification %d has frame %d", arch, i, cl.Frame)
				}
				want := sigmoid(mc.Net().Forward(mc.BuildInput(fms, i)).Data[0])
				diff := float64(cl.Prob) - float64(want)
				if diff < 0 {
					diff = -diff
				}
				if diff > 1e-5 {
					t.Fatalf("%v crop=%v frame %d: streamed %v vs net %v", arch, withCropNorm, i, cl.Prob, want)
				}
			}
		}
	}
}

// TestPushZeroAlloc pins steady-state MC.Push at zero allocations per
// frame for both the immediate and the windowed (ring-buffered)
// architectures, the frame that repacks Touched weights included.
func TestPushZeroAlloc(t *testing.T) {
	base := testBase(t)
	for _, arch := range []Arch{LocalizedBinary, WindowedLocalizedBinary} {
		mc, err := NewMC(Spec{Name: "za-" + arch.String(), Arch: arch, Seed: 6}, base, 96, 54)
		if err != nil {
			t.Fatal(err)
		}
		fm := tensor.New(mc.FeatureMapShape()...)
		tensor.NewRNG(7).FillNormal(fm, 0, 1)
		// Warm up past the window lag (half the window) so the ring
		// and result buffers reach steady state.
		for i := 0; i < mc.spec.Window+3; i++ {
			mc.Push(fm)
		}
		if n := testing.AllocsPerRun(50, func() { mc.Push(fm) }); n != 0 {
			t.Fatalf("%v: Push allocates %v objects per frame, want 0", arch, n)
		}
		params := mc.Net().Params()
		if n := testing.AllocsPerRun(50, func() {
			for _, p := range params {
				p.Touch()
			}
			mc.Push(fm)
		}); n != 0 {
			t.Fatalf("%v: Push allocates %v objects on the frame that repacks, want 0", arch, n)
		}
	}
}

// TestInstrumentedPushZeroAlloc pins the instrumented streaming path:
// with a histogram and a span tracer attached, steady-state Push must
// stay at zero allocations per frame, and the sinks must actually see
// the observations.
func TestInstrumentedPushZeroAlloc(t *testing.T) {
	base := testBase(t)
	for _, arch := range []Arch{LocalizedBinary, WindowedLocalizedBinary} {
		mc, err := NewMC(Spec{Name: "iza-" + arch.String(), Arch: arch, Seed: 6}, base, 96, 54)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer(64)
		h := new(obs.Histogram)
		sk := new(obs.ScoreSketch)
		agg := new(obs.ScoreSketch)
		mc.Instrument(tr, h, tr.StreamID("cam0"), 0)
		mc.InstrumentScores(sk, agg, 0.5)
		fm := tensor.New(mc.FeatureMapShape()...)
		tensor.NewRNG(7).FillNormal(fm, 0, 1)
		for i := 0; i < mc.spec.Window+3; i++ {
			mc.Push(fm)
		}
		before := h.Count()
		skBefore := sk.Count()
		if n := testing.AllocsPerRun(50, func() { mc.Push(fm) }); n != 0 {
			t.Fatalf("%v: instrumented Push allocates %v objects per frame, want 0", arch, n)
		}
		if got := h.Count() - before; got < 50 {
			t.Fatalf("%v: histogram saw %d observations, want >= 50", arch, got)
		}
		if tr.Recorded() == 0 {
			t.Fatalf("%v: tracer recorded no spans", arch)
		}
		// Sketching saw every emitted classification (exactly one per
		// Push in the steady state, even for the lagged windowed arch),
		// and the per-MC and aggregate sketches agree.
		if got := sk.Count() - skBefore; got < 50 {
			t.Fatalf("%v: score sketch saw %d observations, want >= 50", arch, got)
		}
		snap, aggSnap := sk.Snapshot(), agg.Snapshot()
		if snap != aggSnap {
			t.Fatalf("%v: per-MC sketch diverged from aggregate:\n%+v\n%+v", arch, snap, aggSnap)
		}
		if snap.Passes != snap.Count && snap.Passes == 0 && snap.Count > 0 && snap.Mean() >= 0.5 {
			t.Fatalf("%v: pass accounting inconsistent: %+v", arch, snap)
		}
	}
}

// TestFlushRecordsScores verifies the windowed tail classifications
// emitted by Flush land in the score sketch too — drift detection must
// not lose the end of a segment.
func TestFlushRecordsScores(t *testing.T) {
	base := testBase(t)
	mc, err := NewMC(Spec{Name: "flush-scores", Arch: WindowedLocalizedBinary, Seed: 6}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	sk := new(obs.ScoreSketch)
	mc.InstrumentScores(sk, nil, 0.5)
	fm := tensor.New(mc.FeatureMapShape()...)
	tensor.NewRNG(7).FillNormal(fm, 0, 1)
	const frames = 9
	for i := 0; i < frames; i++ {
		mc.Push(fm)
	}
	mc.Flush()
	if got := sk.Count(); got != frames {
		t.Fatalf("sketch saw %d observations after Flush, want %d (one per frame)", got, frames)
	}
}

// TestPushFastPathTracksTraining verifies the streaming fast path sees
// weight updates made after the first Push (frozen programs repack
// Touched parameters).
func TestPushFastPathTracksTraining(t *testing.T) {
	base := testBase(t)
	mc, err := NewMC(Spec{Name: "live", Arch: LocalizedBinary, Seed: 8}, base, 96, 54)
	if err != nil {
		t.Fatal(err)
	}
	fm := tensor.New(mc.FeatureMapShape()...)
	tensor.NewRNG(9).FillNormal(fm, 0, 1)
	before := mc.Push(fm)[0].Prob
	for _, p := range mc.Net().Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] *= 1.1
		}
		p.Touch() // the contract for raw Value.Data writes
	}
	mc.Reset()
	after := mc.Push(fm)[0].Prob
	if before == after {
		t.Fatal("Push ignored a weight update: fast path served stale weights")
	}
	want := sigmoid(mc.Net().Forward(mc.cropMap(fm)).Data[0])
	diff := float64(after) - float64(want)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-5 {
		t.Fatalf("post-update Push %v vs net %v", after, want)
	}
}

// TestPushTracksLoadAndFineTune is a fine-tune's view of the staleness
// contract: an MC restored by LoadMC streams the saved weights, and
// after train.Fit fine-tunes its net in place the very next Push
// streams the fine-tuned ones, although the fast path had already
// packed the old weights.
func TestPushTracksLoadAndFineTune(t *testing.T) {
	base := testBase(t)
	for _, arch := range []Arch{LocalizedBinary, WindowedLocalizedBinary} {
		orig, err := NewMC(Spec{Name: "ft-" + arch.String(), Arch: arch, Hidden: 16, Seed: 14}, base, 96, 54)
		if err != nil {
			t.Fatal(err)
		}
		var saved bytes.Buffer
		if err := orig.Save(&saved); err != nil {
			t.Fatal(err)
		}
		mc, err := LoadMC(&saved, base, 96, 54)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(15)
		fms := make([]*tensor.Tensor, 8)
		for i := range fms {
			fms[i] = tensor.New(mc.FeatureMapShape()...)
			rng.FillNormal(fms[i], 0, 1)
		}
		stream := func(when string) []float32 {
			t.Helper()
			mc.Reset()
			var cls []Classification
			for _, fm := range fms {
				cls = append(cls, mc.Push(fm)...)
			}
			cls = append(cls, mc.Flush()...)
			if len(cls) != len(fms) {
				t.Fatalf("%v %s: %d classifications for %d frames", arch, when, len(cls), len(fms))
			}
			probs := make([]float32, len(cls))
			for i, c := range cls {
				want := mc.Prob(mc.BuildInput(fms, c.Frame))
				if math.Float32bits(c.Prob) != math.Float32bits(want) {
					t.Fatalf("%v %s frame %d: streamed %v vs net %v", arch, when, c.Frame, c.Prob, want)
				}
				probs[i] = c.Prob
			}
			return probs
		}
		before := stream("after LoadMC")
		for i, c := range before {
			if want := orig.Prob(orig.BuildInput(fms, i)); math.Float32bits(c) != math.Float32bits(want) {
				t.Fatalf("%v: loaded MC streams %v for frame %d, the saved one computes %v", arch, c, i, want)
			}
		}

		samples := make([]train.Sample, len(fms))
		for i := range fms {
			samples[i] = train.Sample{X: mc.BuildInput(fms, i), Y: float32(i % 2)}
		}
		if _, err := train.Fit(mc.Net(), samples, train.Config{Epochs: 2, BatchSize: 4, Seed: 1, Optimizer: train.NewAdam(0.01)}); err != nil {
			t.Fatal(err)
		}
		after := stream("after fine-tune")
		moved := false
		for i := range after {
			moved = moved || after[i] != before[i]
		}
		if !moved {
			t.Fatalf("%v: fine-tuning changed no streamed probability", arch)
		}
	}
}
