// Package repro's root benchmarks regenerate each table and figure of
// the paper at benchmark scale (tiny splits, no pretraining) so that
// `go test -bench=.` exercises every experiment path end to end. The
// full-fidelity runs live in cmd/ffbench. For performance claims both
// are superseded by bench/ (see bench/README.md).
package repro

import (
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchOptions keeps per-iteration cost low enough for testing.B.
func benchOptions() experiments.Options {
	return experiments.Options{
		WorkingWidth: 64, TrainFrames: 160, TestFrames: 160,
		Seed: 1, Epochs: 1, SampleStride: 4, SkipPretrain: true,
	}
}

// BenchmarkDatasetGeneration regenerates the Figure 3b dataset table.
func BenchmarkDatasetGeneration(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		experiments.Datasets(io.Discard, o)
	}
}

// BenchmarkFig4Bandwidth regenerates one Figure 4 panel (bandwidth vs
// event F1, localized MC vs compress-everything).
func BenchmarkFig4Bandwidth(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Bandwidth(io.Discard, o, filter.LocalizedBinary, 40_000, []float64{20_000, 80_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Throughput regenerates Figure 5 (throughput vs number
// of classifiers, measured and paper-scale projected).
func BenchmarkFig5Throughput(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Throughput(io.Discard, o, []int{1, 4, 16}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Breakdown regenerates one Figure 6 panel (execution
// time split between base DNN and MCs).
func BenchmarkFig6Breakdown(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Breakdown(io.Discard, o, filter.LocalizedBinary, []int{1, 8}, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7CostAccuracy regenerates one Figure 7 panel (madds vs
// event F1 for MCs and the DC).
func BenchmarkFig7CostAccuracy(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CostAccuracy(io.Discard, o, "roadway"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationCrop regenerates the §3.2 crop ablation.
func BenchmarkAblationCrop(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CropAblation(io.Discard, o, "roadway"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWindowBuffer regenerates the §3.3.3 windowed-MC
// buffering ablation.
func BenchmarkAblationWindowBuffer(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.WindowBufferAblation(io.Discard, o, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseDNNExtraction measures the shared feature extractor's
// per-frame cost — the upfront overhead every MC amortizes. It runs
// the steady-state edge path (a per-stream Extractor over the frozen,
// fused program), which must stay allocation-free.
func BenchmarkBaseDNNExtraction(b *testing.B) {
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
	ext := base.NewExtractor()
	x := tensor.New(1, 54, 96, 3)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	if _, err := ext.Extract(x, "conv5_6/sep"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ext.Extract(x, "conv5_6/sep"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaseDNNExtractionReference measures the same extraction on
// the retained naive reference kernels — the before/after yardstick
// for the fast path.
func BenchmarkBaseDNNExtractionReference(b *testing.B) {
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
	tap, err := base.TapFor("conv5_6/sep")
	if err != nil {
		b.Fatal(err)
	}
	layers := base.Net.Layers()
	x := tensor.New(1, 54, 96, 3)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := x
		for _, l := range layers {
			cur = nn.ReferenceForward(l, cur)
			if l.Name() == tap {
				break
			}
		}
	}
}

// BenchmarkMCMarginal measures one localized MC's marginal per-frame
// cost over an already-extracted feature map.
func BenchmarkMCMarginal(b *testing.B) {
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
	mc, err := filter.NewMC(filter.Spec{Name: "bench", Arch: filter.LocalizedBinary, Seed: 2}, base, 96, 54)
	if err != nil {
		b.Fatal(err)
	}
	fm := tensor.New(mc.FeatureMapShape()...)
	tensor.NewRNG(3).FillNormal(fm, 0, 1)
	mc.Push(fm) // warm the arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mc.Push(fm)
	}
}

// BenchmarkDCPerFrame measures a discrete classifier's full
// pixels-to-decision cost, the quantity Figure 7 compares against MC
// marginal cost.
func BenchmarkDCPerFrame(b *testing.B) {
	dc, err := filter.NewDC(filter.DCConfig{Name: "bench", ConvLayers: 3, Kernels: 32, Stride: 2, Pools: 1, Seed: 2}, 96, 54)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(1, 54, 96, 3)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dc.Prob(x)
	}
}

// BenchmarkCodecEncode measures the H.264 stand-in's per-frame encode
// cost at working scale (one I-frame plus one P-frame per iteration).
func BenchmarkCodecEncode(b *testing.B) {
	d := dataset.Generate(dataset.Jackson(96, 2, 1))
	f0 := d.Frame(0)
	f1 := d.Frame(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := codec.NewEncoder(codec.Config{
			Width: d.Cfg.Width, Height: d.Cfg.Height, FPS: d.Cfg.FPS, TargetBitrate: 60_000,
		})
		enc.Encode(f0)
		enc.Encode(f1)
	}
}

// BenchmarkAblationPhasedVsPipelined regenerates the §4.4 execution
// schedule ablation (phased base-DNN/MC phases vs a two-stage
// pipeline vs phase-2 MC fan-out).
func BenchmarkAblationPhasedVsPipelined(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PhasedVsPipelined(io.Discard, o, 4, 6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiStreamScaling runs the concurrent edge runtime's
// streams × workers sweep (sequential baseline vs scheduler) at
// benchmark scale. On hosts with GOMAXPROCS >= workers the 4-stream
// row shows the worker-pool speedup; on a single core it documents
// the scheduler's overhead staying near zero.
func BenchmarkMultiStreamScaling(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MultiStreamScaling(io.Discard, o, []int{4}, nil, 6); err != nil {
			b.Fatal(err)
		}
	}
}
