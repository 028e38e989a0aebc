// Package perfmodel reports per-frame compute costs at the paper's
// native resolutions and projects throughput curves from them.
//
// The paper's performance claims (Figures 5 and 6) are about trends in
// a measured system: the base DNN's cost is amortized across
// microclassifiers, so FilterForward overtakes per-application
// discrete classifiers once enough applications share the extraction.
// This repository reproduces those trends two ways:
//
//  1. directly, by running the real pipeline at working scale
//     (experiments.Throughput and experiments.Breakdown), and
//  2. analytically at paper scale, using exact multiply-add counts
//     from the same layer implementations (this package) combined
//     with per-system execution rates calibrated on the host engine —
//     multiply-adds alone do not predict wall-clock time because
//     small-tensor networks are overhead-bound, which is exactly why
//     the paper's measured base:MC time ratio (≈15–40×) is far below
//     the raw madds ratio.
package perfmodel

import (
	"fmt"
	"time"

	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model computes paper-scale multiply-add costs for one dataset's
// native resolution.
type Model struct {
	// FrameW, FrameH are the native frame dimensions (1920×1080 for
	// Jackson, 2048×850 for Roadway).
	FrameW, FrameH int

	base *mobilenet.Model
}

// New builds a paper-scale cost model. The underlying width-1.0
// MobileNet is constructed once (weights are never used for inference
// here, only shape and cost accounting).
func New(frameW, frameH int) *Model {
	return &Model{
		FrameW: frameW, FrameH: frameH,
		base: mobilenet.New(mobilenet.Config{WidthMult: 1.0, Seed: 0}),
	}
}

// BaseCost returns the base DNN multiply-adds per frame to serve the
// deepest of the given stages.
func (m *Model) BaseCost(stages ...string) (int64, error) {
	if len(stages) == 0 {
		return 0, fmt.Errorf("perfmodel: no stages")
	}
	var deepest int64
	for _, s := range stages {
		c, err := m.base.MAddsTo(s, []int{1, m.FrameH, m.FrameW, 3})
		if err != nil {
			return 0, err
		}
		if c > deepest {
			deepest = c
		}
	}
	return deepest, nil
}

// MCCost returns the marginal per-frame multiply-adds of a
// microclassifier at paper scale (with the windowed buffering
// optimization applied).
func (m *Model) MCCost(spec filter.Spec) (int64, error) {
	mc, err := filter.NewMC(spec, m.base, m.FrameW, m.FrameH)
	if err != nil {
		return 0, err
	}
	return mc.MAddsPerFrame(true), nil
}

// DCCost returns the per-frame multiply-adds of a discrete classifier
// at paper scale.
func (m *Model) DCCost(cfg filter.DCConfig) (int64, error) {
	dc, err := filter.NewDC(cfg, m.FrameW, m.FrameH)
	if err != nil {
		return 0, err
	}
	return dc.MAddsPerFrame(), nil
}

// MobileNetCost returns the per-frame multiply-adds of running a full
// MobileNet classifier (through conv6) at paper scale — the "multiple
// MobileNets" baseline.
func (m *Model) MobileNetCost() int64 {
	c, err := m.base.MAddsTo("conv6/sep", []int{1, m.FrameH, m.FrameW, 3})
	if err != nil {
		panic(err) // conv6/sep always exists
	}
	return c
}

// Rates holds calibrated execution rates (multiply-adds per second)
// for each system class. Rates differ per class because small-tensor
// networks (MCs) are per-layer-overhead-bound while the big
// convolutional base DNN approaches the engine's peak.
type Rates struct {
	Base, MC, DC, MobileNet float64
}

// MeasureNetRate compiles net at the given input shape, times runs of
// the program (the engine every inference in the repository runs on),
// and returns achieved multiply-adds per second (plus a floor of one op
// to avoid division by zero for madds-free nets).
func MeasureNetRate(net *nn.Network, in []int, reps int) (float64, error) {
	prog, err := nn.Compile(net, in)
	if err != nil {
		return 0, fmt.Errorf("perfmodel: measure %s: %w", net.NetName, err)
	}
	ws := prog.NewWorkspace()
	x := tensor.New(in...)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	prog.Run(ws, x) // warm-up: packs the weights
	start := time.Now()
	for i := 0; i < reps; i++ {
		prog.Run(ws, x)
	}
	elapsed := time.Since(start).Seconds() / float64(reps)
	madds := net.MAdds(in)
	if madds < 1 {
		madds = 1
	}
	if elapsed <= 0 {
		elapsed = 1e-9
	}
	return float64(madds) / elapsed, nil
}

// Calibrate measures per-class rates using working-scale instances of
// each system on the host engine.
func Calibrate(workingW, workingH int) (Rates, error) {
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
	var r Rates
	var err error

	if r.Base, err = MeasureNetRate(base.Net, []int{1, workingH, workingW, 3}, 2); err != nil {
		return r, err
	}
	r.MobileNet = r.Base

	mc, err := filter.NewMC(filter.Spec{Name: "cal-mc", Arch: filter.LocalizedBinary, Seed: 2}, base, workingW, workingH)
	if err != nil {
		return r, err
	}
	if r.MC, err = MeasureNetRate(mc.Net(), mc.InputShape(), 5); err != nil {
		return r, err
	}

	dc, err := filter.NewDC(filter.DCConfig{Name: "cal-dc", Seed: 3}, workingW, workingH)
	if err != nil {
		return r, err
	}
	if r.DC, err = MeasureNetRate(dc.Net(), dc.InputShape(), 3); err != nil {
		return r, err
	}
	return r, nil
}

// FFSecondsPerFrame returns the projected per-frame time of
// FilterForward with the given base cost and MC marginal costs.
func FFSecondsPerFrame(baseCost int64, mcCosts []int64, r Rates) float64 {
	s := float64(baseCost) / r.Base
	for _, c := range mcCosts {
		s += float64(c) / r.MC
	}
	return s
}

// NSecondsPerFrame returns the projected per-frame time of k
// independent classifiers of the given cost and rate (the DC and
// multiple-MobileNets baselines).
func NSecondsPerFrame(perClassifier int64, k int, rate float64) float64 {
	return float64(k) * float64(perClassifier) / rate
}

// Throughput converts seconds per frame to frames per second.
func Throughput(secondsPerFrame float64) float64 {
	if secondsPerFrame <= 0 {
		return 0
	}
	return 1 / secondsPerFrame
}

// BreakEvenK returns the smallest classifier count at which
// FilterForward's projected throughput meets or beats the discrete
// classifiers', or -1 if it never does within limit.
func BreakEvenK(baseCost, mcCost, dcCost int64, r Rates, limit int) int {
	for k := 1; k <= limit; k++ {
		ff := FFSecondsPerFrame(baseCost, repeat(mcCost, k), r)
		dc := NSecondsPerFrame(dcCost, k, r.DC)
		if ff <= dc {
			return k
		}
	}
	return -1
}

func repeat(v int64, k int) []int64 {
	out := make([]int64, k)
	for i := range out {
		out[i] = v
	}
	return out
}

// MemoryModel captures the §4.4 observation that running independent
// full DNNs exhausts edge-node memory: MobileNet at ≈1 GB per instance
// runs out beyond 30 concurrent copies on the 32 GB testbed.
type MemoryModel struct {
	// PerInstanceBytes is the footprint of one classifier instance.
	PerInstanceBytes int64
	// NodeBytes is the edge node's total memory.
	NodeBytes int64
	// ReservedBytes is set aside for the OS and pipeline.
	ReservedBytes int64
}

// PaperMemoryModel returns the testbed parameters: 32 GB node, ≈1 GB
// per MobileNet instance, 2 GB reserved.
func PaperMemoryModel() MemoryModel {
	const gb = 1 << 30
	return MemoryModel{PerInstanceBytes: 1 * gb, NodeBytes: 32 * gb, ReservedBytes: 2 * gb}
}

// MaxInstances returns how many instances fit.
func (m MemoryModel) MaxInstances() int {
	if m.PerInstanceBytes <= 0 {
		return 0
	}
	n := (m.NodeBytes - m.ReservedBytes) / m.PerInstanceBytes
	if n < 0 {
		n = 0
	}
	return int(n)
}
