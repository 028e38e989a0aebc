// Package perfmodel reports per-frame compute costs at the paper's
// native resolutions, and the paper's edge-node memory model.
//
// Figure 7 and the crop ablation place each classifier on a
// paper-scale cost axis: exact multiply-add counts from the same layer
// implementations the working-scale runs use, at 1920×1080 or
// 2048×850. Throughput is never projected from these counts: Figures 5
// and 6 are measured (experiments.Throughput and experiments.Breakdown),
// and the memory model marks where the multiple-MobileNets baseline
// stops fitting on the paper's testbed.
package perfmodel

import (
	"repro/internal/filter"
	"repro/internal/mobilenet"
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
