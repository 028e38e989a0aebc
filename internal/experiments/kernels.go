package experiments

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// KernelPath is one measured inference path in the kernel benchmark.
type KernelPath struct {
	// Name identifies the path ("base-dnn-extract", "mc-push", ...).
	Name string `json:"name"`
	// Stage is the base-DNN stage involved (extraction target or MC
	// tap).
	Stage string `json:"stage"`
	// NsPerFrame is the steady-state wall time per frame on the frozen
	// fast path.
	NsPerFrame float64 `json:"ns_per_frame"`
	// P50NsPerFrame, P95NsPerFrame, and P99NsPerFrame are tail
	// quantiles of the per-frame latency distribution, interpolated
	// from an obs.Histogram fed one observation per frame — the same
	// digest the fleet's heartbeat rollup carries. Zero on reference
	// paths, which report only a mean.
	P50NsPerFrame int64 `json:"p50_ns_per_frame,omitempty"`
	P95NsPerFrame int64 `json:"p95_ns_per_frame,omitempty"`
	P99NsPerFrame int64 `json:"p99_ns_per_frame,omitempty"`
	// AllocsPerFrame is the steady-state heap allocations per frame
	// (the workspace arena pins this at 0).
	AllocsPerFrame float64 `json:"allocs_per_frame"`
	// ReferenceNsPerFrame is the same computation on the retained
	// naive reference kernels (0 when no reference path exists).
	ReferenceNsPerFrame float64 `json:"reference_ns_per_frame,omitempty"`
	// Speedup is ReferenceNsPerFrame / NsPerFrame (0 when no
	// reference).
	Speedup float64 `json:"speedup,omitempty"`
	// MAddsPerFrame is the exact multiply-add count of the path.
	MAddsPerFrame int64 `json:"madds_per_frame"`
	// GMAddsPerSec is the realized arithmetic throughput.
	GMAddsPerSec float64 `json:"gmadds_per_sec"`
}

// KernelsResult is the structured output of the kernel benchmark.
type KernelsResult struct {
	// Kernel is the GEMM microkernel tier that produced the numbers
	// (tensor.Kernel: "avx2", "sse" or "generic"), GOARCH and CPU the
	// machine it was selected on (CPU is the model string of
	// /proc/cpuinfo, empty where there is none).
	Kernel string `json:"kernel"`
	GOARCH string `json:"goarch"`
	CPU    string `json:"cpu"`

	FrameWidth  int          `json:"frame_width"`
	FrameHeight int          `json:"frame_height"`
	WidthMult   float64      `json:"width_mult"`
	Frames      int          `json:"frames"`
	Paths       []KernelPath `json:"paths"`
}

// Kernels measures the inference fast path's per-frame cost — the
// quantity every Figure 5/6 throughput number is built from — on the
// frozen, fused, arena-backed execution path, alongside the retained
// naive reference kernels. It records ns/frame and allocs/frame for
// the base-DNN extraction and the per-MC marginal push, stamped with
// the microkernel tier that ran. It is a quick look at the kernels, not
// the perf ledger: performance claims are measured by bench/ (see
// bench/README.md).
func Kernels(w io.Writer, o Options, frames int) (*KernelsResult, error) {
	o.fillDefaults()
	if frames <= 0 {
		frames = 50
	}
	width := o.WorkingWidth
	height := width * 9 / 16
	base := mobilenet.New(mobilenet.Config{WidthMult: o.MCWidthMult, Seed: o.Seed})
	x := tensor.New(1, height, width, 3)
	tensor.NewRNG(o.Seed+1).FillNormal(x, 0, 1)

	res := &KernelsResult{Kernel: tensor.Kernel(), GOARCH: runtime.GOARCH, CPU: cpuModel(),
		FrameWidth: width, FrameHeight: height, WidthMult: o.MCWidthMult, Frames: frames}

	stage := "conv5_6/sep"
	ext := base.NewExtractor()
	if _, err := ext.Extract(x, stage); err != nil {
		return nil, err
	}
	fastNs, fastQ := timeQuantiles(frames, func() {
		if _, err := ext.Extract(x, stage); err != nil {
			panic(err)
		}
	})
	extAllocs := allocsPerFrame(10, func() {
		if _, err := ext.Extract(x, stage); err != nil {
			panic(err)
		}
	})
	tap, err := base.TapFor(stage)
	if err != nil {
		return nil, err
	}
	refFrames := frames / 4
	if refFrames < 3 {
		refFrames = 3
	}
	refNs := timePerFrame(refFrames, func() {
		cur := x
		for _, l := range base.Net.Layers() {
			cur = nn.ReferenceForward(l, cur)
			if l.Name() == tap {
				break
			}
		}
	})
	madds, err := base.MAddsTo(stage, []int{1, height, width, 3})
	if err != nil {
		return nil, err
	}
	res.Paths = append(res.Paths, kernelPath("base-dnn-extract", stage, fastNs, fastQ, extAllocs, refNs, madds))

	mc, err := filter.NewMC(filter.Spec{Name: "kernel-bench", Arch: filter.LocalizedBinary, Seed: o.Seed + 2}, base, width, height)
	if err != nil {
		return nil, err
	}
	fm := tensor.New(mc.FeatureMapShape()...)
	tensor.NewRNG(o.Seed+3).FillNormal(fm, 0, 1)
	mc.Push(fm)
	pushNs, pushQ := timeQuantiles(frames, func() { mc.Push(fm) })
	pushAllocs := allocsPerFrame(10, func() { mc.Push(fm) })
	res.Paths = append(res.Paths, kernelPath("mc-push", mc.Stage(), pushNs, pushQ, pushAllocs, 0, mc.MAddsPerFrame(true)))

	fmt.Fprintf(w, "Inference kernel fast path (%dx%d, width-mult %.2f, %d frames; %s kernel, %s, %s)\n",
		width, height, o.MCWidthMult, frames, res.Kernel, res.GOARCH, res.CPU)
	fmt.Fprintf(w, "%-18s %-12s %12s %10s %10s %10s %12s %9s\n", "path", "stage", "ns/frame", "p50", "p95", "p99", "ref ns/frame", "speedup")
	for _, p := range res.Paths {
		ref, sp := "-", "-"
		if p.ReferenceNsPerFrame > 0 {
			ref = fmt.Sprintf("%.0f", p.ReferenceNsPerFrame)
			sp = fmt.Sprintf("%.2fx", p.Speedup)
		}
		fmt.Fprintf(w, "%-18s %-12s %12.0f %10d %10d %10d %12s %9s\n",
			p.Name, p.Stage, p.NsPerFrame, p.P50NsPerFrame, p.P95NsPerFrame, p.P99NsPerFrame, ref, sp)
	}
	return res, nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "" on a
// system that has none.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

func kernelPath(name, stage string, ns float64, q obs.Summary, allocs, refNs float64, madds int64) KernelPath {
	p := KernelPath{
		Name: name, Stage: stage,
		NsPerFrame: ns, AllocsPerFrame: allocs,
		P50NsPerFrame: q.P50, P95NsPerFrame: q.P95, P99NsPerFrame: q.P99,
		ReferenceNsPerFrame: refNs,
		MAddsPerFrame:       madds,
	}
	if ns > 0 {
		p.GMAddsPerSec = float64(madds) / ns
	}
	if refNs > 0 && ns > 0 {
		p.Speedup = refNs / ns
	}
	return p
}

// allocsPerFrame reports the mean heap allocations per call of fn
// (the same measurement testing.AllocsPerRun makes, usable outside a
// test binary).
func allocsPerFrame(frames int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm up
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < frames; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(frames)
}

// timePerFrame runs fn frames times and returns the mean ns per call.
func timePerFrame(frames int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(frames)
}

// timeQuantiles times each call of fn individually through an
// obs.Histogram, returning the mean ns per call (total elapsed over
// calls, same methodology as timePerFrame) and the latency digest.
// The per-call timer costs two time.Now reads (~tens of ns) against
// paths in the tens of µs and up.
func timeQuantiles(frames int, fn func()) (float64, obs.Summary) {
	h := new(obs.Histogram)
	t0 := time.Now()
	for i := 0; i < frames; i++ {
		t1 := time.Now()
		fn()
		h.Observe(time.Since(t1))
	}
	mean := float64(time.Since(t0).Nanoseconds()) / float64(frames)
	return mean, h.Summary()
}
