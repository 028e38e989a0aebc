package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/vision"
)

// throughputSystems are the five curves of Figure 5.
var throughputSystems = []string{
	"ff-detector", "ff-windowed", "ff-localized", "discrete", "mobilenets",
}

// ThroughputPoint is one x-position of Figure 5: classifier count
// against frames per second for each system. A missing entry (NaN)
// means the system cannot run at that scale (the multiple-MobileNets
// baseline runs out of memory beyond 30 instances).
type ThroughputPoint struct {
	K   int
	FPS map[string]float64
}

// MarshalJSON writes a missing entry as null: JSON has no NaN, and
// without this a report holding Figure 5 fails to encode.
func (p ThroughputPoint) MarshalJSON() ([]byte, error) {
	fps := make(map[string]*float64, len(p.FPS))
	for sys, v := range p.FPS {
		fps[sys] = nil
		if !math.IsNaN(v) {
			fps[sys] = &v
		}
	}
	return json.Marshal(struct {
		K   int
		FPS map[string]*float64
	}{p.K, fps})
}

// ThroughputResult holds the measured working-scale curves.
type ThroughputResult struct {
	Measured []ThroughputPoint
	// BreakEvenMeasured is the smallest measured k at which the best
	// FF arch beats the discrete classifiers (-1 if never).
	BreakEvenMeasured int
	// SpeedupAtMaxK is FF-localized throughput over discrete
	// classifiers at the largest k (the paper reports up to 6.1× at
	// 50).
	SpeedupAtMaxK float64
}

// Throughput regenerates Figure 5: filtering throughput of the three
// MC architectures versus NoScope-style discrete classifiers and
// multiple full MobileNets, as the number of concurrent classifiers
// grows. Every number comes from running the real engine at working
// scale over `frames` frames; the paper's memory model marks the
// MobileNets counts that would not fit on its testbed as out of
// memory, and those are not timed.
func Throughput(w io.Writer, o Options, ks []int, frames int) (*ThroughputResult, error) {
	o.fillDefaults()
	if len(ks) == 0 {
		ks = []int{1, 2, 4, 8, 16, 32, 50}
	}
	if frames <= 0 {
		frames = 12
	}
	d := dataset.Generate(dataset.Jackson(o.WorkingWidth, frames, o.Seed))
	imgs := make([]*vision.Image, frames)
	for i := range imgs {
		imgs[i] = d.Frame(i)
	}
	base := newBase(o)
	maxMobileNets := perfmodel.PaperMemoryModel().MaxInstances()
	res := &ThroughputResult{}

	for _, k := range ks {
		point := ThroughputPoint{K: k, FPS: map[string]float64{}}
		for _, arch := range []struct {
			name string
			a    filter.Arch
		}{
			{"ff-detector", filter.FullFrameObjectDetector},
			{"ff-windowed", filter.WindowedLocalizedBinary},
			{"ff-localized", filter.LocalizedBinary},
		} {
			_, fps, err := measureFF(o, base, d, imgs, arch.a, k)
			if err != nil {
				return nil, err
			}
			point.FPS[arch.name] = fps
		}
		fps, err := measureDCs(o, d, imgs, k)
		if err != nil {
			return nil, err
		}
		point.FPS["discrete"] = fps
		if k > maxMobileNets {
			point.FPS["mobilenets"] = math.NaN() // out of memory (§4.4)
		} else if point.FPS["mobilenets"], err = measureMobileNets(o, imgs, k); err != nil {
			return nil, err
		}
		res.Measured = append(res.Measured, point)
		logf(w, o, "measured k=%d: %v", k, point.FPS)
	}

	res.BreakEvenMeasured = breakEvenMeasured(res.Measured)
	last := res.Measured[len(res.Measured)-1]
	if last.FPS["discrete"] > 0 {
		res.SpeedupAtMaxK = last.FPS["ff-localized"] / last.FPS["discrete"]
	}
	printThroughput(w, res)
	return res, nil
}

// measureFF times the real edge pipeline with k identical-architecture
// MCs (thresholds above 1 so no segment encoding is included, matching
// the paper's filtering-throughput measurement). It returns the node
// too, whose Stats split the time between base DNN and MCs (Figure 6).
func measureFF(o Options, base *mobilenet.Model, d *dataset.Dataset, imgs []*vision.Image, arch filter.Arch, k int) (*core.EdgeNode, float64, error) {
	edge, err := core.NewEdgeNode(core.Config{
		FrameWidth: d.Cfg.Width, FrameHeight: d.Cfg.Height, FPS: d.Cfg.FPS,
		Base: base, UploadBitrate: 100_000,
	})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < k; i++ {
		spec := filter.Spec{Name: fmt.Sprintf("%v-%d", arch, i), Arch: arch, Hidden: 32, Seed: o.Seed + int64(i)}
		mc, err := filter.NewMC(spec, base, d.Cfg.Width, d.Cfg.Height)
		if err != nil {
			return nil, 0, err
		}
		if err := edge.Deploy(mc, 2); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	for _, img := range imgs {
		if _, err := edge.ProcessFrame(img); err != nil {
			return nil, 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	return edge, float64(len(imgs)) / elapsed, nil
}

// measureDCs times k independent discrete classifiers over the frames.
func measureDCs(o Options, d *dataset.Dataset, imgs []*vision.Image, k int) (float64, error) {
	dcs := make([]*filter.DC, k)
	for i := range dcs {
		dc, err := filter.NewDC(filter.DCConfig{Name: fmt.Sprintf("dc-%d", i), ConvLayers: 3, Kernels: 32, Stride: 2, Pools: 1, Seed: o.Seed + int64(i)}, d.Cfg.Width, d.Cfg.Height)
		if err != nil {
			return 0, err
		}
		dcs[i] = dc
	}
	start := time.Now()
	for _, img := range imgs {
		x := img.ToTensor()
		for _, dc := range dcs {
			dc.Prob(x)
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(len(imgs)) / elapsed, nil
}

// measureMobileNets times k full MobileNet classifier runs per frame
// (the naive multi-tenancy baseline), the whole classifier compiled
// into one program like every other curve's networks. One model
// instance stands in for k (identical weights time identically); the
// paper's memory model decides which k are timed at all.
func measureMobileNets(o Options, imgs []*vision.Image, k int) (float64, error) {
	m := mobilenet.New(mobilenet.Config{WidthMult: baseWidthMult, IncludeTop: true, NumClasses: 2, Seed: o.Seed + 200})
	prog, err := nn.Compile(m.Net, []int{1, imgs[0].H, imgs[0].W, 3})
	if err != nil {
		return 0, err
	}
	ws := prog.NewWorkspace()
	start := time.Now()
	for _, img := range imgs {
		x := img.ToTensor()
		for i := 0; i < k; i++ {
			prog.Run(ws, x)
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(len(imgs)) / elapsed, nil
}

// breakEvenMeasured returns the smallest k where any FF curve meets
// the discrete classifiers.
func breakEvenMeasured(points []ThroughputPoint) int {
	for _, p := range points {
		ff := math.Max(p.FPS["ff-localized"], math.Max(p.FPS["ff-detector"], p.FPS["ff-windowed"]))
		if ff >= p.FPS["discrete"] {
			return p.K
		}
	}
	return -1
}

func printThroughput(w io.Writer, res *ThroughputResult) {
	fmt.Fprintln(w, "Figure 5 — throughput (fps) vs number of classifiers")
	fmt.Fprintf(w, "measured (working scale):\n%-6s", "k")
	for _, s := range throughputSystems {
		fmt.Fprintf(w, " %14s", s)
	}
	fmt.Fprintln(w)
	for _, p := range res.Measured {
		fmt.Fprintf(w, "%-6d", p.K)
		for _, s := range throughputSystems {
			v := p.FPS[s]
			if math.IsNaN(v) {
				fmt.Fprintf(w, " %14s", "OOM")
			} else {
				fmt.Fprintf(w, " %14.2f", v)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "measured FF/DC break-even: k=%d (paper: 3-4)\n", res.BreakEvenMeasured)
	fmt.Fprintf(w, "FF-localized speedup over DCs at max k: %.1fx (paper: up to 6.1x at 50)\n\n", res.SpeedupAtMaxK)
}
