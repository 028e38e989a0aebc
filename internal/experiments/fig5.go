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

// ThroughputResult holds both the measured working-scale curves and
// the paper-scale projection.
type ThroughputResult struct {
	Measured  []ThroughputPoint
	Projected []ThroughputPoint
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
// grows. Measured numbers come from running the real engine at
// working scale over `frames` frames; projected numbers extend the
// curves to the paper's resolution via exact madds and calibrated
// per-system rates.
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
			fps, err := measureFF(o, base, d, imgs, arch.a, k)
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
		if point.FPS["mobilenets"], err = measureMobileNets(o, imgs, k); err != nil {
			return nil, err
		}
		res.Measured = append(res.Measured, point)
		logf(w, o, "measured k=%d: %v", k, point.FPS)
	}

	proj, err := projectThroughput(o, ks)
	if err != nil {
		return nil, err
	}
	res.Projected = proj

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
// the paper's filtering-throughput measurement).
func measureFF(o Options, base *mobilenet.Model, d *dataset.Dataset, imgs []*vision.Image, arch filter.Arch, k int) (float64, error) {
	edge, err := core.NewEdgeNode(core.Config{
		FrameWidth: d.Cfg.Width, FrameHeight: d.Cfg.Height, FPS: d.Cfg.FPS,
		Base: base, UploadBitrate: 100_000,
	})
	if err != nil {
		return 0, err
	}
	for i := 0; i < k; i++ {
		spec := filter.Spec{Name: fmt.Sprintf("%v-%d", arch, i), Arch: arch, Hidden: 32, Seed: o.Seed + int64(i)}
		mc, err := filter.NewMC(spec, base, d.Cfg.Width, d.Cfg.Height)
		if err != nil {
			return 0, err
		}
		if err := edge.Deploy(mc, 2); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for _, img := range imgs {
		if _, err := edge.ProcessFrame(img); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start).Seconds()
	return float64(len(imgs)) / elapsed, nil
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
// paper-scale memory model marks where k instances stop fitting.
func measureMobileNets(o Options, imgs []*vision.Image, k int) (float64, error) {
	m := mobilenet.New(mobilenet.Config{WidthMult: o.MCWidthMult, IncludeTop: true, NumClasses: 2, Seed: o.Seed + 200})
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

// projectThroughput extends the curves to the paper's native
// resolution (1920×1080) using exact paper-scale multiply-adds and
// per-system rates calibrated on this host.
func projectThroughput(o Options, ks []int) ([]ThroughputPoint, error) {
	rates, err := perfmodel.Calibrate(o.WorkingWidth, o.WorkingWidth*9/16)
	if err != nil {
		return nil, err
	}
	pm := perfmodel.New(1920, 1080)
	mem := perfmodel.PaperMemoryModel()

	mcCost := map[string]int64{}
	for name, spec := range map[string]filter.Spec{
		"ff-detector":  {Name: "p-det", Arch: filter.FullFrameObjectDetector, Seed: 0},
		"ff-windowed":  {Name: "p-win", Arch: filter.WindowedLocalizedBinary, Seed: 0},
		"ff-localized": {Name: "p-loc", Arch: filter.LocalizedBinary, Seed: 0},
	} {
		c, err := pm.MCCost(spec)
		if err != nil {
			return nil, err
		}
		mcCost[name] = c
	}
	baseDet, err := pm.BaseCost("conv5_6/sep")
	if err != nil {
		return nil, err
	}
	baseLoc, err := pm.BaseCost("conv4_2/sep")
	if err != nil {
		return nil, err
	}
	baseOf := map[string]int64{"ff-detector": baseDet, "ff-windowed": baseLoc, "ff-localized": baseLoc}
	dcCost, err := pm.DCCost(filter.DCConfig{Name: "p-dc", ConvLayers: 3, Kernels: 32, Stride: 2, Pools: 1, Seed: 0})
	if err != nil {
		return nil, err
	}
	mnCost := pm.MobileNetCost()

	var out []ThroughputPoint
	for _, k := range ks {
		p := ThroughputPoint{K: k, FPS: map[string]float64{}}
		for _, name := range []string{"ff-detector", "ff-windowed", "ff-localized"} {
			costs := make([]int64, k)
			for i := range costs {
				costs[i] = mcCost[name]
			}
			p.FPS[name] = perfmodel.Throughput(perfmodel.FFSecondsPerFrame(baseOf[name], costs, rates))
		}
		p.FPS["discrete"] = perfmodel.Throughput(perfmodel.NSecondsPerFrame(dcCost, k, rates.DC))
		if k <= mem.MaxInstances() {
			p.FPS["mobilenets"] = perfmodel.Throughput(perfmodel.NSecondsPerFrame(mnCost, k, rates.MobileNet))
		} else {
			p.FPS["mobilenets"] = math.NaN() // out of memory (§4.4)
		}
		out = append(out, p)
	}
	return out, nil
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
	print5 := func(title string, points []ThroughputPoint) {
		fmt.Fprintf(w, "%s\n%-6s", title, "k")
		for _, s := range throughputSystems {
			fmt.Fprintf(w, " %14s", s)
		}
		fmt.Fprintln(w)
		for _, p := range points {
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
	}
	print5("measured (working scale):", res.Measured)
	print5("projected (paper scale, 1920x1080, calibrated rates):", res.Projected)
	fmt.Fprintf(w, "measured FF/DC break-even: k=%d (paper: 3-4)\n", res.BreakEvenMeasured)
	fmt.Fprintf(w, "FF-localized speedup over DCs at max k: %.1fx (paper: up to 6.1x at 50)\n\n", res.SpeedupAtMaxK)
}
