package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// CropAblationResult compares a localized MC with and without its
// spatial crop (§3.2: cropping cuts compute proportionally and can
// raise accuracy).
type CropAblationResult struct {
	Dataset        string
	WithCrop       metrics.Result
	WithoutCrop    metrics.Result
	CropMAdds      int64 // paper scale
	NoCropMAdds    int64 // paper scale
	ComputeSavings float64
}

// CropAblation trains the localized binary classifier twice on one
// dataset — with the Table 3c crop and without — and reports accuracy
// and paper-scale cost for both.
func CropAblation(w io.Writer, o Options, datasetName string) (*CropAblationResult, error) {
	o.fillDefaults()
	cfgFn, paperW, paperH, paperCrop := datasetParams(datasetName)
	if cfgFn == nil {
		return nil, fmt.Errorf("experiments: unknown dataset %q", datasetName)
	}
	trainD, testD := datasetPair(cfgFn, o)
	base := newBase(o)
	pm := perfmodel.New(paperW, paperH)
	res := &CropAblationResult{Dataset: datasetName}
	workingCrop := trainD.Cfg.Region()

	_, locStage := workingStages(trainD.Cfg)
	run := func(name string, crop bool) (metrics.Result, error) {
		spec := filter.Spec{Name: name, Arch: filter.LocalizedBinary, Stage: locStage, Seed: o.Seed + 31}
		if crop {
			spec.Crop = &workingCrop
		}
		mc, err := filter.NewMC(spec, base, trainD.Cfg.Width, trainD.Cfg.Height)
		if err != nil {
			return metrics.Result{}, err
		}
		trainFMs, err := extractForMC(trainD, base, mc)
		if err != nil {
			return metrics.Result{}, err
		}
		tm, err := fitMC(w, o, mc, trainFMs, trainD.Labels)
		if err != nil {
			return metrics.Result{}, err
		}
		testFMs, err := extractForMC(testD, base, mc)
		if err != nil {
			return metrics.Result{}, err
		}
		return evalScores(testD.Labels, scoreMCOnMaps(mc, testFMs), tm.threshold), nil
	}

	var err error
	if res.WithCrop, err = run("crop", true); err != nil {
		return nil, err
	}
	if res.WithoutCrop, err = run("nocrop", false); err != nil {
		return nil, err
	}
	if res.CropMAdds, err = pm.MCCost(filter.Spec{Name: "c", Arch: filter.LocalizedBinary, Crop: &paperCrop, Seed: 0}); err != nil {
		return nil, err
	}
	if res.NoCropMAdds, err = pm.MCCost(filter.Spec{Name: "n", Arch: filter.LocalizedBinary, Seed: 0}); err != nil {
		return nil, err
	}
	res.ComputeSavings = float64(res.NoCropMAdds) / float64(res.CropMAdds)

	fmt.Fprintf(w, "Crop ablation (%s, localized binary MC)\n", datasetName)
	fmt.Fprintf(w, "%-12s %16s %10s\n", "variant", "paper madds (M)", "event F1")
	fmt.Fprintf(w, "%-12s %16.1f %10.3f\n", "with crop", float64(res.CropMAdds)/1e6, res.WithCrop.F1)
	fmt.Fprintf(w, "%-12s %16.1f %10.3f\n", "no crop", float64(res.NoCropMAdds)/1e6, res.WithoutCrop.F1)
	fmt.Fprintf(w, "compute savings from crop: %.1fx\n\n", res.ComputeSavings)
	return res, nil
}

// WindowBufferResult quantifies the §3.3.3 buffering optimization.
type WindowBufferResult struct {
	BufferedMAdds   int64
	UnbufferedMAdds int64
	MAddsSavings    float64
	BufferedSec     float64
	UnbufferedSec   float64
	MeasuredSpeedup float64
}

// WindowBufferAblation measures the windowed MC's per-frame cost with
// the 1×1-reduction buffer (streaming Push) against naive
// recomputation of the whole window per frame.
func WindowBufferAblation(w io.Writer, o Options, frames int) (*WindowBufferResult, error) {
	o.fillDefaults()
	if frames <= 0 {
		frames = 40
	}
	d := dataset.Generate(dataset.Jackson(o.WorkingWidth, frames, o.Seed))
	base := newBase(o)
	mc, err := filter.NewMC(filter.Spec{Name: "wb", Arch: filter.WindowedLocalizedBinary, Hidden: 32, Seed: o.Seed + 41}, base, d.Cfg.Width, d.Cfg.Height)
	if err != nil {
		return nil, err
	}
	fms := make([]*tensor.Tensor, frames)
	for i := range fms {
		var err error
		fms[i], err = base.Extract(d.FrameTensor(i), mc.Stage())
		if err != nil {
			return nil, err
		}
	}
	res := &WindowBufferResult{
		BufferedMAdds:   mc.MAddsPerFrame(true),
		UnbufferedMAdds: mc.MAddsPerFrame(false),
	}
	res.MAddsSavings = float64(res.UnbufferedMAdds) / float64(res.BufferedMAdds)

	// Buffered: the streaming path.
	mc.Reset()
	start := time.Now()
	for _, fm := range fms {
		mc.Push(fm)
	}
	mc.Flush()
	res.BufferedSec = time.Since(start).Seconds() / float64(frames)

	// Unbuffered: rebuild and rerun the full window per frame, on the
	// same compiled programs Push runs.
	start = time.Now()
	for i := range fms {
		mc.Prob(mc.BuildInput(fms, i))
	}
	res.UnbufferedSec = time.Since(start).Seconds() / float64(frames)
	if res.BufferedSec > 0 {
		res.MeasuredSpeedup = res.UnbufferedSec / res.BufferedSec
	}

	fmt.Fprintln(w, "Windowed-MC buffering ablation (§3.3.3)")
	fmt.Fprintf(w, "%-12s %16s %14s\n", "variant", "madds/frame (M)", "sec/frame")
	fmt.Fprintf(w, "%-12s %16.2f %14.6f\n", "buffered", float64(res.BufferedMAdds)/1e6, res.BufferedSec)
	fmt.Fprintf(w, "%-12s %16.2f %14.6f\n", "naive", float64(res.UnbufferedMAdds)/1e6, res.UnbufferedSec)
	fmt.Fprintf(w, "madds savings %.2fx, measured speedup %.2fx\n\n", res.MAddsSavings, res.MeasuredSpeedup)
	return res, nil
}
