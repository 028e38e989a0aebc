package experiments

import (
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filter"
)

// tinyOptions keeps experiment tests fast: no pretraining, short
// splits, coarse training.
func tinyOptions() Options {
	return Options{
		WorkingWidth: 64, TrainFrames: 240, TestFrames: 240,
		Seed: 3, Epochs: 1, SampleStride: 4, SkipPretrain: true,
	}
}

func TestDatasetsTable(t *testing.T) {
	var sb strings.Builder
	rows := Datasets(&sb, tinyOptions())
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Stats.Frames != 240 {
			t.Fatalf("row %s frames %d", r.Name, r.Stats.Frames)
		}
		if r.PaperFraction <= 0 {
			t.Fatal("paper fraction missing")
		}
	}
	if !strings.Contains(sb.String(), "jackson") || !strings.Contains(sb.String(), "roadway") {
		t.Fatal("table output incomplete")
	}
}

func TestWorkingStagesHeuristic(t *testing.T) {
	j := dataset.Jackson(96, 10, 1)
	det, loc := workingStages(j)
	if loc != "conv3_2/sep" {
		t.Fatalf("jackson localized stage = %s", loc)
	}
	if det != "conv4_2/sep" {
		t.Fatalf("jackson detector stage = %s", det)
	}
	r := dataset.Roadway(96, 10, 1)
	det, loc = workingStages(r)
	if loc != "conv2_2/sep" {
		t.Fatalf("roadway localized stage = %s (detail is the small red garment)", loc)
	}
	if det != "conv3_2/sep" {
		t.Fatalf("roadway detector stage = %s", det)
	}
}

func TestCostAccuracySmoke(t *testing.T) {
	res, err := CostAccuracy(io.Discard, tinyOptions(), "roadway")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d, want 3 (two MCs + DC)", len(res.Points))
	}
	// The MCs' paper-scale marginal cost must be far below the DC's —
	// the Figure 7 cost axis.
	var mcMax, dcCost int64
	for _, p := range res.Points {
		if strings.Contains(p.System, "MC") && p.PaperMAdds > mcMax {
			mcMax = p.PaperMAdds
		}
		if strings.Contains(p.System, "discrete") {
			dcCost = p.PaperMAdds
		}
	}
	if dcCost < 4*mcMax {
		t.Fatalf("DC cost %d not well above MC cost %d", dcCost, mcMax)
	}
	for _, p := range res.Points {
		if p.Result.F1 < 0 || p.Result.F1 > 1 {
			t.Fatalf("F1 out of range: %+v", p)
		}
	}
}

func TestCostAccuracyUnknownDataset(t *testing.T) {
	if _, err := CostAccuracy(io.Discard, tinyOptions(), "nope"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBandwidthSmoke(t *testing.T) {
	o := tinyOptions()
	res, err := Bandwidth(io.Discard, o, filter.LocalizedBinary, 40_000, []float64{20_000, 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Compress) != 2 {
		t.Fatalf("compress points = %d", len(res.Compress))
	}
	// Higher target bitrate must not reduce realized bandwidth.
	if res.Compress[1].BitsPerSecond <= res.Compress[0].BitsPerSecond {
		t.Fatalf("bitrate sweep not monotone: %+v", res.Compress)
	}
	// FF uploads only matched segments: it must use less bandwidth
	// than compressing everything at the higher rate.
	if res.FF.BitsPerSecond >= res.Compress[1].BitsPerSecond {
		t.Fatalf("FF bandwidth %v not below full-stream %v", res.FF.BitsPerSecond, res.Compress[1].BitsPerSecond)
	}
}

func TestThroughputSmoke(t *testing.T) {
	res, err := Throughput(io.Discard, tinyOptions(), []int{1, 32}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Measured) != 2 {
		t.Fatalf("measured points = %d, want 2", len(res.Measured))
	}
	// Measured rates are wall-clock and move with the machine's load;
	// only their sanity is a fact (bench/ measures the numbers). The
	// paper's memory model fits 30 MobileNets, so k=32 is OOM (NaN)
	// and is not timed.
	for _, p := range res.Measured {
		for _, sys := range throughputSystems {
			v := p.FPS[sys]
			if sys == "mobilenets" && p.K > 30 {
				if !math.IsNaN(v) {
					t.Fatalf("measured MobileNets at k=%d = %v, want OOM (NaN)", p.K, v)
				}
				continue
			}
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("measured %s at k=%d: %v", sys, p.K, v)
			}
		}
	}
	// The report ffbench -json writes must still encode: OOM is null.
	data, err := json.Marshal(res)
	if err != nil || !strings.Contains(string(data), `"mobilenets":null`) {
		t.Fatalf("OOM point does not encode as null: %v\n%s", err, data)
	}
	var decoded struct {
		Measured []struct{ FPS map[string]*float64 }
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if m := decoded.Measured; len(m) != 2 || m[0].FPS["mobilenets"] == nil || m[1].FPS["mobilenets"] != nil {
		t.Fatalf("mobilenets should be a number at k=1 and null at k=32: %s", data)
	}
}

func TestBreakdownSmoke(t *testing.T) {
	res, err := Breakdown(io.Discard, tinyOptions(), filter.LocalizedBinary, []int{1, 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Only deterministic facts: how the times compare across k depends
	// on the machine's load, and bench/ measures it.
	for i, k := range []int{1, 8} {
		if p := res.Points[i]; p.K != k || p.BaseSeconds <= 0 || p.MCSeconds <= 0 {
			t.Fatalf("point %d = %+v, want K=%d with positive times", i, p, k)
		}
	}
}

func TestWindowBufferAblationSmoke(t *testing.T) {
	res, err := WindowBufferAblation(io.Discard, tinyOptions(), 12)
	if err != nil {
		t.Fatal(err)
	}
	if res.MAddsSavings <= 1 {
		t.Fatalf("buffering saved no madds: %+v", res)
	}
	if res.BufferedSec <= 0 || res.UnbufferedSec <= 0 {
		t.Fatalf("timing missing: %+v", res)
	}
}

func TestCropAblationSmoke(t *testing.T) {
	res, err := CropAblation(io.Discard, tinyOptions(), "roadway")
	if err != nil {
		t.Fatal(err)
	}
	// §3.2: cropping cuts the paper-scale compute proportionally.
	if res.CropMAdds <= 0 || res.ComputeSavings <= 1 {
		t.Fatalf("crop saved no madds: %+v", res)
	}
	for _, r := range []float64{res.WithCrop.F1, res.WithoutCrop.F1} {
		if r < 0 || r > 1 {
			t.Fatalf("F1 out of range: %+v", res)
		}
	}
}

func TestPoolingBaselineSmoke(t *testing.T) {
	res, err := PoolingBaseline(io.Discard, tinyOptions(), "roadway")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{res.Pooling.F1, res.Localized.F1} {
		if r < 0 || r > 1 {
			t.Fatalf("F1 out of range: %+v", res)
		}
	}
}
