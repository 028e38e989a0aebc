package perfmodel

import (
	"math"
	"testing"

	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/vision"
)

func TestPaperScaleMCCostNearPaper(t *testing.T) {
	// §4.5 / Figure 7: the localized binary classifier on conv4_2/sep
	// at 1920×1080 is on the order of 100M multiply-adds.
	m := New(1920, 1080)
	c, err := m.MCCost(filter.Spec{Name: "loc", Arch: filter.LocalizedBinary, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c < 50e6 || c > 400e6 {
		t.Fatalf("localized MC paper cost = %d, want ~1e8", c)
	}
}

func TestCropReducesPaperCostProportionally(t *testing.T) {
	m := New(1920, 1080)
	full, _ := m.MCCost(filter.Spec{Name: "f", Arch: filter.LocalizedBinary, Seed: 1})
	crop := vision.Rect{X0: 0, Y0: 539, X1: 1920, Y1: 1080}
	half, err := m.MCCost(filter.Spec{Name: "h", Arch: filter.LocalizedBinary, Crop: &crop, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(half) / float64(full)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("bottom-half crop cost ratio = %v, want ~0.5", ratio)
	}
}

func TestBaseCostDominatesMC(t *testing.T) {
	// The premise of Figure 6: the base DNN costs orders of magnitude
	// more madds than one MC.
	m := New(1920, 1080)
	base, err := m.BaseCost("conv4_2/sep", "conv5_6/sep")
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := m.MCCost(filter.Spec{Name: "l", Arch: filter.LocalizedBinary, Seed: 1})
	if base < 20*mc {
		t.Fatalf("base %d not >> MC %d", base, mc)
	}
	// Base cost at 1080p should be tens of billions (569M at 224² ×41).
	if base < 5e9 || base > 1e11 {
		t.Fatalf("base cost = %d, implausible for 1080p MobileNet", base)
	}
}

func TestDCSweepSpansPaperRange(t *testing.T) {
	// §4.4: DCs between 100M and 2.5B multiply-adds. Our sweep at
	// paper scale should overlap that range.
	m := New(1920, 1080)
	var lo, hi int64 = 1 << 62, 0
	for _, cfg := range filter.DCSweep(1) {
		c, err := m.DCCost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if lo > 500e6 {
		t.Fatalf("cheapest DC %d > 500M", lo)
	}
	if hi < 800e6 {
		t.Fatalf("most expensive DC %d < 800M", hi)
	}
}

func TestBreakEvenExistsAndIsSmall(t *testing.T) {
	// With equal rates across systems, break-even is
	// base/(dc-mc); pick illustrative paper-like costs.
	r := Rates{Base: 1e9, MC: 1e9, DC: 1e9, MobileNet: 1e9}
	k := BreakEvenK(3_000, 100, 1_100, r, 100)
	if k != 3 {
		t.Fatalf("break-even = %d, want 3", k)
	}
	if BreakEvenK(1_000_000, 100, 101, r, 10) != -1 {
		t.Fatal("impossible break-even not detected")
	}
}

func TestThroughputCurvesCross(t *testing.T) {
	// FF starts slower (upfront base cost) and overtakes as k grows.
	r := Rates{Base: 1e9, MC: 1e9, DC: 1e9, MobileNet: 1e9}
	base, mc, dc := int64(3000), int64(100), int64(1100)
	ff1 := Throughput(FFSecondsPerFrame(base, repeat(mc, 1), r))
	dc1 := Throughput(NSecondsPerFrame(dc, 1, r.DC))
	if ff1 >= dc1 {
		t.Fatal("FF should start below DCs at k=1")
	}
	ff50 := Throughput(FFSecondsPerFrame(base, repeat(mc, 50), r))
	dc50 := Throughput(NSecondsPerFrame(dc, 50, r.DC))
	if ff50 <= dc50 {
		t.Fatal("FF should beat DCs at k=50")
	}
}

func TestMemoryModelMatchesPaper(t *testing.T) {
	// §4.4: multiple MobileNets run out of memory beyond 30
	// instances.
	m := PaperMemoryModel()
	if got := m.MaxInstances(); got != 30 {
		t.Fatalf("max MobileNet instances = %d, want 30", got)
	}
}

func TestCalibrateRatesPositive(t *testing.T) {
	r, err := Calibrate(64, 36)
	if err != nil {
		t.Fatal(err)
	}
	if r.Base <= 0 || r.MC <= 0 || r.DC <= 0 || r.MobileNet <= 0 {
		t.Fatalf("rates not positive: %+v", r)
	}
}

func TestMAddsFreeNetRateFloor(t *testing.T) {
	// A network with zero multiply-adds must not divide by zero: its
	// rate is the one-op floor over the measured time.
	net := nn.NewNetwork("max-only").Add(nn.NewGlobalMax("max"))
	r, err := MeasureNetRate(net, []int{1, 4, 6, 3}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		t.Fatalf("madds-free net rate = %v, want finite and positive", r)
	}

	// A net a program cannot compile (the windowed MC's, whose
	// WindowReduce only trains) is an error, not a rate.
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
	mc, err := filter.NewMC(filter.Spec{Name: "win", Arch: filter.WindowedLocalizedBinary, Seed: 1}, base, 64, 36)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MeasureNetRate(mc.Net(), mc.InputShape(), 1); err == nil {
		t.Fatal("uncompilable net measured without error")
	}
}
