package perfmodel

import (
	"testing"

	"repro/internal/filter"
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
	base, err := m.base.MAddsTo("conv5_6/sep", []int{1, m.FrameH, m.FrameW, 3})
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

func TestMemoryModelMatchesPaper(t *testing.T) {
	// §4.4: multiple MobileNets run out of memory beyond 30
	// instances.
	m := PaperMemoryModel()
	if got := m.MaxInstances(); got != 30 {
		t.Fatalf("max MobileNet instances = %d, want 30", got)
	}
}
