package dataset

import (
	"testing"

	"repro/internal/vision"
)

func TestJacksonStatsNearPaperProportions(t *testing.T) {
	// Figure 3b: Jackson has 95238/600000 ≈ 15.9% event frames. The
	// synthetic generator must land in the same regime (10–25%).
	d := Generate(Jackson(192, 4000, 1))
	s := d.Stats()
	if s.EventFraction < 0.08 || s.EventFraction > 0.30 {
		t.Fatalf("jackson event fraction = %v, want ~0.16", s.EventFraction)
	}
	if s.UniqueEvents < 5 {
		t.Fatalf("jackson unique events = %d, too few for event metrics", s.UniqueEvents)
	}
}

func TestRoadwayStatsNearPaperProportions(t *testing.T) {
	// Figure 3b: Roadway has 71296/324009 ≈ 22% event frames.
	d := Generate(Roadway(192, 4000, 2))
	s := d.Stats()
	if s.EventFraction < 0.10 || s.EventFraction > 0.35 {
		t.Fatalf("roadway event fraction = %v, want ~0.22", s.EventFraction)
	}
	if s.UniqueEvents < 5 {
		t.Fatalf("roadway unique events = %d", s.UniqueEvents)
	}
}

func TestFramesDeterministic(t *testing.T) {
	cfg := Jackson(96, 50, 3)
	a := Generate(cfg)
	b := Generate(cfg)
	fa := a.Frame(17)
	fb := b.Frame(17)
	for i := range fa.Pix {
		if fa.Pix[i] != fb.Pix[i] {
			t.Fatal("frame 17 differs across identical generations")
		}
	}
	// Random access equals sequential access.
	fa2 := a.Frame(17)
	for i := range fa.Pix {
		if fa.Pix[i] != fa2.Pix[i] {
			t.Fatal("frame 17 not stable across repeated renders")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Jackson(96, 200, 1))
	b := Generate(Jackson(96, 200, 99))
	sameEvents := len(a.Events) == len(b.Events)
	if sameEvents {
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				sameEvents = false
				break
			}
		}
	}
	if sameEvents && len(a.Events) > 0 {
		t.Fatal("different seeds produced identical event schedules")
	}
}

func TestLabelsMatchGeometry(t *testing.T) {
	d := Generate(Jackson(96, 400, 4))
	region := d.Cfg.Region()
	for i := 0; i < d.Cfg.Frames; i++ {
		want := false
		for _, o := range d.objectsAt(i) {
			if !d.Cfg.matches(o.Kind) {
				continue
			}
			if region.Intersect(o) >= 0.25*o.W*o.H {
				want = true
				break
			}
		}
		if want != d.Labels[i] {
			t.Fatalf("frame %d label %v, geometry says %v", i, d.Labels[i], want)
		}
	}
}

func TestEventsFromLabels(t *testing.T) {
	labels := []bool{false, true, true, false, false, true, false, true}
	events := EventsFromLabels(labels)
	want := []Range{{1, 3}, {5, 6}, {7, 8}}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
	if len(EventsFromLabels(nil)) != 0 {
		t.Fatal("empty labels should have no events")
	}
	all := EventsFromLabels([]bool{true, true})
	if len(all) != 1 || all[0] != (Range{0, 2}) {
		t.Fatalf("all-true labels: %v", all)
	}
}

func TestEventsAreMaximalRuns(t *testing.T) {
	d := Generate(Roadway(96, 600, 5))
	covered := 0
	for i, e := range d.Events {
		if e.Start >= e.End {
			t.Fatalf("event %d empty: %+v", i, e)
		}
		for f := e.Start; f < e.End; f++ {
			if !d.Labels[f] {
				t.Fatalf("event %d contains negative frame %d", i, f)
			}
		}
		if e.Start > 0 && d.Labels[e.Start-1] {
			t.Fatalf("event %d not maximal on the left", i)
		}
		if e.End < len(d.Labels) && d.Labels[e.End] {
			t.Fatalf("event %d not maximal on the right", i)
		}
		covered += e.Len()
	}
	total := 0
	for _, l := range d.Labels {
		if l {
			total++
		}
	}
	if covered != total {
		t.Fatalf("events cover %d frames, labels say %d", covered, total)
	}
}

func TestJacksonDistractorPedestriansStayOutOfRegion(t *testing.T) {
	// In the Pedestrian task every pedestrian in the region is a
	// target by definition, so distractor pedestrians must remain
	// outside it (cars may pass through).
	d := Generate(Jackson(96, 1000, 6))
	region := d.Cfg.Region()
	for i := 0; i < d.Cfg.Frames; i++ {
		if d.Labels[i] {
			continue
		}
		for _, o := range d.objectsAt(i) {
			if o.Kind == vision.Car {
				continue
			}
			if region.Intersect(o) >= 0.25*o.W*o.H {
				t.Fatalf("frame %d: pedestrian in region but label negative", i)
			}
		}
	}
}

func TestRoadwayHasNonRedPedestriansInRegion(t *testing.T) {
	// The red task is only well-posed if non-red pedestrians walk the
	// same band; verify some do.
	d := Generate(Roadway(96, 3000, 7))
	region := d.Cfg.Region()
	found := false
	for i := 0; i < d.Cfg.Frames && !found; i += 5 {
		for _, o := range d.objectsAt(i) {
			if o.Kind == vision.Pedestrian && region.Intersect(o) > 0 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no non-red pedestrian ever entered the region: task degenerate")
	}
}

func TestRegionScalesToWorkingCoords(t *testing.T) {
	cfg := Roadway(204, 10, 1)
	r := cfg.Region()
	// Paper: (0,315)-(2047,819) of 2048x850 ≈ y in [37%, 96%].
	if r.X0 != 0 || r.X1 != 204 {
		t.Fatalf("region X = %+v", r)
	}
	fy0 := float64(r.Y0) / float64(cfg.Height)
	fy1 := float64(r.Y1) / float64(cfg.Height)
	if fy0 < 0.33 || fy0 > 0.41 || fy1 < 0.92 {
		t.Fatalf("region Y fraction = %v..%v", fy0, fy1)
	}
}

func TestBrightnessDriftBounded(t *testing.T) {
	d := Generate(Jackson(96, 100, 8))
	for i := 0; i < 100; i++ {
		b := d.brightness(i)
		if b < 0.94 || b > 1.06 {
			t.Fatalf("brightness(%d) = %v outside drift bounds", i, b)
		}
	}
}

func TestFrameOutOfRangePanics(t *testing.T) {
	d := Generate(Jackson(96, 10, 9))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range frame did not panic")
		}
	}()
	d.Frame(10)
}
