package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
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

// TestLabelsMatchGeometry holds the labels, which Generate derives by
// walking each target's lifetime, to the brute-force definition: frame
// i is positive when any target-kind object alive at i overlaps the
// region by a quarter of its area, every frame checked against every
// object.
func TestLabelsMatchGeometry(t *testing.T) {
	var cfgs []Config
	for _, seed := range []int64{4, 17, -3, 1 << 40} {
		dense := Roadway(96, 1200, seed)
		dense.EventsPer1000, dense.MeanEventFrames = 12, 40
		cfgs = append(cfgs, Jackson(96, 1200, seed), Roadway(96, 1200, seed), dense)
	}
	for _, cfg := range cfgs {
		d := Generate(cfg)
		region := d.Cfg.Region()
		want := make([]bool, d.Cfg.Frames)
		for i := range want {
			for k := range d.objects {
				s := &d.objects[k]
				if !d.Cfg.matches(s.obj.Kind) || i < s.t0 || i >= s.t0+s.life {
					continue
				}
				o := s.at(i)
				if region.Intersect(&o) >= 0.25*o.W*o.H {
					want[i] = true
					break
				}
			}
		}
		for i := range want {
			if want[i] != d.Labels[i] {
				t.Fatalf("%s seed %d: frame %d label %v, geometry says %v", cfg.Name, cfg.Seed, i, d.Labels[i], want[i])
			}
		}
		if got, want := len(d.Events), len(EventsFromLabels(want)); got != want {
			t.Fatalf("%s seed %d: %d events, geometry says %d", cfg.Name, cfg.Seed, got, want)
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
		for _, o := range d.visibleAt(i, nil) {
			if o.Kind == vision.Car {
				continue
			}
			if region.Intersect(&o) >= 0.25*o.W*o.H {
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
		for _, o := range d.visibleAt(i, nil) {
			if o.Kind == vision.Pedestrian && region.Intersect(&o) > 0 {
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

// frameDigests are SHA-256 digests of every frame's pixels (each
// float32's bits, little-endian, frame after frame), recorded from the
// renderer that drew each sample with one math/rand NormFloat64 call on
// a fresh rand.Rand per frame. A faster generator or render loop must
// keep them: every figure, fixture and benchmark clip is built from
// these frames.
var frameDigests = []struct {
	cfg    Config
	digest string
}{
	{Jackson(96, 150, 3), "35db12704aee90191641e51fc5c3ce9611ff4cab867d4fc42445557de3f1bcb5"},
	{Roadway(96, 150, 12), "b6e5c6c9b2ab9546bf7673cf7ade19bc862e3a766b563ec7a05c504bc811a94a"},
	{Jackson(48, 60, -7), "b9ea9f631cf4d562afc07a726bc7586279d643d6fdf05de05e01cb104bd91073"},
	{Roadway(160, 40, 0), "ba4b5316f8c6bac9b7aad25c90455deb87867477fd865b40c90bb4f6f8014e78"},
}

func TestFrameDigests(t *testing.T) {
	for _, c := range frameDigests {
		d := Generate(c.cfg)
		h := sha256.New()
		var b [4]byte
		for i := 0; i < c.cfg.Frames; i++ {
			for _, v := range d.Frame(i).Pix {
				binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
			t.Errorf("%s %dx%d, %d frames, seed %d: frame digest %s, want %s", c.cfg.Name, c.cfg.Width, c.cfg.Height, c.cfg.Frames, c.cfg.Seed, got, c.digest)
		}
	}
}

// TestFrameAllocatesOnlyItsImage: Frame's generator and sprite list
// come from a pool, so a frame costs the image it returns (its header
// and its pixels) and nothing else.
func TestFrameAllocatesOnlyItsImage(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's sync.Pool drops items at random")
	}
	d := Generate(Roadway(96, 200, 21))
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		d.Frame(i % 200)
		i++
	})
	if allocs > 2 {
		t.Fatalf("Frame allocates %v times per call, want 2 (the image and its pixels)", allocs)
	}
}

// TestFrameConcurrent: goroutines rendering the same frames at once,
// each drawing generators from the shared pool, get the frames a
// sequential render gets.
func TestFrameConcurrent(t *testing.T) {
	d := Generate(Jackson(48, 40, 13))
	want := make([][]float32, d.Cfg.Frames)
	for i := range want {
		want[i] = d.Frame(i).Pix
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range want {
				i := (k + 7*w) % len(want)
				for p, v := range d.Frame(i).Pix {
					if math.Float32bits(v) != math.Float32bits(want[i][p]) {
						t.Errorf("goroutine %d, frame %d: [%d] %v, sequential %v", w, i, p, v, want[i][p])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFrame renders the frames of a benchmark-sized Roadway clip
// (96×39) in turn: sprites, brightness drift and sensor noise.
func BenchmarkFrame(b *testing.B) {
	d := Generate(Roadway(96, 1200, 41))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Frame(i % 1200)
	}
}
