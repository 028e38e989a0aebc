// Package dataset generates the two evaluation workloads of the paper
// (Figure 3) as synthetic video: the Jackson dataset with its
// Pedestrian task (people in the crosswalks) and the Roadway dataset
// with its People-with-red task (passing pedestrians wearing red).
//
// Datasets are generated at a configurable working scale (the paper's
// native resolutions divided by a linear factor) so that the full
// pipeline — rendering, feature extraction, classification, smoothing,
// encoding — runs end-to-end in a pure-Go engine. Event-frame
// fractions match the paper's (≈16% for Jackson, ≈22% for Roadway);
// event durations are shortened proportionally so that working-scale
// runs still contain enough unique events for stable event-level
// metrics.
//
// Ground truth is exact by construction: a frame is labelled positive
// when a target-kind object overlaps the task region, and events are
// the maximal runs of positive frames.
package dataset

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
	"repro/internal/vision"
)

// Range is a half-open frame interval [Start, End).
type Range struct {
	Start, End int
}

// Len returns the number of frames in the range.
func (r Range) Len() int { return r.End - r.Start }

// Config describes one synthetic dataset.
type Config struct {
	// Name identifies the dataset ("jackson", "roadway").
	Name string
	// TaskName identifies the detection task ("pedestrian",
	// "people-with-red").
	TaskName string
	// Width, Height are the working-scale frame dimensions.
	Width, Height int
	// PaperWidth, PaperHeight are the native resolutions the paper
	// used; crop regions are specified in this space and rescaled.
	PaperWidth, PaperHeight int
	// FPS is the frame rate (15 in the paper).
	FPS int
	// Frames is the number of frames to generate.
	Frames int
	// Seed drives all randomness (schedule, colors, noise).
	Seed int64
	// TargetKind is the object kind the task detects. Pedestrian
	// matches PedestrianRed too (a red-wearing person is still a
	// pedestrian); PedestrianRed matches only red.
	TargetKind vision.ObjectKind
	// PaperRegion is the task's spatial region (Table 3c) in paper
	// pixel coordinates.
	PaperRegion vision.Rect
	// EventsPer1000 is the expected number of target events per 1000
	// frames.
	EventsPer1000 float64
	// MeanEventFrames is the mean duration of one target traversal.
	MeanEventFrames int
	// DistractorsPer1000 is the expected number of distractor spawns
	// (cars, non-target pedestrians) per 1000 frames.
	DistractorsPer1000 float64
	// PedestrianHeight is the sprite height of a person in working
	// pixels.
	PedestrianHeight int
	// NoiseStd is per-frame sensor noise.
	NoiseStd float32
	// BrightnessDrift is the amplitude of the slow sinusoidal lighting
	// change over the whole recording.
	BrightnessDrift float32
	// DetailFraction is the fraction of the target sprite's height
	// that carries the discriminative detail: 1.0 when mere presence
	// decides (Pedestrian task), smaller when a sub-part does (the
	// red garment of the People-with-red task is ~40% of the person).
	// The §3.4 layer-selection heuristic keys on this detail size.
	DetailFraction float64
}

// Region returns the task region rescaled to working coordinates.
func (c *Config) Region() vision.Rect {
	return c.PaperRegion.Scale(c.PaperWidth, c.PaperHeight, c.Width, c.Height)
}

// Jackson returns the Jackson-dataset configuration (1920×1080 native,
// Pedestrian task over the bottom half of the frame) at a working
// width. frames is the number of frames to generate and seed selects
// the "day" (the paper trains on day one and tests on day two; use
// different seeds).
func Jackson(workingWidth, frames int, seed int64) Config {
	h := workingWidth * 1080 / 1920
	return Config{
		Name: "jackson", TaskName: "pedestrian",
		Width: workingWidth, Height: h,
		PaperWidth: 1920, PaperHeight: 1080,
		FPS: 15, Frames: frames, Seed: seed,
		TargetKind: vision.Pedestrian,
		// Table 3c: (0,539) to (1919,1079).
		PaperRegion:        vision.Rect{X0: 0, Y0: 539, X1: 1920, Y1: 1080},
		EventsPer1000:      2.6,
		MeanEventFrames:    60,
		DistractorsPer1000: 18,
		PedestrianHeight:   maxI(7, workingWidth/10),
		NoiseStd:           0.015,
		BrightnessDrift:    0.02,
		DetailFraction:     1.0,
	}
}

// Roadway returns the Roadway-dataset configuration (2048×850 native,
// People-with-red task over the street band) at a working width.
func Roadway(workingWidth, frames int, seed int64) Config {
	h := workingWidth * 850 / 2048
	return Config{
		Name: "roadway", TaskName: "people-with-red",
		Width: workingWidth, Height: h,
		PaperWidth: 2048, PaperHeight: 850,
		FPS: 15, Frames: frames, Seed: seed,
		TargetKind: vision.PedestrianRed,
		// Table 3c: (0,315) to (2047,819) — 59% of the frame.
		PaperRegion:        vision.Rect{X0: 0, Y0: 315, X1: 2048, Y1: 819},
		EventsPer1000:      5.5,
		MeanEventFrames:    65,
		DistractorsPer1000: 22,
		PedestrianHeight:   maxI(7, workingWidth/10),
		NoiseStd:           0.015,
		BrightnessDrift:    0.02,
		DetailFraction:     0.4,
	}
}

// scheduled is one object's full space-time trajectory.
type scheduled struct {
	obj    vision.Object // geometry at t0; X,Y move with velocity
	t0     int
	life   int
	vx, vy float64
}

// Dataset is a generated workload: a deterministic frame source with
// exact ground truth.
type Dataset struct {
	// Cfg is the generating configuration.
	Cfg Config
	// Labels[i] is true when frame i contains a target in the region.
	Labels []bool
	// Events are the maximal runs of positive frames.
	Events []Range

	scene   *vision.Scene
	objects []scheduled
}

// Generate builds the object schedule and ground truth for cfg.
func Generate(cfg Config) *Dataset {
	if cfg.Frames <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("dataset: bad config %+v", cfg))
	}
	rng := tensor.NewRNG(cfg.Seed)
	region := cfg.Region()

	var crosswalk *vision.Rect
	if cfg.Name == "jackson" {
		cw := region
		crosswalk = &cw
	}
	// The scene (camera mount, background) is a property of the
	// dataset, not of the recording day: train and test days of the
	// same dataset share it, exactly as the paper's two consecutive
	// days from one fixed camera do. Only the schedule, sprites, and
	// noise vary with Seed.
	sceneSeed := int64(0)
	for _, ch := range cfg.Name {
		sceneSeed = sceneSeed*131 + int64(ch)
	}
	d := &Dataset{
		Cfg:    cfg,
		scene:  &vision.Scene{Background: vision.Background(cfg.Width, cfg.Height, crosswalk, sceneSeed), NoiseStd: cfg.NoiseStd},
		Labels: make([]bool, cfg.Frames),
	}

	d.scheduleTargets(rng, region)
	d.scheduleDistractors(rng, region)
	d.computeGroundTruth(region)
	return d
}

// pedestrianBody draws a non-red clothing color: hues biased away from
// red so the People-with-red task is well-posed.
func pedestrianBody(rng *tensor.RNG) [3]float32 {
	return [3]float32{
		0.05 + 0.25*rng.Float32(),
		0.2 + 0.6*rng.Float32(),
		0.2 + 0.6*rng.Float32(),
	}
}

// redAccent draws a strongly red garment color.
func redAccent(rng *tensor.RNG) [3]float32 {
	return [3]float32{
		0.75 + 0.25*rng.Float32(),
		0.05 + 0.15*rng.Float32(),
		0.05 + 0.15*rng.Float32(),
	}
}

// newPedestrian builds a pedestrian sprite template.
func (d *Dataset) newPedestrian(rng *tensor.RNG, kind vision.ObjectKind) vision.Object {
	h := float64(d.Cfg.PedestrianHeight) * (0.85 + 0.3*rng.Float64())
	return vision.Object{
		Kind: kind,
		W:    math.Max(2, h/2.5), H: h,
		Body:   pedestrianBody(rng),
		Accent: redAccent(rng),
	}
}

// scheduleTargets plans the task's events: target pedestrians
// traversing the region with exponential inter-arrival gaps.
func (d *Dataset) scheduleTargets(rng *tensor.RNG, region vision.Rect) {
	cfg := d.Cfg
	meanGap := 1000.0 / cfg.EventsPer1000
	t := int(expSample(rng, meanGap) * 0.5) // first event arrives early-ish
	for t < cfg.Frames {
		dur := int(float64(cfg.MeanEventFrames) * (0.6 + 0.8*rng.Float64()))
		if dur < 8 {
			dur = 8
		}
		obj := d.newPedestrian(rng, cfg.TargetKind)
		// Vertical placement fully inside the region.
		maxY := float64(region.Y1) - obj.H
		minY := float64(region.Y0)
		if maxY < minY {
			maxY = minY
		}
		obj.Y = minY + (maxY-minY)*rng.Float64()
		// Horizontal traversal across the whole region in dur frames.
		span := float64(region.X1-region.X0) + obj.W
		vx := span / float64(dur)
		if rng.Float32() < 0.5 {
			obj.X = float64(region.X0) - obj.W
		} else {
			obj.X = float64(region.X1)
			vx = -vx
		}
		d.objects = append(d.objects, scheduled{obj: obj, t0: t, life: dur + 1, vx: vx})
		t += dur + int(expSample(rng, meanGap))
	}
}

// scheduleDistractors plans non-target traffic: cars crossing the
// scene, and (for the red task) plain pedestrians sharing the same
// region so that color, not mere presence, is the deciding feature.
func (d *Dataset) scheduleDistractors(rng *tensor.RNG, region vision.Rect) {
	cfg := d.Cfg
	meanGap := 1000.0 / cfg.DistractorsPer1000
	t := int(expSample(rng, meanGap/2)) // warm start
	for t < cfg.Frames {
		if rng.Float32() < 0.55 {
			d.objects = append(d.objects, d.newCar(rng, t))
		} else {
			d.objects = append(d.objects, d.newDistractorPedestrian(rng, t, region))
		}
		t += int(expSample(rng, meanGap))
	}
}

// newCar builds a car traversal. Cars drive through a band around the
// road's center, which may overlap the task region — they are
// distractors for both tasks.
func (d *Dataset) newCar(rng *tensor.RNG, t0 int) scheduled {
	cfg := d.Cfg
	h := float64(cfg.PedestrianHeight) * (1.0 + 0.4*rng.Float64())
	w := h * 2.4
	body := [3]float32{0.2 + 0.6*rng.Float32(), 0.2 + 0.6*rng.Float32(), 0.2 + 0.6*rng.Float32()}
	obj := vision.Object{
		Kind: vision.Car, W: w, H: h,
		Body:   body,
		Accent: [3]float32{body[0] * 0.6, body[1] * 0.6, body[2] * 0.6},
	}
	roadTop := float64(cfg.Height) * 0.55
	roadBottom := float64(cfg.Height) * 0.9
	obj.Y = roadTop + (roadBottom-roadTop-obj.H)*rng.Float64()
	dur := 20 + rng.Intn(40)
	span := float64(cfg.Width) + obj.W
	vx := span / float64(dur)
	if rng.Float32() < 0.5 {
		obj.X = -obj.W
	} else {
		obj.X = float64(cfg.Width)
		vx = -vx
	}
	return scheduled{obj: obj, t0: t0, life: dur + 1, vx: vx}
}

// newDistractorPedestrian builds a non-target pedestrian. For the
// Pedestrian task they stay outside the region (sidewalk); for the
// People-with-red task they walk through the region but wear non-red
// clothing.
func (d *Dataset) newDistractorPedestrian(rng *tensor.RNG, t0 int, region vision.Rect) scheduled {
	cfg := d.Cfg
	obj := d.newPedestrian(rng, vision.Pedestrian)
	dur := 30 + rng.Intn(60)
	var minY, maxY float64
	if cfg.TargetKind == vision.Pedestrian {
		// Keep strictly above the region (sidewalk band).
		maxY = float64(region.Y0) - obj.H - 1
		minY = maxY - float64(cfg.Height)*0.08
		if minY < 0 {
			minY = 0
		}
		if maxY < minY {
			maxY = minY
		}
	} else {
		// Share the region with targets.
		minY = float64(region.Y0)
		maxY = float64(region.Y1) - obj.H
		if maxY < minY {
			maxY = minY
		}
	}
	obj.Y = minY + (maxY-minY)*rng.Float64()
	span := float64(cfg.Width) + obj.W
	vx := span / float64(dur)
	if rng.Float32() < 0.5 {
		obj.X = -obj.W
	} else {
		obj.X = float64(cfg.Width)
		vx = -vx
	}
	return scheduled{obj: obj, t0: t0, life: dur + 1, vx: vx}
}

// matches reports whether an object kind satisfies the task target.
func (c *Config) matches(k vision.ObjectKind) bool {
	if c.TargetKind == vision.Pedestrian {
		return k == vision.Pedestrian || k == vision.PedestrianRed
	}
	return k == c.TargetKind
}

// computeGroundTruth derives per-frame labels and event ranges from
// object geometry: a frame is positive when a target overlaps the task
// region by at least a quarter of the target's area. It walks each
// target's own lifetime, not every frame against every object.
func (d *Dataset) computeGroundTruth(region vision.Rect) {
	for k := range d.objects {
		s := &d.objects[k]
		if !d.Cfg.matches(s.obj.Kind) {
			continue
		}
		for i := max(s.t0, 0); i < min(s.t0+s.life, d.Cfg.Frames); i++ {
			if d.Labels[i] {
				continue
			}
			o := s.at(i)
			d.Labels[i] = region.Intersect(&o) >= 0.25*o.W*o.H
		}
	}
	d.Events = EventsFromLabels(d.Labels)
}

// EventsFromLabels returns the maximal runs of true labels.
func EventsFromLabels(labels []bool) []Range {
	var events []Range
	start := -1
	for i, l := range labels {
		if l && start < 0 {
			start = i
		}
		if !l && start >= 0 {
			events = append(events, Range{Start: start, End: i})
			start = -1
		}
	}
	if start >= 0 {
		events = append(events, Range{Start: start, End: len(labels)})
	}
	return events
}

// at returns the object's geometry at frame i.
func (s *scheduled) at(i int) vision.Object {
	o := s.obj
	dt := float64(i - s.t0)
	o.X += s.vx * dt
	o.Y += s.vy * dt
	return o
}

// visibleAt appends the sprites visible in frame i to objs, cars
// first so that pedestrians draw on top.
func (d *Dataset) visibleAt(i int, objs []vision.Object) []vision.Object {
	for _, cars := range [2]bool{true, false} {
		for k := range d.objects {
			s := &d.objects[k]
			if i >= s.t0 && i < s.t0+s.life && (s.obj.Kind == vision.Car) == cars {
				objs = append(objs, s.at(i))
			}
		}
	}
	return objs
}

// brightness returns the lighting multiplier at frame i: a slow
// sinusoidal drift across the recording.
func (d *Dataset) brightness(i int) float32 {
	if d.Cfg.BrightnessDrift == 0 {
		return 1
	}
	phase := 2 * math.Pi * float64(i) / float64(d.Cfg.Frames)
	return 1 + d.Cfg.BrightnessDrift*float32(math.Sin(phase))
}

// frameState is what one Frame call borrows from framePool: the
// noise generator, reseeded for the frame, and the visible sprites.
type frameState struct {
	rng  *tensor.RNG
	objs []vision.Object
}

var framePool = sync.Pool{New: func() any { return &frameState{rng: tensor.NewRNG(0)} }}

// Frame renders frame i. Rendering is deterministic and random-access:
// the same index always yields the identical frame. Frame allocates
// only the image it returns, and is safe to call concurrently.
func (d *Dataset) Frame(i int) *vision.Image {
	if i < 0 || i >= d.Cfg.Frames {
		panic(fmt.Sprintf("dataset: frame %d out of range [0,%d)", i, d.Cfg.Frames))
	}
	fs := framePool.Get().(*frameState)
	fs.rng.Seed(d.Cfg.Seed*1_000_003 + int64(i))
	fs.objs = d.visibleAt(i, fs.objs[:0])
	im := d.scene.Render(fs.objs, d.brightness(i), fs.rng)
	framePool.Put(fs)
	return im
}

// FrameTensor renders frame i as a [1,H,W,3] tensor.
func (d *Dataset) FrameTensor(i int) *tensor.Tensor {
	return d.Frame(i).ToTensor()
}

// Stats summarizes the dataset the way the paper's Figure 3b does.
type Stats struct {
	// Frames is the total frame count.
	Frames int
	// EventFrames is the number of positive frames.
	EventFrames int
	// UniqueEvents is the number of maximal positive runs.
	UniqueEvents int
	// EventFraction is EventFrames/Frames.
	EventFraction float64
	// MeanEventLen is the mean event length in frames.
	MeanEventLen float64
}

// Stats computes the dataset summary.
func (d *Dataset) Stats() Stats {
	s := Stats{Frames: d.Cfg.Frames, UniqueEvents: len(d.Events)}
	for _, l := range d.Labels {
		if l {
			s.EventFrames++
		}
	}
	if s.Frames > 0 {
		s.EventFraction = float64(s.EventFrames) / float64(s.Frames)
	}
	if len(d.Events) > 0 {
		total := 0
		for _, e := range d.Events {
			total += e.Len()
		}
		s.MeanEventLen = float64(total) / float64(len(d.Events))
	}
	return s
}

// expSample draws from an exponential distribution with the given
// mean, truncated to at least 1.
func expSample(rng *tensor.RNG, mean float64) float64 {
	u := rng.Float64()
	if u <= 0 {
		u = 1e-12
	}
	v := -mean * math.Log(u)
	if v < 1 {
		v = 1
	}
	return v
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
