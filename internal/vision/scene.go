package vision

import (
	"fmt"

	"repro/internal/tensor"
)

// ObjectKind enumerates the sprite types the renderer knows how to
// draw. The two evaluation tasks of the paper are expressed in terms
// of these kinds: the Pedestrian task looks for any Pedestrian or
// PedestrianRed in a crosswalk region, and the People-with-red task
// looks specifically for PedestrianRed.
type ObjectKind int

const (
	// Pedestrian is a walking person with arbitrary (non-red) clothing.
	Pedestrian ObjectKind = iota
	// PedestrianRed is a person wearing red clothing or carrying a red
	// parcel — the target of the Roadway dataset's task.
	PedestrianRed
	// Car is a passing vehicle, a distractor for both tasks.
	Car
)

// String implements fmt.Stringer.
func (k ObjectKind) String() string {
	switch k {
	case Pedestrian:
		return "pedestrian"
	case PedestrianRed:
		return "pedestrian-red"
	case Car:
		return "car"
	default:
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
}

// Object is a sprite at a moment in time. Positions are float pixels;
// X, Y locate the top-left corner of the bounding box.
type Object struct {
	// Kind selects the sprite drawn.
	Kind ObjectKind
	// X, Y, W, H define the bounding box in pixels.
	X, Y, W, H float64
	// Body is the primary sprite color (clothing / car body).
	Body [3]float32
	// Accent is the secondary color (torso stripe / car roof).
	Accent [3]float32
}

// Rect is an integer pixel rectangle, half-open: [X0,X1) × [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// Contains reports whether the point is inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the overlap area of r with the object's bounding
// box, in square pixels.
func (r Rect) Intersect(o *Object) float64 {
	x0 := maxF(float64(r.X0), o.X)
	y0 := maxF(float64(r.Y0), o.Y)
	x1 := minF(float64(r.X1), o.X+o.W)
	y1 := minF(float64(r.Y1), o.Y+o.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	return (x1 - x0) * (y1 - y0)
}

// Scale maps the rectangle from one coordinate space to another,
// rounding outward minimally. It is used to rescale the paper's
// pixel-space crop regions (Table 3c) to working-scale frames and to
// feature-map space.
func (r Rect) Scale(fromW, fromH, toW, toH int) Rect {
	sx := float64(toW) / float64(fromW)
	sy := float64(toH) / float64(fromH)
	out := Rect{
		X0: int(float64(r.X0) * sx),
		Y0: int(float64(r.Y0) * sy),
		X1: int(float64(r.X1)*sx + 0.9999),
		Y1: int(float64(r.Y1)*sy + 0.9999),
	}
	if out.X1 > toW {
		out.X1 = toW
	}
	if out.Y1 > toH {
		out.Y1 = toH
	}
	if out.X0 >= out.X1 {
		out.X0 = out.X1 - 1
	}
	if out.Y0 >= out.Y1 {
		out.Y0 = out.Y1 - 1
	}
	if out.X0 < 0 {
		out.X0 = 0
	}
	if out.Y0 < 0 {
		out.Y0 = 0
	}
	return out
}

// Background procedurally draws a fixed urban scene: sky band,
// building texture, road surface, and (optionally) crosswalk stripes
// inside the given region. Deterministic in the seed.
func Background(w, h int, crosswalk *Rect, seed int64) *Image {
	rng := tensor.NewRNG(seed)
	im := NewImage(w, h)
	skyEnd := h / 4
	buildingEnd := h / 2
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			switch {
			case y < skyEnd:
				// Sky gradient.
				f := float32(y) / float32(skyEnd)
				im.Set(x, y, 0.55+0.1*f, 0.7, 0.9-0.1*f)
			case y < buildingEnd:
				// Building texture: blocky pseudo-random facade.
				bx, by := x/6, y/5
				v := 0.3 + 0.25*hash01(int64(bx)*7919+int64(by)*104729+seed)
				im.Set(x, y, v, v*0.95, v*0.9)
			default:
				// Road: dark asphalt with mild texture.
				v := 0.22 + 0.05*rng.Float32()
				im.Set(x, y, v, v, v+0.01)
			}
		}
	}
	if crosswalk != nil {
		// Zebra stripes across the crosswalk region.
		stripe := maxI(2, (crosswalk.X1-crosswalk.X0)/16)
		for x := crosswalk.X0; x < crosswalk.X1; x++ {
			if ((x-crosswalk.X0)/stripe)%2 == 0 {
				for y := crosswalk.Y0; y < crosswalk.Y1; y++ {
					if y >= 0 && y < h && x >= 0 && x < w {
						im.Set(x, y, 0.75, 0.75, 0.75)
					}
				}
			}
		}
	}
	return im
}

// hash01 maps an integer to a deterministic pseudo-random value in
// [0,1) without consuming RNG state (so background texture does not
// depend on draw order).
func hash01(v int64) float32 {
	u := uint64(v)
	u ^= u >> 33
	u *= 0xff51afd7ed558ccd
	u ^= u >> 33
	u *= 0xc4ceb9fe1a85ec53
	u ^= u >> 33
	return float32(u%1000000) / 1000000
}

// draw renders the object onto the image. Sprites are deliberately
// simple — the point is that targets and distractors differ in shape
// and color the way real scene content does, at the handful-of-pixels
// scale that wide-angle surveillance imposes (§2.2.2 of the paper).
func (o *Object) draw(im *Image) {
	x0, y0 := int(o.X), int(o.Y)
	x1, y1 := int(o.X+o.W), int(o.Y+o.H)
	switch o.Kind {
	case Pedestrian, PedestrianRed:
		// Head: top fifth, skin-tone ellipse.
		headH := maxI(1, (y1-y0)/5)
		im.fillEllipse(x0+(x1-x0)/4, y0, x1-(x1-x0)/4, y0+headH, 0.85, 0.7, 0.6)
		// Torso: middle, body color (red accent for PedestrianRed).
		torsoEnd := y0 + (y1-y0)*3/5
		body := o.Body
		if o.Kind == PedestrianRed {
			body = o.Accent // accent holds the red garment color
		}
		im.fillRect(x0, y0+headH, x1, torsoEnd, body[0], body[1], body[2])
		// Legs: bottom, darker.
		im.fillRect(x0+(x1-x0)/6, torsoEnd, x1-(x1-x0)/6, y1, 0.15, 0.15, 0.18)
	case Car:
		// Body with a roof band and dark wheels.
		im.fillRect(x0, y0+(y1-y0)/3, x1, y1, o.Body[0], o.Body[1], o.Body[2])
		im.fillRect(x0+(x1-x0)/5, y0, x1-(x1-x0)/5, y0+(y1-y0)/2, o.Accent[0], o.Accent[1], o.Accent[2])
		wheelR := maxI(1, (y1-y0)/4)
		im.fillEllipse(x0+wheelR, y1-wheelR, x0+3*wheelR, y1+wheelR, 0.05, 0.05, 0.05)
		im.fillEllipse(x1-3*wheelR, y1-wheelR, x1-wheelR, y1+wheelR, 0.05, 0.05, 0.05)
	}
}

// Scene composes a background and a set of objects into frames.
type Scene struct {
	// Background is the static scene; it is never mutated by Render.
	Background *Image
	// NoiseStd is the per-frame Gaussian sensor noise.
	NoiseStd float32
}

// Render draws the objects over the background and applies brightness
// drift and sensor noise, returning a new frame. Brightness and noise
// take one pass over the pixels (tensor.RNG.NoisePixels): each value is
// scaled by brightness and clamped to [0,1] (unless brightness is 0 or
// 1), then takes NoiseStd times one normal draw and is clamped again.
// A scene without noise draws nothing from rng.
func (s *Scene) Render(objects []Object, brightness float32, rng *tensor.RNG) *Image {
	im := s.Background.Clone()
	for i := range objects {
		objects[i].draw(im)
	}
	if brightness == 0 {
		brightness = 1
	}
	switch {
	case s.NoiseStd > 0:
		rng.NoisePixels(im.Pix, brightness, s.NoiseStd)
	case brightness != 1:
		im.scaleBrightness(brightness)
	}
	return im
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
