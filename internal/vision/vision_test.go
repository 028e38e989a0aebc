package vision

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestImageSetAt(t *testing.T) {
	im := NewImage(4, 3)
	im.Set(2, 1, 0.1, 0.2, 0.3)
	r, g, b := im.At(2, 1)
	if r != 0.1 || g != 0.2 || b != 0.3 {
		t.Fatalf("At = (%v,%v,%v)", r, g, b)
	}
}

func TestFillRectClips(t *testing.T) {
	im := NewImage(4, 4)
	im.fillRect(-5, -5, 100, 2, 1, 1, 1)
	r, _, _ := im.At(0, 0)
	if r != 1 {
		t.Fatal("rect did not paint inside")
	}
	r, _, _ = im.At(0, 3)
	if r != 0 {
		t.Fatal("rect painted outside clip")
	}
}

func TestFillEllipseInscribed(t *testing.T) {
	im := NewImage(10, 10)
	im.fillEllipse(0, 0, 10, 10, 1, 0, 0)
	// Center painted, corner not.
	r, _, _ := im.At(5, 5)
	if r != 1 {
		t.Fatal("ellipse center not painted")
	}
	r, _, _ = im.At(0, 0)
	if r != 0 {
		t.Fatal("ellipse painted its bounding-box corner")
	}
}

func TestTensorRoundTrip(t *testing.T) {
	im := NewImage(5, 4)
	rng := tensor.NewRNG(1)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	x := im.ToTensor()
	if x.Shape[0] != 1 || x.Shape[1] != 4 || x.Shape[2] != 5 || x.Shape[3] != 3 {
		t.Fatalf("tensor shape %v, want [1 4 5 3]", x.Shape)
	}
	for i := range im.Pix {
		if x.Data[i] != im.Pix[i] {
			t.Fatal("tensor round trip lost data")
		}
	}
}

func TestPSNR(t *testing.T) {
	a := NewImage(8, 8)
	b := a.Clone()
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical images should have infinite PSNR")
	}
	for i := range b.Pix {
		b.Pix[i] += 0.1
	}
	got := PSNR(a, b)
	if math.Abs(got-20) > 1e-6 { // mse = 0.01 -> 20dB
		t.Fatalf("PSNR = %v, want 20", got)
	}
}

func TestNoiseClamps(t *testing.T) {
	bg := NewImage(16, 16)
	bg.fillRect(0, 0, 16, 16, 1, 1, 1)
	s := &Scene{Background: bg, NoiseStd: 0.5}
	for _, v := range s.Render(nil, 1.1, tensor.NewRNG(2)).Pix {
		if v < 0 || v > 1 {
			t.Fatalf("noise escaped [0,1]: %v", v)
		}
	}
}

func TestRectIntersect(t *testing.T) {
	r := Rect{X0: 10, Y0: 10, X1: 20, Y1: 20}
	o := &Object{X: 15, Y: 15, W: 10, H: 10}
	if got := r.Intersect(o); got != 25 {
		t.Fatalf("intersect = %v, want 25", got)
	}
	far := &Object{X: 100, Y: 100, W: 5, H: 5}
	if r.Intersect(far) != 0 {
		t.Fatal("disjoint boxes intersected")
	}
}

func TestRectScalePaperCrops(t *testing.T) {
	// Table 3c: Pedestrian crop (0,539)-(1919,1079) is the bottom half
	// of a 1920x1080 frame; scaled to 192x108 it must stay the bottom
	// half.
	crop := Rect{X0: 0, Y0: 539, X1: 1920, Y1: 1080}
	s := crop.Scale(1920, 1080, 192, 108)
	if s.X0 != 0 || s.X1 != 192 {
		t.Fatalf("scaled crop X = %v", s)
	}
	if s.Y0 < 53 || s.Y0 > 54 || s.Y1 != 108 {
		t.Fatalf("scaled crop Y = %v", s)
	}
}

func TestRectScaleStaysInBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		fw, fh := 100+rng.Intn(2000), 100+rng.Intn(2000)
		x0, y0 := rng.Intn(fw-1), rng.Intn(fh-1)
		r := Rect{X0: x0, Y0: y0, X1: x0 + 1 + rng.Intn(fw-x0-1) + 1, Y1: y0 + 1 + rng.Intn(fh-y0-1) + 1}
		if r.X1 > fw {
			r.X1 = fw
		}
		if r.Y1 > fh {
			r.Y1 = fh
		}
		tw, th := 8+rng.Intn(256), 8+rng.Intn(256)
		s := r.Scale(fw, fh, tw, th)
		return s.X0 >= 0 && s.Y0 >= 0 && s.X1 <= tw && s.Y1 <= th && s.X0 < s.X1 && s.Y0 < s.Y1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBackgroundDeterministic(t *testing.T) {
	cw := &Rect{X0: 10, Y0: 40, X1: 50, Y1: 60}
	a := Background(64, 64, cw, 42)
	b := Background(64, 64, cw, 42)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("backgrounds differ for same seed")
		}
	}
	c := Background(64, 64, cw, 43)
	same := true
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical backgrounds")
	}
}

func TestPedestrianRedHasRedTorso(t *testing.T) {
	im := NewImage(40, 40)
	o := &Object{Kind: PedestrianRed, X: 10, Y: 10, W: 8, H: 20,
		Body: [3]float32{0.2, 0.2, 0.8}, Accent: [3]float32{0.9, 0.1, 0.1}}
	o.draw(im)
	// Sample the torso center: must be the accent (red) color.
	r, g, b := im.At(14, 10+4+4) // below the head band
	if r != 0.9 || g != 0.1 || b != 0.1 {
		t.Fatalf("red pedestrian torso = (%v,%v,%v), want accent", r, g, b)
	}
}

func TestPlainPedestrianKeepsBodyColor(t *testing.T) {
	im := NewImage(40, 40)
	o := &Object{Kind: Pedestrian, X: 10, Y: 10, W: 8, H: 20,
		Body: [3]float32{0.2, 0.2, 0.8}, Accent: [3]float32{0.9, 0.1, 0.1}}
	o.draw(im)
	r, g, b := im.At(14, 18)
	if r != 0.2 || g != 0.2 || b != 0.8 {
		t.Fatalf("pedestrian torso = (%v,%v,%v), want body color", r, g, b)
	}
}

func TestSceneRenderDoesNotMutateBackground(t *testing.T) {
	bg := Background(32, 32, nil, 1)
	orig := bg.Clone()
	s := &Scene{Background: bg, NoiseStd: 0.02}
	obj := &Object{Kind: Car, X: 5, Y: 20, W: 10, H: 5, Body: [3]float32{0.7, 0.1, 0.1}}
	_ = s.Render([]Object{*obj}, 1.0, tensor.NewRNG(3))
	for i := range bg.Pix {
		if bg.Pix[i] != orig.Pix[i] {
			t.Fatal("Render mutated the background")
		}
	}
}

func TestSceneRenderPlacesObject(t *testing.T) {
	bg := Background(32, 32, nil, 1)
	s := &Scene{Background: bg}
	obj := &Object{Kind: Car, X: 8, Y: 20, W: 12, H: 6, Body: [3]float32{0.9, 0.05, 0.05}}
	frame := s.Render([]Object{*obj}, 1.0, tensor.NewRNG(4))
	// Car body occupies the lower 2/3 of its box.
	r, _, _ := frame.At(14, 25)
	if r < 0.8 {
		t.Fatalf("car body not rendered, r=%v", r)
	}
}
