package codec

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/tensor"
	"repro/internal/vision"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(1)
	var b, orig block
	for i := range b {
		b[i] = rng.Uniform(-128, 128)
		orig[i] = b[i]
	}
	fdct8x8(&b)
	idct8x8(&b, nonzeroMap(&b))
	for i := range b {
		if math.Abs(b[i]-orig[i]) > 1e-9 {
			t.Fatalf("DCT round trip lost %v at %d", b[i]-orig[i], i)
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// Orthonormal DCT preserves energy.
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		var b block
		var in float64
		for i := range b {
			b[i] = rng.Uniform(-1, 1)
			in += b[i] * b[i]
		}
		fdct8x8(&b)
		var out float64
		for _, v := range b {
			out += v * v
		}
		return math.Abs(in-out) < 1e-9*(1+in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZigzagCoversAllOnce(t *testing.T) {
	seen := map[uint8]bool{}
	for _, p := range zigzag {
		if seen[p] {
			t.Fatalf("zigzag repeats %v", p)
		}
		seen[p] = true
	}
	if len(seen) != 64 {
		t.Fatalf("zigzag covers %d cells", len(seen))
	}
	// (0,0), (0,1), (1,0), (2,0), (1,1), (0,2) as row*8+col.
	if want := []uint8{0, 1, 8, 16, 9, 2}; !slices.Equal(zigzag[:6], want) {
		t.Fatalf("zigzag starts %v, want %v", zigzag[:6], want)
	}
}

func TestQuantizeMoreQPFewerBits(t *testing.T) {
	rng := tensor.NewRNG(2)
	var src block
	for i := range src {
		src[i] = rng.Uniform(-100, 100)
	}
	blkLo := src
	blkHi := src
	var lo, hi stepTable
	lo.set(10)
	hi.set(200)
	bitsLo, _ := quantizeBlock(&blkLo, &lo)
	bitsHi, _ := quantizeBlock(&blkHi, &hi)
	if bitsHi >= bitsLo {
		t.Fatalf("qp 200 used %d bits, qp 10 used %d; want fewer at higher qp", bitsHi, bitsLo)
	}
}

func ycbcrRoundTrip(im *vision.Image) *vision.Image {
	p := newPlanes(im.W, im.H)
	toYCbCr(im, &p)
	back := vision.NewImage(im.W, im.H)
	fromYCbCr(&p, back)
	return back
}

func TestYCbCrRoundTripApprox(t *testing.T) {
	// Smooth, spatially-correlated color content (the realistic case
	// for 4:2:0 subsampling): a two-tone gradient.
	im := vision.NewImage(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			im.Set(x, y, float32(x)/16, 0.5, float32(y)/16)
		}
	}
	back := ycbcrRoundTrip(im)
	if p := vision.PSNR(im, back); p < 25 {
		t.Fatalf("YCbCr round-trip PSNR %v too low", p)
	}
}

func TestYCbCrGrayExact(t *testing.T) {
	im := vision.NewImage(8, 8)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	back := ycbcrRoundTrip(im)
	if p := vision.PSNR(im, back); p < 45 {
		t.Fatalf("gray round-trip PSNR %v", p)
	}
}

func staticFrames(n, w, h int, seed int64) []*vision.Image {
	bg := vision.Background(w, h, nil, seed)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.005}
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = scene.Render(nil, 1, tensor.NewRNG(seed+int64(i)))
	}
	return frames
}

func TestPFramesCheaperThanIFrames(t *testing.T) {
	frames := staticFrames(10, 64, 48, 4)
	enc := NewEncoder(Config{Width: 64, Height: 48, FPS: 15, InitialQP: 40})
	first := enc.Encode(frames[0])
	if !first.Keyframe {
		t.Fatal("first frame must be a keyframe")
	}
	var pBits int64
	for _, f := range frames[1:] {
		out := enc.Encode(f)
		if out.Keyframe {
			t.Fatal("unexpected keyframe inside GOP")
		}
		pBits += out.Bits
	}
	avgP := pBits / int64(len(frames)-1)
	if avgP*3 > first.Bits {
		t.Fatalf("static-scene P-frames too expensive: I=%d, avg P=%d", first.Bits, avgP)
	}
}

func TestHigherQPLowerQuality(t *testing.T) {
	frames := staticFrames(1, 64, 48, 5)
	lo := NewEncoder(Config{Width: 64, Height: 48, InitialQP: 5}).Encode(frames[0])
	hi := NewEncoder(Config{Width: 64, Height: 48, InitialQP: 200}).Encode(frames[0])
	pLo := vision.PSNR(frames[0], lo.Recon)
	pHi := vision.PSNR(frames[0], hi.Recon)
	if pLo <= pHi {
		t.Fatalf("PSNR lo-qp %v <= hi-qp %v", pLo, pHi)
	}
	if lo.Bits <= hi.Bits {
		t.Fatalf("bits lo-qp %d <= hi-qp %d", lo.Bits, hi.Bits)
	}
}

func TestRateControlApproachesTarget(t *testing.T) {
	// Encode real moving content at a target bitrate and verify the
	// realized rate is within a factor of two after convergence.
	d := dataset.Generate(dataset.Jackson(96, 120, 6))
	target := 60_000.0 // bits/s at working scale
	enc := NewEncoder(Config{Width: d.Cfg.Width, Height: d.Cfg.Height, FPS: 15, TargetBitrate: target, GOP: 60})
	var bits int64
	n := 120
	for i := 0; i < n; i++ {
		bits += enc.Encode(d.Frame(i)).Bits
	}
	rate := float64(bits) / float64(n) * 15
	if rate > target*2 || rate < target/3 {
		t.Fatalf("realized bitrate %v vs target %v", rate, target)
	}
}

func TestLowBitrateDestroysSmallDetails(t *testing.T) {
	// The paper's core accuracy argument: heavy compression destroys
	// small objects. Render a frame with a small pedestrian and check
	// that reconstruction error around the object is much larger at
	// low bitrate than at high bitrate.
	bg := vision.Background(96, 54, nil, 7)
	scene := &vision.Scene{Background: bg}
	obj := &vision.Object{Kind: vision.PedestrianRed, X: 40, Y: 35, W: 4, H: 9,
		Body: [3]float32{0.2, 0.5, 0.7}, Accent: [3]float32{0.95, 0.1, 0.1}}
	frame := scene.Render([]vision.Object{*obj}, 1, tensor.NewRNG(8))

	errAround := func(recon *vision.Image) float64 {
		var s float64
		n := 0
		for y := 33; y < 46; y++ {
			for x := 38; x < 46; x++ {
				r0, g0, b0 := frame.At(x, y)
				r1, g1, b1 := recon.At(x, y)
				s += float64((r0-r1)*(r0-r1) + (g0-g1)*(g0-g1) + (b0-b1)*(b0-b1))
				n++
			}
		}
		return s / float64(n)
	}
	hiQ := NewEncoder(Config{Width: 96, Height: 54, InitialQP: 4}).Encode(frame)
	loQ := NewEncoder(Config{Width: 96, Height: 54, InitialQP: 250}).Encode(frame)
	if errAround(loQ.Recon) < 4*errAround(hiQ.Recon) {
		t.Fatalf("low bitrate did not destroy detail: hi %v lo %v", errAround(hiQ.Recon), errAround(loQ.Recon))
	}
}

func TestEncodeSegment(t *testing.T) {
	frames := staticFrames(5, 32, 32, 9)
	bits, recons := EncodeSegment(Config{Width: 32, Height: 32, InitialQP: 30}, frames)
	if len(recons) != 5 || bits <= 0 {
		t.Fatalf("segment bits=%d recons=%d", bits, len(recons))
	}
	for _, r := range recons {
		if r.W != 32 || r.H != 32 {
			t.Fatal("recon dims wrong")
		}
	}
}

func TestEncoderStatsAndReset(t *testing.T) {
	frames := staticFrames(4, 32, 32, 10)
	enc := NewEncoder(Config{Width: 32, Height: 32, FPS: 15, InitialQP: 30})
	for _, f := range frames {
		enc.Encode(f)
	}
	if enc.frames != 4 || enc.TotalBits() <= 0 {
		t.Fatal("encoder stats wrong")
	}
	if enc.AverageBitrate() <= 0 {
		t.Fatal("average bitrate wrong")
	}
	enc.Reset()
	out := enc.Encode(frames[0])
	if !out.Keyframe {
		t.Fatal("frame after Reset must be a keyframe")
	}
	if out := enc.Encode(frames[1]); out.Keyframe {
		t.Fatal("second frame after Reset must predict from the first")
	}
	// Reset starts a new GOP, not a new lifetime: the three totals
	// keep describing the same six frames.
	if got := enc.frames; got != 6 {
		t.Fatalf("frames = %d after 4 frames, a Reset and 2 more; want 6", got)
	}
	if got, want := enc.AverageBitrate(), float64(enc.TotalBits())/6*15; got != want {
		t.Fatalf("AverageBitrate() = %v, want TotalBits/frames*FPS = %v", got, want)
	}
}

func TestOddDimensionsHandled(t *testing.T) {
	// 45x27 is neither a block multiple nor even; the codec must not
	// panic and must reconstruct with the right dims.
	im := vision.NewImage(45, 27)
	rng := tensor.NewRNG(11)
	for i := range im.Pix {
		im.Pix[i] = rng.Float32()
	}
	out := NewEncoder(Config{Width: 45, Height: 27, InitialQP: 20}).Encode(im)
	if out.Recon.W != 45 || out.Recon.H != 27 {
		t.Fatalf("recon dims %dx%d", out.Recon.W, out.Recon.H)
	}
}
