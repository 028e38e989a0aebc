package codec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// These tests pin the production codec to the oracle in
// reference_test.go bit for bit.

func toRef(b *block) (r [blockSize][blockSize]float64) {
	for i, v := range b {
		r[i/blockSize][i%blockSize] = v
	}
	return r
}

func sameBlock(t testing.TB, what string, got *block, want *[blockSize][blockSize]float64) {
	t.Helper()
	for i, v := range got {
		if w := want[i/blockSize][i%blockSize]; math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("%s: [%d][%d] = %v (%#x), reference %v (%#x)", what, i/blockSize, i%blockSize,
				v, math.Float64bits(v), w, math.Float64bits(w))
		}
	}
}

// testBlocks covers dense blocks, sparse ones (single coefficients,
// single rows and columns, ±0 mixed in) and extremes.
func testBlocks() []block {
	rng := tensor.NewRNG(21)
	var blocks []block
	for range 40 {
		var b block
		for i := range b {
			b[i] = rng.Uniform(-255, 255)
		}
		blocks = append(blocks, b)
	}
	negZero := math.Copysign(0, -1)
	for density := 1; density <= 16; density++ {
		var b block
		for i := range b {
			switch {
			case rng.Intn(17) < density:
				b[i] = math.Round(rng.Uniform(-40, 40)) * 7.5
			case rng.Intn(2) == 0:
				b[i] = negZero
			}
		}
		blocks = append(blocks, b)
	}
	for i := 0; i < blockSize*blockSize; i += 5 {
		var b block
		b[i] = -96
		blocks = append(blocks, b)
	}
	var zero, allNegZero, row, col, big, tiny block
	for i := range allNegZero {
		allNegZero[i] = negZero
		big[i] = 255
		tiny[i] = rng.Uniform(-1e-300, 1e-300)
	}
	for i := 0; i < blockSize; i++ {
		row[3*blockSize+i] = float64(i) - 3.5
		col[i*blockSize+5] = 3.5 - float64(i)
	}
	return append(blocks, zero, allNegZero, row, col, big, tiny)
}

// nonzeroMap is the map idct8x8 takes: bit k*8+x for nonzero b[k][x].
func nonzeroMap(b *block) (nz uint64) {
	for i, v := range b {
		if v != 0 {
			nz |= 1 << i
		}
	}
	return nz
}

func TestTransformsMatchReference(t *testing.T) {
	for i, b := range testBlocks() {
		f, fr := b, toRef(&b)
		fdct8x8(&f)
		refFdct8x8(&fr)
		sameBlock(t, fmt.Sprintf("fdct8x8 block %d", i), &f, &fr)
		ir := toRef(&b)
		refIdct8x8(&ir)
		// The exact map of nonzero coefficients, and a map that also
		// names zero ones.
		for _, nz := range []uint64{nonzeroMap(&b), math.MaxUint64} {
			inv := b
			idct8x8(&inv, nz)
			sameBlock(t, fmt.Sprintf("idct8x8 block %d map %#x", i, nz), &inv, &ir)
		}
	}
}

func TestZigzagMatchesReference(t *testing.T) {
	for i, pos := range zigzag {
		if want := refZigzag[i][0]*blockSize + refZigzag[i][1]; int(pos) != want {
			t.Fatalf("zigzag[%d] = %d, reference %d", i, pos, want)
		}
	}
}

// checkQuantize requires quantizeBlock to leave the same reconstructed
// residuals and report the same bits as the oracle. For an uncoded
// block codePlane copies the prediction, so the oracle's residuals
// must then be all +0.
func checkQuantize(t testing.TB, b block, qp float64) {
	t.Helper()
	var st stepTable
	st.set(qp)
	got, want := b, toRef(&b)
	bits, coded := quantizeBlock(&got, &st)
	refBits := refQuantizeBlock(&want, qp)
	if bits != refBits {
		t.Fatalf("qp %v: %d bits, reference %d", qp, bits, refBits)
	}
	if !coded {
		got = block{}
	}
	sameBlock(t, fmt.Sprintf("quantizeBlock qp %v (coded %v)", qp, coded), &got, &want)
}

func TestQuantizeBlockMatchesReference(t *testing.T) {
	for _, b := range testBlocks() {
		for _, qp := range []float64{1, 2.5, 7, 40, 50, 133.7, 400} {
			checkQuantize(t, b, qp)
		}
	}
	// Coefficients exactly on a rounding boundary: a flat block of
	// value v has DC 8v and nothing else, and the DC step at qp 50 is
	// 16, so v = 1 sits on level 0.5 and v = 3 on 1.5.
	for _, v := range []float64{1, -1, 3, -3, math.Nextafter(1, 0), math.Nextafter(1, 2)} {
		var b block
		for i := range b {
			b[i] = v
		}
		checkQuantize(t, b, 50)
	}
}

// FuzzQuantizeBlockMatchesReference feeds quantizeBlock what codePlane
// does: residuals of two 8-bit blocks (or of one against 128), at any
// QP the rate controller can reach, on every tier this machine has.
func FuzzQuantizeBlockMatchesReference(f *testing.F) {
	tiers := codecTiers(f)
	f.Add([]byte{}, uint16(40))
	f.Add([]byte{255}, uint16(1))
	f.Add([]byte("a static block with a little sensor noise on top of a flat field"), uint16(400))
	f.Fuzz(func(t *testing.T, raw []byte, q uint16) {
		qp := 1 + float64(q%3991)/10 // 1.0 … 400.0
		var b block
		for i := range b {
			src, pred := 128.0, 128.0
			if i < len(raw) {
				src = float64(raw[i])
			}
			if j := i + len(b); j < len(raw) {
				// Predictions are not integers: spread them over
				// sixteenths.
				pred = float64(raw[j]) + float64(raw[j]%16)/16
			}
			b[i] = src - pred
		}
		for _, tier := range tiers {
			tier.use()
			checkQuantize(t, b, qp)
		}
	})
}

// samePlanes requires got to hold exactly the samples of the three
// reference planes.
func samePlanes(t *testing.T, what string, got *planes, y, cb, cr *plane) {
	t.Helper()
	for i, want := range []*plane{y, cb, cr} {
		g := &got[i]
		if g.w != want.w || g.h != want.h {
			t.Fatalf("%s: plane %d is %dx%d, reference %dx%d", what, i, g.w, g.h, want.w, want.h)
		}
		for j, v := range g.pix {
			if math.Float32bits(v) != math.Float32bits(want.pix[j]) {
				t.Fatalf("%s: plane %d sample (%d,%d) = %v, reference %v", what, i, j%g.w, j/g.w, v, want.pix[j])
			}
		}
	}
}

// movingFrames is a clip with traffic: objects enter, cross and leave,
// over a noisy background with brightness drift.
func movingFrames(n, w, h int, seed int64) []*vision.Image {
	cfg := dataset.Roadway(96, n, seed)
	cfg.Width, cfg.Height = w, h
	cfg.EventsPer1000, cfg.DistractorsPer1000 = 60, 200
	d := dataset.Generate(cfg)
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = d.Frame(i)
	}
	return frames
}

// TestEncoderMatchesReference runs the same stream through the
// production encoder and the oracle and compares, frame by frame, the
// bits, the keyframe decision, the QP trajectory, all three
// reconstructed planes and the RGB reconstruction, with == on bits.
// Every stream crosses a GOP boundary and a Reset, and alternates
// Encode with EncodeBits.
func TestEncoderMatchesReference(t *testing.T) {
	type dims struct{ w, h int }
	sizes := []dims{{96, 39}, {45, 27}, {64, 48}, {17, 16}, {16, 9}, {9, 7}, {2, 2}, {1, 1}}
	type rate struct {
		qp, target float64
	}
	rates := []rate{
		{qp: 1}, {qp: 12}, {qp: 40}, {qp: 400}, // fixed QP: dense blocks … all-zero blocks
		{qp: 40, target: 250_000}, // rate control, generous
		{qp: 40, target: 2_000},   // rate control pinned at the QP ceiling
	}
	const n, gop, resetAt = 11, 4, 6
	for _, sz := range sizes {
		clips := map[string][]*vision.Image{
			"static": staticFrames(n, sz.w, sz.h, 31),
			"moving": movingFrames(n, sz.w, sz.h, 32),
		}
		for scene, frames := range clips {
			for _, r := range rates {
				cfg := Config{Width: sz.w, Height: sz.h, FPS: 15, InitialQP: r.qp, TargetBitrate: r.target, GOP: gop}
				enc, ref := NewEncoder(cfg), newRefEncoder(cfg)
				var total int64
				for i, im := range frames {
					what := fmt.Sprintf("%dx%d %s qp %v target %v frame %d", sz.w, sz.h, scene, r.qp, r.target, i)
					if i == resetAt {
						enc.Reset()
						ref.reset()
					}
					var got Frame
					if i%2 == 0 {
						got = enc.Encode(im)
					} else {
						got = enc.EncodeBits(im)
					}
					want := ref.encode(im)
					total += want.Bits
					if got.Bits != want.Bits || got.Keyframe != want.Keyframe || got.QP != want.QP {
						t.Fatalf("%s: bits %d keyframe %v qp %v, reference %d %v %v", what,
							got.Bits, got.Keyframe, got.QP, want.Bits, want.Keyframe, want.QP)
					}
					if wantKey := i < resetAt && i%gop == 0 || i >= resetAt && (i-resetAt)%gop == 0; got.Keyframe != wantKey {
						t.Fatalf("%s: keyframe %v", what, got.Keyframe)
					}
					sy, scb, scr := refToYCbCr(im)
					samePlanes(t, what+" source", &enc.src, sy, scb, scr)
					samePlanes(t, what+" reconstruction", &enc.prev, ref.prevY, ref.prevCb, ref.prevCr)
					if i%2 != 0 {
						if got.Recon != nil {
							t.Fatalf("%s: EncodeBits built a reconstruction", what)
						}
						continue
					}
					for j, v := range got.Recon.Pix {
						if math.Float32bits(v) != math.Float32bits(want.Recon.Pix[j]) {
							t.Fatalf("%s: RGB value %d = %v, reference %v", what, j, v, want.Recon.Pix[j])
						}
					}
				}
				if enc.TotalBits() != total || enc.frames != n || enc.qp != ref.qp {
					t.Fatalf("%dx%d %s: totals %d bits %d frames qp %v, reference %d %d %v",
						sz.w, sz.h, scene, enc.TotalBits(), enc.frames, enc.qp, total, n, ref.qp)
				}
			}
		}
	}
}

// TestSegmentBitsMatchesEncodeSegment: the bits-only segment entry
// point reports EncodeSegment's bits.
func TestSegmentBitsMatchesEncodeSegment(t *testing.T) {
	frames := movingFrames(20, 45, 27, 33)
	cfg := Config{Width: 45, Height: 27, FPS: 15, TargetBitrate: 40_000}
	want, recons := EncodeSegment(cfg, frames)
	if got := SegmentBits(cfg, frames); got != want || len(recons) != len(frames) {
		t.Fatalf("SegmentBits = %d, EncodeSegment = %d with %d reconstructions", got, want, len(recons))
	}
}

// roadwayClip is a 96×39 Roadway-like clip, the frame size
// edge-event-heavy encodes.
func roadwayClip(n int) []*vision.Image { return movingFrames(n, 96, 39, 34) }

func TestEncodeBitsDoesNotAllocate(t *testing.T) {
	frames := roadwayClip(8)
	enc := NewEncoder(Config{Width: 96, Height: 39, FPS: 15, TargetBitrate: 150_000, GOP: 4})
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		enc.EncodeBits(frames[i%len(frames)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("EncodeBits allocates %v times per frame in the steady state, want 0", allocs)
	}
}

// TestEncodeIntoMatchesEncode: coding a clip into two reused images,
// taken in turn, gives Encode's bits and reconstructions bit for bit,
// and allocates nothing once the images exist.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	frames := roadwayClip(12)
	cfg := Config{Width: 96, Height: 39, FPS: 15, TargetBitrate: 150_000, GOP: 5}
	want, into := NewEncoder(cfg), NewEncoder(cfg)
	dst := []*vision.Image{vision.NewImage(96, 39), vision.NewImage(96, 39)}
	for i, f := range frames {
		w, g := want.Encode(f), into.EncodeInto(f, dst[i%2])
		if g.Recon != dst[i%2] || g.Bits != w.Bits || g.Keyframe != w.Keyframe || g.QP != w.QP {
			t.Fatalf("frame %d: EncodeInto %+v, Encode %+v", i, g, w)
		}
		for j, v := range w.Recon.Pix {
			if math.Float32bits(v) != math.Float32bits(g.Recon.Pix[j]) {
				t.Fatalf("frame %d sample %d: EncodeInto %v, Encode %v", i, j, g.Recon.Pix[j], v)
			}
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		into.EncodeInto(frames[i%len(frames)], dst[i%2])
		i++
	})
	if allocs != 0 {
		t.Fatalf("EncodeInto allocates %v times per frame in the steady state, want 0", allocs)
	}
}

func benchmarkEncode(b *testing.B, encode func(*Encoder, *vision.Image) Frame) {
	frames := roadwayClip(64)
	for _, tier := range codecTiers(b) {
		b.Run(tier.name, func(b *testing.B) {
			tier.use()
			enc := NewEncoder(Config{Width: 96, Height: 39, FPS: 15, TargetBitrate: 150_000})
			b.ReportAllocs()
			b.ResetTimer()
			var bits int64
			for i := 0; i < b.N; i++ {
				bits += encode(enc, frames[i%len(frames)]).Bits
			}
			b.ReportMetric(float64(bits)/float64(b.N), "bits/frame")
		})
	}
}

// BenchmarkEncode and BenchmarkEncodeBits encode a 96×39 Roadway-like
// clip with and without the RGB reconstruction, on every tier this
// machine has (one sub-benchmark per tier, e.g. BenchmarkEncodeBits/avx2).
// One op is one frame: ns/op is ns per frame, allocs/op allocations per
// frame.
func BenchmarkEncode(b *testing.B)     { benchmarkEncode(b, (*Encoder).Encode) }
func BenchmarkEncodeBits(b *testing.B) { benchmarkEncode(b, (*Encoder).EncodeBits) }

// TestRestartMatchesNewEncoder: one encoder restarted for segment after
// segment, at alternating bitrates and with a change of frame size,
// codes each exactly as a fresh encoder does — bits, keyframes, QP
// trajectory and reconstructions — and starts its totals afresh.
func TestRestartMatchesNewEncoder(t *testing.T) {
	clips := map[int][]*vision.Image{96: roadwayClip(24), 45: movingFrames(24, 45, 27, 35)}
	enc := NewEncoder(Config{Width: 96, Height: 39})
	for seg, s := range []struct {
		w, start, end int
		target        float64
	}{{96, 0, 9, 150_000}, {96, 4, 20, 20_000}, {96, 9, 10, 150_000}, {45, 3, 17, 20_000}, {96, 12, 24, 20_000}} {
		frames := clips[s.w][s.start:s.end]
		cfg := Config{Width: frames[0].W, Height: frames[0].H, FPS: 15, TargetBitrate: s.target, GOP: 6}
		enc.Restart(cfg)
		fresh := NewEncoder(cfg)
		for i, im := range frames {
			got, want := enc.Encode(im), fresh.Encode(im)
			if got.Bits != want.Bits || got.Keyframe != want.Keyframe || got.QP != want.QP {
				t.Fatalf("segment %d frame %d: bits %d keyframe %v qp %v, fresh encoder %d %v %v",
					seg, i, got.Bits, got.Keyframe, got.QP, want.Bits, want.Keyframe, want.QP)
			}
			for j, v := range got.Recon.Pix {
				if math.Float32bits(v) != math.Float32bits(want.Recon.Pix[j]) {
					t.Fatalf("segment %d frame %d: RGB value %d = %v, fresh encoder %v", seg, i, j, v, want.Recon.Pix[j])
				}
			}
		}
		if enc.TotalBits() != fresh.TotalBits() || enc.frames != len(frames) {
			t.Fatalf("segment %d: totals %d bits %d frames, fresh encoder %d %d", seg,
				enc.TotalBits(), enc.frames, fresh.TotalBits(), len(frames))
		}
		if want := SegmentBits(cfg, frames); enc.TotalBits() != want {
			t.Fatalf("segment %d: %d bits, SegmentBits %d", seg, enc.TotalBits(), want)
		}
	}
}
