package codec

import (
	"fmt"
	"math"

	"repro/internal/vision"
)

// Config parameterizes an encoder instance.
type Config struct {
	// Width, Height are the frame dimensions.
	Width, Height int
	// FPS is the frame rate; together with TargetBitrate it sets the
	// per-frame bit budget.
	FPS int
	// TargetBitrate is the desired output rate in bits per second. The
	// rate controller adapts QP to approach it. Zero disables rate
	// control and uses InitialQP throughout.
	TargetBitrate float64
	// InitialQP seeds the quantization parameter (default 40).
	InitialQP float64
	// GOP is the keyframe interval in frames (default 150, i.e. 10 s
	// at 15 fps).
	GOP int
}

func (c *Config) fillDefaults() {
	if c.InitialQP <= 0 {
		c.InitialQP = 40
	}
	if c.GOP <= 0 {
		c.GOP = 150
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
}

// Frame is the result of encoding one input frame.
type Frame struct {
	// Bits is the coded size of this frame.
	Bits int64
	// Recon is the decoder-side reconstruction (what a datacenter
	// application would actually see): a fresh image the caller owns.
	// EncodeBits leaves it nil.
	Recon *vision.Image
	// Keyframe reports whether the frame was intra-coded.
	Keyframe bool
	// QP is the quantization parameter used.
	QP float64
}

// Encoder compresses a stream of frames. It is stateful: P-frames
// predict from the previous reconstruction, and the rate controller
// carries bit debt across frames.
//
// The encoder owns every plane it works on (an arena sized once for
// the configured dimensions): the source frame in Y'CbCr, the
// reconstruction being written and the previous reconstruction it
// predicts from, the last two swapping roles each frame. An intra
// frame predicts from a constant 128 and reads no plane. None of them
// is ever handed out, so steady-state encoding allocates only what
// Encode returns.
type Encoder struct {
	cfg Config

	qp    float64
	steps stepTable

	src, recon, prev planes

	gopPos    int // frames coded since NewEncoder, Restart or Reset; prev is valid when > 0
	frames    int // frames consumed since NewEncoder or Restart, across Reset
	totalBits int64
}

// NewEncoder constructs an encoder for the given configuration.
func NewEncoder(cfg Config) *Encoder {
	cfg.fillDefaults()
	if cfg.Width <= 0 || cfg.Height <= 0 {
		panic(fmt.Sprintf("codec: bad dims %dx%d", cfg.Width, cfg.Height))
	}
	e := &Encoder{cfg: cfg, qp: cfg.InitialQP}
	for _, p := range []*planes{&e.src, &e.recon, &e.prev} {
		*p = newPlanes(cfg.Width, cfg.Height)
	}
	return e
}

// Encode compresses one frame and returns its coded size and
// reconstruction, a fresh image: EncodeInto a new image.
func (e *Encoder) Encode(im *vision.Image) Frame {
	return e.EncodeInto(im, vision.NewImage(e.cfg.Width, e.cfg.Height))
}

// EncodeInto compresses one frame exactly as Encode does and writes
// the reconstruction into dst, an image of the encoder's dimensions
// that the caller owns (Frame.Recon is dst). Every sample of dst is
// overwritten, so a caller reusing one image per slot codes frame
// after frame without allocating.
func (e *Encoder) EncodeInto(im, dst *vision.Image) Frame {
	if dst.W != e.cfg.Width || dst.H != e.cfg.Height || len(dst.Pix) != dst.W*dst.H*3 {
		panic(fmt.Sprintf("codec: reconstruction %dx%d does not match encoder %dx%d", dst.W, dst.H, e.cfg.Width, e.cfg.Height))
	}
	out := e.EncodeBits(im)
	fromYCbCr(&e.prev, dst)
	out.Recon = dst
	return out
}

// EncodeBits compresses one frame exactly as Encode does, state and
// rate control included, but does not build the RGB reconstruction
// (Frame.Recon is nil). It does not allocate. Callers that only
// account for coded size (the edge node's archive, uploads that do not
// keep reconstructions) use it.
func (e *Encoder) EncodeBits(im *vision.Image) Frame {
	if im.W != e.cfg.Width || im.H != e.cfg.Height {
		panic(fmt.Sprintf("codec: frame %dx%d does not match encoder %dx%d", im.W, im.H, e.cfg.Width, e.cfg.Height))
	}
	intra := e.gopPos%e.cfg.GOP == 0
	toYCbCr(im, &e.src)
	e.steps.set(e.qp)
	bits := int64(64) // frame header
	for i := range e.src {
		var pred *plane
		if !intra {
			pred = &e.prev[i]
		}
		bits += codePlane(&e.src[i], pred, &e.recon[i], &e.steps)
	}
	e.prev, e.recon = e.recon, e.prev
	e.gopPos++
	e.frames++
	e.totalBits += bits
	out := Frame{Bits: bits, Keyframe: intra, QP: e.qp}
	e.qp = nextQP(&e.cfg, e.qp, bits, intra)
	return out
}

// nextQP steers the quantizer toward the per-frame bit budget: the QP
// for the frame after one that took bits at qp. Keyframes are allowed
// several times the budget (they are rare), so they only contribute
// damped feedback.
func nextQP(cfg *Config, qp float64, bits int64, intra bool) float64 {
	if cfg.TargetBitrate <= 0 {
		return qp
	}
	budget := cfg.TargetBitrate / float64(cfg.FPS)
	ratio := float64(bits) / budget
	if intra {
		ratio /= 4 // keyframes may spend ~4x the average
	}
	// Multiplicative-increase proportional controller with damping.
	qp *= math.Pow(ratio, 0.3)
	return min(max(qp, 1), 400)
}

// TotalBits returns the bits spent so far.
func (e *Encoder) TotalBits() int64 { return e.totalBits }

// AverageBitrate returns the realized bits per second so far.
func (e *Encoder) AverageBitrate() float64 {
	if e.frames == 0 {
		return 0
	}
	return float64(e.totalBits) / float64(e.frames) * float64(e.cfg.FPS)
}

// Reset clears temporal state (the next frame becomes a keyframe) but
// keeps the adapted QP and the lifetime totals, modelling the start of
// a new coded segment.
func (e *Encoder) Reset() {
	e.gopPos = 0
}

// Restart returns the encoder to the state NewEncoder(cfg) builds:
// cfg's InitialQP, the next frame a keyframe, and zero totals. Unlike
// Reset it starts a new lifetime, under a new configuration, and it
// keeps the planes when cfg has the encoder's dimensions (one encoder
// can code segment after segment without allocating).
func (e *Encoder) Restart(cfg Config) {
	cfg.fillDefaults()
	if cfg.Width != e.cfg.Width || cfg.Height != e.cfg.Height {
		*e = *NewEncoder(cfg)
		return
	}
	e.cfg, e.qp = cfg, cfg.InitialQP
	e.gopPos, e.frames, e.totalBits = 0, 0, 0
}

// EncodeSegment compresses a sequence of frames as an independent
// segment at the configured target bitrate, returning total bits and
// the reconstructions. This is what FilterForward does with each
// matched event before upload (§3.5).
func EncodeSegment(cfg Config, frames []*vision.Image) (int64, []*vision.Image) {
	enc := NewEncoder(cfg)
	recons := make([]*vision.Image, len(frames))
	for i, f := range frames {
		recons[i] = enc.Encode(f).Recon
	}
	return enc.TotalBits(), recons
}

// SegmentBits is EncodeSegment for callers that do not need the
// reconstructions: the same bits, without building them.
func SegmentBits(cfg Config, frames []*vision.Image) int64 {
	enc := NewEncoder(cfg)
	for _, f := range frames {
		enc.EncodeBits(f)
	}
	return enc.TotalBits()
}
