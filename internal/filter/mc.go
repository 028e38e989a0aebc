package filter

import (
	"fmt"
	"math"
	"time"

	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// Classification is one per-frame classifier output.
type Classification struct {
	// Frame is the stream index the probability applies to.
	Frame int
	// Prob is the probability that the frame is relevant.
	Prob float32
}

// MC is a deployed microclassifier: a lightweight binary classifier
// over base-DNN feature maps (§3.2–3.3). Construct with NewMC, train
// its Net with internal/train, then stream feature maps through Push.
type MC struct {
	spec    Spec
	frameW  int
	frameH  int
	fmShape []int       // [1,h,w,c] of the tapped stage (uncropped)
	cropFM  vision.Rect // crop in feature-map coordinates

	net    *nn.Network
	reduce *nn.Conv2D // windowed only: shared 1×1 reduction
	head   []nn.Layer // windowed only: layers after windowReduce

	// Optional per-channel input normalization (see SetNormalization).
	normMean, normInvStd []float32

	// Streaming state (windowed): buffered reduced maps.
	buf      []*tensor.Tensor
	bufStart int
	pushed   int
	decided  int

	// Inference programs, which Push and Prob run (compiled lazily on
	// first use; they repack weights the optimizer Touched, so training
	// the net and streaming interleave safely).
	// prog covers the whole net for the plain architectures and the
	// post-concat head for the windowed one; reduceProg is the
	// windowed per-frame 1×1 reduction.
	prog       *nn.Program
	ws         *nn.Workspace
	reduceProg *nn.Program
	reduceWs   *nn.Workspace
	cropBuf    *tensor.Tensor   // arena for cropMap on the streaming path
	frameBuf   *tensor.Tensor   // arena for one frame of a Prob window
	winBuf     *tensor.Tensor   // arena for the window concat
	winParts   []*tensor.Tensor // reused concat argument slice
	ringFree   []*tensor.Tensor // recycled reduced-map buffers
	clsBuf     []Classification // reused Push/Flush result slice

	// Observability (see Instrument / InstrumentScores). The hot path
	// reads these directly; all writes happen at deploy time.
	obsTrace  *obs.Tracer
	obsHist   *obs.Histogram
	obsStream uint32
	obsOffset int // MC-local frame 0 in stream coordinates
	obsSketch *obs.ScoreSketch
	obsAgg    *obs.ScoreSketch
	obsThresh float64
}

// NewMC constructs a microclassifier for the given spec against a base
// DNN and working frame size. The MC's network input is the (cropped)
// feature map of spec.Stage; for the windowed architecture it is the
// depthwise concatenation of Window cropped maps.
func NewMC(spec Spec, base *mobilenet.Model, frameW, frameH int) (*MC, error) {
	if err := spec.fillDefaults(); err != nil {
		return nil, err
	}
	fmShape, err := base.OutShapeAt(spec.Stage, []int{1, frameH, frameW, 3})
	if err != nil {
		return nil, fmt.Errorf("filter: %s: %w", spec.Name, err)
	}
	m := &MC{spec: spec, frameW: frameW, frameH: frameH, fmShape: fmShape}
	m.cropFM = vision.Rect{X0: 0, Y0: 0, X1: fmShape[2], Y1: fmShape[1]}
	if spec.Crop != nil {
		m.cropFM = spec.Crop.Scale(frameW, frameH, fmShape[2], fmShape[1])
	}
	if err := m.build(); err != nil {
		return nil, err
	}
	return m, nil
}

// build assembles the Figure 2 network for the spec.
func (m *MC) build() error {
	rng := tensor.NewRNG(m.spec.Seed)
	h := m.cropFM.Y1 - m.cropFM.Y0
	w := m.cropFM.X1 - m.cropFM.X0
	c := m.fmShape[3]
	name := m.spec.Name
	net := nn.NewNetwork(name)

	switch m.spec.Arch {
	case FullFrameObjectDetector:
		// Fig. 2a: three 1×1 convolutions then max over the grid of
		// logits (≥1 object anywhere fires the frame). The final conv
		// output is used as the logit directly (no ReLU before the
		// max) so the classifier trains with full-range logits.
		net.Add(nn.NewConv2D(name+"/conv1", c, 32, 1, 1, nn.Same, rng)).
			Add(nn.NewReLU(name + "/relu1")).
			Add(nn.NewConv2D(name+"/conv2", 32, 32, 1, 1, nn.Same, rng)).
			Add(nn.NewReLU(name + "/relu2")).
			Add(nn.NewConv2D(name+"/conv3", 32, 1, 1, 1, nn.Same, rng)).
			Add(nn.NewGlobalMax(name + "/max"))

	case LocalizedBinary:
		// Fig. 2b: sepconv(16, s1) → sepconv(32, s2) → FC 200 → FC 1.
		dw1, pw1 := nn.SeparableConv2D(name+"/sep1", c, 16, 3, 1, nn.Same, rng)
		dw2, pw2 := nn.SeparableConv2D(name+"/sep2", 16, 32, 3, 2, nn.Same, rng)
		net.Add(dw1).Add(pw1).Add(nn.NewReLU(name + "/relu1")).
			Add(dw2).Add(pw2).Add(nn.NewReLU(name + "/relu2")).
			Add(nn.NewFlatten(name + "/flatten"))
		flat := net.OutShape([]int{1, h, w, c})[1]
		net.Add(nn.NewDense(name+"/fc1", flat, m.spec.Hidden, rng)).
			Add(nn.NewReLU6(name + "/relu6")).
			Add(nn.NewDense(name+"/fc2", m.spec.Hidden, 1, rng))

	case WindowedLocalizedBinary:
		// Fig. 2c: shared per-frame 1×1 conv (32 filters) → concat →
		// conv3×3(32, s1) → conv3×3(32, s2) → FC 200 → FC 1.
		m.reduce = nn.NewConv2D(name+"/reduce", c, 32, 1, 1, nn.Same, rng)
		net.Add(newWindowReduce(name+"/window", m.reduce, m.spec.Window, c)).
			Add(nn.NewConv2D(name+"/conv1", 32*m.spec.Window, 32, 3, 1, nn.Same, rng)).
			Add(nn.NewReLU(name + "/relu1")).
			Add(nn.NewConv2D(name+"/conv2", 32, 32, 3, 2, nn.Same, rng)).
			Add(nn.NewReLU(name + "/relu2")).
			Add(nn.NewFlatten(name + "/flatten"))
		flat := net.OutShape([]int{1, h, w, c * m.spec.Window})[1]
		net.Add(nn.NewDense(name+"/fc1", flat, m.spec.Hidden, rng)).
			Add(nn.NewReLU(name + "/relu3")).
			Add(nn.NewDense(name+"/fc2", m.spec.Hidden, 1, rng))
		m.head = net.Layers()[1:]

	case PoolingClassifier:
		// Wang et al. 2018-style baseline: pooled activations into a
		// linear classifier.
		net.Add(nn.NewGlobalAvgPool(name + "/pool")).
			Add(nn.NewDense(name+"/fc", c, 1, rng))

	default:
		return fmt.Errorf("filter: unknown architecture %v", m.spec.Arch)
	}
	m.net = net
	return nil
}

// Spec returns the MC's specification (with defaults filled).
func (m *MC) Spec() Spec { return m.spec }

// Net returns the trainable network. Its input is inputShape().
func (m *MC) Net() *nn.Network { return m.net }

// Stage returns the base-DNN stage this MC taps.
func (m *MC) Stage() string { return m.spec.Stage }

// FeatureMapShape returns the uncropped stage activation shape.
func (m *MC) FeatureMapShape() []int { return append([]int(nil), m.fmShape...) }

// inputShape returns the network input shape (cropped; concatenated
// across the window for the windowed architecture).
func (m *MC) inputShape() []int {
	h := m.cropFM.Y1 - m.cropFM.Y0
	w := m.cropFM.X1 - m.cropFM.X0
	c := m.fmShape[3]
	if m.spec.Arch == WindowedLocalizedBinary {
		c *= m.spec.Window
	}
	return []int{1, h, w, c}
}

// SetNormalization installs per-channel input standardization:
// every cropped feature map is mapped to (x-mean)/std channel-wise
// before classification. The paper's base DNN is an ImageNet-trained
// network with batch normalization, so its activations arrive
// well-conditioned; this reproduction's base DNN is deterministic
// random projections, and standardizing against training-set
// statistics restores the conditioning the MC optimizer expects.
// mean and std must have one entry per feature-map channel.
func (m *MC) SetNormalization(mean, std []float32) error {
	c := m.fmShape[3]
	if len(mean) != c || len(std) != c {
		return fmt.Errorf("filter: normalization needs %d channels, got %d/%d", c, len(mean), len(std))
	}
	m.normMean = append([]float32(nil), mean...)
	m.normInvStd = make([]float32, c)
	for i, s := range std {
		if s < 1e-6 {
			s = 1e-6
		}
		m.normInvStd[i] = 1 / s
	}
	return nil
}

// ChannelStats computes per-channel mean and standard deviation over a
// set of rank-4 NHWC feature maps — the statistics SetNormalization
// consumes, estimated on the training day.
func ChannelStats(fms []*tensor.Tensor) (mean, std []float32) {
	if len(fms) == 0 {
		return nil, nil
	}
	c := fms[0].Shape[3]
	sum := make([]float64, c)
	sum2 := make([]float64, c)
	var count float64
	for _, fm := range fms {
		for px := fm.Data; len(px) >= c; px = px[c:] {
			for ci, v := range px[:c] {
				sum[ci] += float64(v)
				sum2[ci] += float64(v) * float64(v)
			}
		}
		count += float64(fm.Len() / c)
	}
	mean = make([]float32, c)
	std = make([]float32, c)
	for i := 0; i < c; i++ {
		mu := sum[i] / count
		variance := sum2[i]/count - mu*mu
		if variance < 0 {
			variance = 0
		}
		mean[i] = float32(mu)
		std[i] = float32(math.Sqrt(variance))
	}
	return mean, std
}

// ensureFastPath lazily compiles the MC's frozen inference programs
// and workspace arenas. Programs never serve stale weights, so training
// the MC's net after compilation stays coherent. Compilation cannot fail
// for the fixed Figure 2 architectures; a failure is a programming
// error in build() and panics.
func (m *MC) ensureFastPath() {
	if m.prog != nil {
		return
	}
	h := m.cropFM.Y1 - m.cropFM.Y0
	w := m.cropFM.X1 - m.cropFM.X0
	c := m.fmShape[3]
	var err error
	if m.spec.Arch == WindowedLocalizedBinary {
		m.reduceProg, err = nn.CompileLayers(m.spec.Name+"/reduce-frozen",
			[]nn.Layer{m.reduce}, []int{1, h, w, c})
		if err == nil {
			m.reduceWs = m.reduceProg.NewWorkspace()
			m.prog, err = nn.CompileLayers(m.spec.Name+"/head-frozen",
				m.head, []int{1, h, w, m.reduce.Filters * m.spec.Window})
		}
	} else {
		m.prog, err = nn.Compile(m.net, m.inputShape())
	}
	if err != nil {
		panic(fmt.Sprintf("filter: %s: compile fast path: %v", m.spec.Name, err))
	}
	m.ws = m.prog.NewWorkspace()
}

// streamInput applies the MC's crop and normalization into the
// streaming arena (no allocation after warm-up). The returned tensor
// is reused on the next call.
func (m *MC) streamInput(fm *tensor.Tensor) *tensor.Tensor {
	full := m.cropFM.X0 == 0 && m.cropFM.Y0 == 0 && m.cropFM.X1 == fm.Shape[2] && m.cropFM.Y1 == fm.Shape[1]
	if full && m.normMean == nil {
		return fm
	}
	if m.cropBuf == nil {
		m.cropBuf = tensor.New(1, m.cropFM.Y1-m.cropFM.Y0, m.cropFM.X1-m.cropFM.X0, m.fmShape[3])
	}
	if full {
		copy(m.cropBuf.Data, fm.Data)
	} else {
		fm.CropHWInto(m.cropBuf, m.cropFM.Y0, m.cropFM.Y1, m.cropFM.X0, m.cropFM.X1)
	}
	if m.normMean != nil {
		normalize(m.cropBuf.Data, m.normMean, m.normInvStd)
	}
	return m.cropBuf
}

// normalize applies a per-channel input normalization to NHWC data in
// place, one pixel (one run of channels) at a time: the one loop of
// both classifier families, for training samples and inference alike.
func normalize(data, mean, invStd []float32) {
	invStd = invStd[:len(mean)]
	for c := len(mean); len(data) >= c; data = data[c:] {
		for ci, v := range data[:c] {
			data[ci] = (v - mean[ci]) * invStd[ci]
		}
	}
}

// cropMap applies the MC's crop and input normalization to a raw
// stage feature map.
func (m *MC) cropMap(fm *tensor.Tensor) *tensor.Tensor {
	out := fm
	if !(m.cropFM.X0 == 0 && m.cropFM.Y0 == 0 && m.cropFM.X1 == fm.Shape[2] && m.cropFM.Y1 == fm.Shape[1]) {
		out = fm.CropHW(m.cropFM.Y0, m.cropFM.Y1, m.cropFM.X0, m.cropFM.X1)
	}
	if m.normMean != nil {
		if out == fm {
			out = fm.Clone()
		}
		normalize(out.Data, m.normMean, m.normInvStd)
	}
	return out
}

// BuildInput assembles the network input for the frame at index center
// from a sequence of raw (uncropped) stage feature maps. For plain
// architectures this is the cropped map of the frame itself; for the
// windowed architecture it is the concatenation of the cropped maps
// over the window, clamped at sequence edges. Used to build training
// samples.
func (m *MC) BuildInput(fms []*tensor.Tensor, center int) *tensor.Tensor {
	if m.spec.Arch != WindowedLocalizedBinary {
		return m.cropMap(fms[center])
	}
	half := m.spec.Window / 2
	parts := make([]*tensor.Tensor, 0, m.spec.Window)
	for off := -half; off <= half; off++ {
		i := center + off
		if i < 0 {
			i = 0
		}
		if i >= len(fms) {
			i = len(fms) - 1
		}
		parts = append(parts, m.cropMap(fms[i]))
	}
	return tensor.ConcatChannels(parts...)
}

// Prob classifies a prepared input (see BuildInput) on the compiled
// programs Push runs and returns the sigmoid probability. For the
// windowed architecture it reduces each frame of the window in turn and
// runs the head on the concatenation: Push's work without the
// buffering. Like Push, it is not safe for concurrent use.
func (m *MC) Prob(x *tensor.Tensor) float32 {
	m.ensureFastPath()
	if m.spec.Arch != WindowedLocalizedBinary {
		return sigmoid(m.prog.Run(m.ws, x).Data[0])
	}
	c, win := m.fmShape[3], m.spec.Window
	if m.frameBuf == nil {
		m.frameBuf = tensor.New(x.Shape[0], x.Shape[1], x.Shape[2], c)
	}
	m.winParts = m.winParts[:0]
	for f := 0; f < win; f++ {
		for px, dst := 0, m.frameBuf.Data; len(dst) >= c; px, dst = px+1, dst[c:] {
			copy(dst[:c], x.Data[(px*win+f)*c:])
		}
		reduced := m.reduceProg.Run(m.reduceWs, m.frameBuf)
		buf := m.ringGet(reduced.Shape)
		copy(buf.Data, reduced.Data)
		m.winParts = append(m.winParts, buf)
	}
	p := m.runHead()
	m.ringFree = append(m.ringFree, m.winParts...)
	return p
}

// runHead concatenates the reduced maps in winParts and runs the
// windowed head program on them.
func (m *MC) runHead() float32 {
	if m.winBuf == nil {
		p0 := m.winParts[0]
		m.winBuf = tensor.New(1, p0.Shape[1], p0.Shape[2], p0.Shape[3]*m.spec.Window)
	}
	tensor.ConcatChannelsInto(m.winBuf, m.winParts...)
	return sigmoid(m.prog.Run(m.ws, m.winBuf).Data[0])
}

// Push streams the next frame's raw stage feature map through the MC
// and returns any classifications that became final. Plain
// architectures classify immediately; the windowed architecture lags
// by Window/2 frames, reducing each frame once and buffering the
// result (the paper's buffering optimization — the 1×1 convolutions
// are "only computed once, and their outputs are buffered and reused
// by subsequent windows").
//
// Push runs on the frozen inference fast path and is allocation-free
// in the steady state: the returned slice (and the reduced-map ring it
// draws on) is reused by the next Push/Flush, so callers must consume
// it before pushing the next frame.
func (m *MC) Push(fm *tensor.Tensor) []Classification {
	if m.obsHist == nil && m.obsTrace == nil {
		return m.recordScores(m.push(fm))
	}
	frame := int64(m.obsOffset + m.pushed)
	t0 := time.Now()
	out := m.push(fm)
	d := time.Since(t0)
	if m.obsHist != nil {
		m.obsHist.Observe(d)
	}
	if m.obsTrace != nil {
		m.obsTrace.Record(obs.StageMCPush, m.obsStream, frame, t0, d)
	}
	return m.recordScores(out)
}

// Instrument attaches observability sinks to the MC's streaming path:
// every Push is timed into hist and recorded as a StageMCPush span on
// tr under the interned stream ID. frameOffset maps the MC's local
// frame counter to stream coordinates (an MC deployed mid-stream
// counts from zero). Either sink may be nil; both nil restores the
// uninstrumented path. Call at deploy time, never concurrently with
// Push. Instrumentation keeps Push allocation-free.
func (m *MC) Instrument(tr *obs.Tracer, hist *obs.Histogram, stream uint32, frameOffset int) {
	m.obsTrace = tr
	m.obsHist = hist
	m.obsStream = stream
	m.obsOffset = frameOffset
}

// InstrumentScores attaches semantic observability to the MC's
// streaming path: every classification Push or Flush emits is recorded
// into sketch (the per-MC score distribution that rides heartbeats)
// and agg (a node-level aggregate across MCs, typically
// Observer.Scores), with scores at or above threshold counted as
// passes. Either sketch may be nil; both nil restores the unrecorded
// path. Like Instrument: call at deploy time, never concurrently with
// Push, and recording keeps Push allocation-free.
func (m *MC) InstrumentScores(sketch, agg *obs.ScoreSketch, threshold float64) {
	m.obsSketch = sketch
	m.obsAgg = agg
	m.obsThresh = threshold
}

// recordScores feeds emitted classifications into the attached score
// sketches. Allocation-free; returns cls unchanged.
func (m *MC) recordScores(cls []Classification) []Classification {
	if m.obsSketch == nil && m.obsAgg == nil {
		return cls
	}
	for _, c := range cls {
		p := float64(c.Prob)
		pass := p >= m.obsThresh
		if m.obsSketch != nil {
			m.obsSketch.Observe(p, pass)
		}
		if m.obsAgg != nil {
			m.obsAgg.Observe(p, pass)
		}
	}
	return cls
}

// push is the uninstrumented classification path behind Push.
func (m *MC) push(fm *tensor.Tensor) []Classification {
	m.ensureFastPath()
	if m.spec.Arch != WindowedLocalizedBinary {
		frame := m.pushed
		m.pushed++
		logit := m.prog.Run(m.ws, m.streamInput(fm))
		m.clsBuf = append(m.clsBuf[:0], Classification{Frame: frame, Prob: sigmoid(logit.Data[0])})
		return m.clsBuf
	}
	reduced := m.reduceProg.Run(m.reduceWs, m.streamInput(fm))
	buf := m.ringGet(reduced.Shape)
	copy(buf.Data, reduced.Data)
	m.buf = append(m.buf, buf)
	m.pushed++
	return m.drainWindows(false)
}

// ringGet recycles a reduced-map buffer from the free list, or
// allocates one on the first pass through.
func (m *MC) ringGet(shape []int) *tensor.Tensor {
	if k := len(m.ringFree); k > 0 {
		t := m.ringFree[k-1]
		m.ringFree = m.ringFree[:k-1]
		return t
	}
	return tensor.New(shape...)
}

// Flush emits the pending tail classifications of a windowed MC (whose
// windows are clamped at the stream end) and resets streaming state.
func (m *MC) Flush() []Classification {
	out := m.recordScores(m.drainWindows(true))
	m.Reset()
	return out
}

// Reset clears streaming state, recycling the reduced-map ring.
func (m *MC) Reset() {
	m.ringFree = append(m.ringFree, m.buf...)
	m.buf = m.buf[:0]
	m.bufStart = 0
	m.pushed = 0
	m.decided = 0
}

func (m *MC) drainWindows(flush bool) []Classification {
	if m.spec.Arch != WindowedLocalizedBinary {
		return nil
	}
	half := m.spec.Window / 2
	m.clsBuf = m.clsBuf[:0]
	for m.decided < m.pushed {
		frame := m.decided
		if !flush && frame+half >= m.pushed {
			break
		}
		m.winParts = m.winParts[:0]
		for off := -half; off <= half; off++ {
			i := frame + off
			if i < m.bufStart {
				i = m.bufStart
			}
			if i >= m.pushed {
				i = m.pushed - 1
			}
			m.winParts = append(m.winParts, m.buf[i-m.bufStart])
		}
		m.clsBuf = append(m.clsBuf, Classification{Frame: frame, Prob: m.runHead()})
		m.decided++
		for m.bufStart < m.decided-half {
			m.ringFree = append(m.ringFree, m.buf[0])
			n := copy(m.buf, m.buf[1:])
			m.buf = m.buf[:n]
			m.bufStart++
		}
	}
	return m.clsBuf
}

// MAddsPerFrame returns the MC's marginal multiply-adds per frame.
// With buffered=true the windowed architecture pays its 1×1 reduction
// once per frame plus the head; with buffered=false the reduction is
// charged Window times (the cost the buffering optimization avoids).
func (m *MC) MAddsPerFrame(buffered bool) int64 {
	total := m.net.MAdds(m.inputShape())
	if m.spec.Arch == WindowedLocalizedBinary && buffered {
		h := m.cropFM.Y1 - m.cropFM.Y0
		w := m.cropFM.X1 - m.cropFM.X0
		perFrame := m.reduce.MAdds([]int{1, h, w, m.fmShape[3]})
		total -= int64(m.spec.Window-1) * perFrame
	}
	return total
}

func sigmoid(z float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(z))))
}
