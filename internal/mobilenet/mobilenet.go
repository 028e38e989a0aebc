// Package mobilenet builds the paper's base DNN: MobileNet v1
// (Howard et al. 2017) with the MobileNet-Caffe layer naming that the
// paper's microclassifiers reference (conv1, conv2_1/dw, conv2_1/sep,
// …, conv5_6/sep, conv6/sep).
//
// The paper uses the 32-bit ImageNet-trained network. ImageNet weights
// are unavailable in this offline reproduction, so the network is
// He-initialized from a fixed seed: a deterministic random-projection
// feature extractor. Microclassifiers are trained on top of whatever
// the base DNN emits, so the system-level properties under study
// (computation sharing, layer-choice granularity trade-offs, marginal
// cost) are preserved.
package mobilenet

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// block describes one depthwise-separable stage of MobileNet v1.
type block struct {
	name    string
	stride  int
	filters int // pointwise output channels at width multiplier 1.0
}

// v1Blocks is the canonical MobileNet v1 body after the initial conv.
var v1Blocks = []block{
	{"conv2_1", 1, 64},
	{"conv2_2", 2, 128},
	{"conv3_1", 1, 128},
	{"conv3_2", 2, 256},
	{"conv4_1", 1, 256},
	{"conv4_2", 2, 512},
	{"conv5_1", 1, 512},
	{"conv5_2", 1, 512},
	{"conv5_3", 1, 512},
	{"conv5_4", 1, 512},
	{"conv5_5", 1, 512},
	{"conv5_6", 2, 1024},
	{"conv6", 1, 1024},
}

// Config parameterizes the base DNN.
type Config struct {
	// WidthMult scales every channel count (the MobileNet "alpha").
	// 1.0 reproduces the paper's network; smaller values give the
	// proportionally cheaper networks used at working scale.
	WidthMult float64
	// InputChannels is the number of image channels (3 for RGB).
	InputChannels int
	// IncludeTop appends the classifier head (global average pool +
	// fully-connected layer), used when running MobileNet as a
	// standalone classifier (the "multiple MobileNets" baseline of
	// §4.4). Feature extraction does not need it.
	IncludeTop bool
	// NumClasses sizes the classifier head (1000 in the paper).
	NumClasses int
	// BatchNorm inserts a BatchNorm after every convolution, matching
	// the published architecture. Defaults to off: with deterministic
	// He-initialized weights the activations are already well-scaled,
	// and inference-mode BatchNorm with fresh statistics is an
	// identity.
	BatchNorm bool
	// Seed drives the deterministic weight initialization.
	Seed int64
}

func (c *Config) fillDefaults() {
	if c.WidthMult <= 0 {
		c.WidthMult = 1.0
	}
	if c.InputChannels <= 0 {
		c.InputChannels = 3
	}
	if c.NumClasses <= 0 {
		c.NumClasses = 1000
	}
}

// Model is a constructed base DNN.
type Model struct {
	// Net is the underlying network. Taps address its ReLU outputs.
	Net *nn.Network
	cfg Config
	// channelsOf records the output channel count of each named
	// convolution stage, e.g. "conv4_2/sep" -> 128 at WidthMult 0.25.
	channelsOf map[string]int
	// tapOf maps a stage name to its tap layer ("<stage>/relu"),
	// precomputed so the extraction hot path never builds strings.
	tapOf map[string]string

	// progMu guards the per-input-shape compiled inference programs.
	// Programs never serve stale weights (nn.Param.Touch), so they are
	// compiled once per shape and shared by every Extractor, packed
	// weights included.
	progMu sync.Mutex
	progs  map[[4]int]*nn.Program

	// extPool recycles Extractors for the goroutine-safe Extract and
	// ExtractMulti entry points.
	extPool sync.Pool
}

// scaleChannels applies the width multiplier with a floor of 4.
func scaleChannels(c int, mult float64) int {
	s := int(math.Round(float64(c) * mult))
	if s < 4 {
		s = 4
	}
	return s
}

// New builds a MobileNet v1 with the given configuration.
func New(cfg Config) *Model {
	cfg.fillDefaults()
	rng := tensor.NewRNG(cfg.Seed)
	net := nn.NewNetwork(fmt.Sprintf("mobilenet-v1-%.2f", cfg.WidthMult))
	channels := make(map[string]int)

	add := func(conv nn.Layer, name string, outC int) {
		net.Add(conv)
		if cfg.BatchNorm {
			net.Add(nn.NewBatchNorm(name+"/bn", outC))
		}
		net.Add(nn.NewReLU(name + "/relu"))
		channels[name] = outC
	}

	c1 := scaleChannels(32, cfg.WidthMult)
	add(nn.NewConv2D("conv1", cfg.InputChannels, c1, 3, 2, nn.Same, rng), "conv1", c1)

	inC := c1
	for _, b := range v1Blocks {
		outC := scaleChannels(b.filters, cfg.WidthMult)
		dw := nn.NewDepthwiseConv2D(b.name+"/dw", inC, 3, b.stride, nn.Same, rng)
		add(dw, b.name+"/dw", inC)
		pw := nn.NewConv2D(b.name+"/sep", inC, outC, 1, 1, nn.Same, rng)
		add(pw, b.name+"/sep", outC)
		inC = outC
	}

	if cfg.IncludeTop {
		net.Add(nn.NewGlobalAvgPool("pool6"))
		net.Add(nn.NewDense("fc7", inC, cfg.NumClasses, rng))
	}
	taps := make(map[string]string, len(channels))
	for stage := range channels {
		taps[stage] = stage + "/relu"
	}
	m := &Model{Net: net, cfg: cfg, channelsOf: channels, tapOf: taps,
		progs: make(map[[4]int]*nn.Program)}
	m.extPool.New = func() any { return m.NewExtractor() }
	return m
}

// Config returns the configuration the model was built with.
func (m *Model) Config() Config { return m.cfg }

// TapFor maps a convolution stage name (e.g. "conv4_2/sep") to the
// network layer whose output is that stage's activation (its ReLU).
// It returns an error for unknown stages.
func (m *Model) TapFor(stage string) (string, error) {
	tap, ok := m.tapOf[stage]
	if !ok {
		return "", fmt.Errorf("mobilenet: no stage %q", stage)
	}
	return tap, nil
}

// Channels returns the output channel count of a stage.
func (m *Model) Channels(stage string) (int, error) {
	c, ok := m.channelsOf[stage]
	if !ok {
		return 0, fmt.Errorf("mobilenet: no stage %q", stage)
	}
	return c, nil
}

// OutShapeAt returns the activation shape of the given stage for an
// input of shape [n,h,w,c].
func (m *Model) OutShapeAt(stage string, in []int) ([]int, error) {
	tap, err := m.TapFor(stage)
	if err != nil {
		return nil, err
	}
	_, shape := m.Net.MAddsTo(tap, in)
	return shape, nil
}

// MAddsTo returns the multiply-adds required to compute activations up
// to and including the given stage.
func (m *Model) MAddsTo(stage string, in []int) (int64, error) {
	tap, err := m.TapFor(stage)
	if err != nil {
		return 0, err
	}
	madds, _ := m.Net.MAddsTo(tap, in)
	return madds, nil
}

// program returns the compiled inference program for an input shape,
// compiling it on first use. Programs repack weights their optimizer
// Touched, so one compilation per shape serves the model's whole
// lifetime — including through pretraining, which mutates the weights
// in place.
func (m *Model) program(shape [4]int) (*nn.Program, error) {
	m.progMu.Lock()
	defer m.progMu.Unlock()
	if p, ok := m.progs[shape]; ok {
		return p, nil
	}
	p, err := nn.Compile(m.Net, shape[:])
	if err != nil {
		return nil, fmt.Errorf("mobilenet: compile %v: %w", shape, err)
	}
	m.progs[shape] = p
	return p, nil
}

// Extractor is a single-owner handle onto the model's frozen inference
// fast path: it binds the compiled program for the input shape it
// sees, owns a workspace arena, and reuses both across frames so
// steady-state extraction performs zero heap allocations.
//
// The returned activations are workspace memory — valid until the
// owner's next Extract/ExtractMulti call. An Extractor must not be
// shared between goroutines; create one per pipeline owner (each
// core.EdgeNode holds its own). The concurrency-safe Model.Extract and
// Model.ExtractMulti wrappers copy their results instead.
type Extractor struct {
	m     *Model
	shape [4]int
	prog  *nn.Program
	ws    *nn.Workspace
	taps  map[string]*tensor.Tensor
	idxs  []int
}

// NewExtractor returns an unbound extractor; it compiles (or reuses)
// the model's program for whatever input shape it first sees.
func (m *Model) NewExtractor() *Extractor {
	return &Extractor{m: m, taps: make(map[string]*tensor.Tensor, 4)}
}

// bind points the extractor at the program for x's shape.
func (e *Extractor) bind(x *tensor.Tensor) error {
	if len(x.Shape) != 4 {
		return fmt.Errorf("mobilenet: extract needs rank-4 NHWC input, got %v", x.Shape)
	}
	var s [4]int
	copy(s[:], x.Shape)
	if e.prog != nil && s == e.shape {
		return nil
	}
	prog, err := e.m.program(s)
	if err != nil {
		return err
	}
	e.prog, e.ws, e.shape = prog, prog.NewWorkspace(), s
	return nil
}

// opFor resolves a stage name to its program op index.
func (e *Extractor) opFor(stage string) (int, error) {
	tap, ok := e.m.tapOf[stage]
	if !ok {
		return 0, fmt.Errorf("mobilenet: no stage %q", stage)
	}
	idx, ok := e.prog.OpIndex(tap)
	if !ok {
		return 0, fmt.Errorf("mobilenet: stage %q has no fused tap %q", stage, tap)
	}
	return idx, nil
}

// Extract runs the fast path up to the given stage and returns its
// activation (workspace memory, valid until the next call on this
// extractor).
func (e *Extractor) Extract(x *tensor.Tensor, stage string) (*tensor.Tensor, error) {
	if err := e.bind(x); err != nil {
		return nil, err
	}
	idx, err := e.opFor(stage)
	if err != nil {
		return nil, err
	}
	return e.prog.RunTo(e.ws, x, idx), nil
}

// ExtractMulti runs the fast path once, stopping at the deepest
// requested stage, and returns every requested stage's activation. The
// returned map and tensors are reused on the next call — consume them
// before pushing the next frame.
func (e *Extractor) ExtractMulti(x *tensor.Tensor, stages []string) (map[string]*tensor.Tensor, error) {
	clear(e.taps)
	if len(stages) == 0 {
		return e.taps, nil
	}
	if err := e.bind(x); err != nil {
		return nil, err
	}
	e.idxs = e.idxs[:0]
	deepest := -1
	for _, st := range stages {
		idx, err := e.opFor(st)
		if err != nil {
			return nil, err
		}
		e.idxs = append(e.idxs, idx)
		if idx > deepest {
			deepest = idx
		}
	}
	e.prog.RunTo(e.ws, x, deepest)
	for i, st := range stages {
		e.taps[st] = e.prog.Output(e.ws, e.idxs[i])
	}
	return e.taps, nil
}

// Extract runs the network up to the given stage and returns its
// activation. This is the feature-extractor fast path: execution stops
// at the deepest tap a deployment needs. Safe for concurrent use (the
// result is a private copy); pipelines that need the zero-allocation
// steady state hold a NewExtractor instead.
func (m *Model) Extract(x *tensor.Tensor, stage string) (*tensor.Tensor, error) {
	e := m.extPool.Get().(*Extractor)
	out, err := e.Extract(x, stage)
	if err != nil {
		m.extPool.Put(e)
		return nil, err
	}
	out = out.Clone()
	m.extPool.Put(e)
	return out, nil
}

// ExtractMulti runs the network once and returns the activations of
// every requested stage, stopping at the deepest one. This is how the
// feature extractor serves many microclassifiers that tap different
// layers while paying for the base DNN only once (§3.1). Safe for
// concurrent use; see Extract.
func (m *Model) ExtractMulti(x *tensor.Tensor, stages []string) (map[string]*tensor.Tensor, error) {
	e := m.extPool.Get().(*Extractor)
	taps, err := e.ExtractMulti(x, stages)
	if err != nil {
		m.extPool.Put(e)
		return nil, err
	}
	out := make(map[string]*tensor.Tensor, len(taps))
	for st, fm := range taps {
		out[st] = fm.Clone()
	}
	m.extPool.Put(e)
	return out, nil
}
