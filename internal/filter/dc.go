package filter

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// DCConfig describes a NoScope-style discrete classifier: a small CNN
// that works directly on raw pixels, paying the full
// pixels-to-decision cost per application (§4.4). The fields span the
// paper's sweep space: 2–4 convolutional layers, 16–64 kernels, stride
// 1–3, 0–2 pooling layers, standard or separable convolutions, kernel
// size fixed at 3.
type DCConfig struct {
	// Name identifies the classifier.
	Name string
	// ConvLayers is the number of convolution layers (2–4).
	ConvLayers int
	// Kernels is the filter count per convolution (16–64).
	Kernels int
	// Stride is the spatial stride of each convolution (1–3).
	Stride int
	// Pools is the number of 2×2 max-pooling layers interleaved after
	// the first convolutions (0–2).
	Pools int
	// Separable selects depthwise-separable convolutions.
	Separable bool
	// Hidden is the classifier-head width (default 32).
	Hidden int
	// Crop optionally restricts the DC to a pixel region. (The paper
	// notes the Roadway DC benefited from the spatial crop; the
	// Jackson DC did not.)
	Crop *vision.Rect
	// Seed drives weight initialization.
	Seed int64
}

func (c *DCConfig) fillDefaults() error {
	if c.Name == "" {
		return fmt.Errorf("filter: DC config needs a name")
	}
	if c.ConvLayers == 0 {
		c.ConvLayers = 3
	}
	if c.ConvLayers < 1 || c.ConvLayers > 8 {
		return fmt.Errorf("filter: DC conv layers %d out of range", c.ConvLayers)
	}
	if c.Kernels == 0 {
		c.Kernels = 32
	}
	if c.Stride == 0 {
		c.Stride = 2
	}
	if c.Stride < 1 || c.Stride > 3 {
		return fmt.Errorf("filter: DC stride %d out of range", c.Stride)
	}
	if c.Pools < 0 || c.Pools > 2 {
		return fmt.Errorf("filter: DC pools %d out of range", c.Pools)
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	return nil
}

// DC is a constructed discrete classifier.
type DC struct {
	cfg       DCConfig
	frameW    int
	frameH    int
	cropPx    vision.Rect
	net       *nn.Network
	inputDims []int

	normMean, normInvStd []float32

	// The inference program Prob runs, compiled on first use, and its
	// arenas.
	prog *nn.Program
	ws   *nn.Workspace
	in   *tensor.Tensor
}

// SetNormalization installs per-channel pixel standardization, the
// counterpart of MC.SetNormalization so both classifier families train
// on comparably conditioned inputs. mean and std must have 3 entries.
func (d *DC) SetNormalization(mean, std []float32) error {
	if len(mean) != 3 || len(std) != 3 {
		return fmt.Errorf("filter: DC normalization needs 3 channels, got %d/%d", len(mean), len(std))
	}
	d.normMean = append([]float32(nil), mean...)
	d.normInvStd = make([]float32, 3)
	for i, s := range std {
		if s < 1e-6 {
			s = 1e-6
		}
		d.normInvStd[i] = 1 / s
	}
	return nil
}

// NewDC builds a discrete classifier for frames of the given size.
func NewDC(cfg DCConfig, frameW, frameH int) (*DC, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	d := &DC{cfg: cfg, frameW: frameW, frameH: frameH}
	d.cropPx = vision.Rect{X0: 0, Y0: 0, X1: frameW, Y1: frameH}
	if cfg.Crop != nil {
		d.cropPx = *cfg.Crop
		if d.cropPx.X1 > frameW || d.cropPx.Y1 > frameH || d.cropPx.X0 < 0 || d.cropPx.Y0 < 0 {
			return nil, fmt.Errorf("filter: DC crop %+v exceeds frame %dx%d", d.cropPx, frameW, frameH)
		}
	}
	h := d.cropPx.Y1 - d.cropPx.Y0
	w := d.cropPx.X1 - d.cropPx.X0
	d.inputDims = []int{1, h, w, 3}

	rng := tensor.NewRNG(cfg.Seed)
	net := nn.NewNetwork(cfg.Name)
	inC := 3
	for i := 0; i < cfg.ConvLayers; i++ {
		layer := fmt.Sprintf("%s/conv%d", cfg.Name, i+1)
		if cfg.Separable && inC > 3 {
			dw, pw := nn.SeparableConv2D(layer, inC, cfg.Kernels, 3, cfg.Stride, nn.Same, rng)
			net.Add(dw).Add(pw)
		} else {
			net.Add(nn.NewConv2D(layer, inC, cfg.Kernels, 3, cfg.Stride, nn.Same, rng))
		}
		net.Add(nn.NewReLU(fmt.Sprintf("%s/relu%d", cfg.Name, i+1)))
		if i < cfg.Pools {
			net.Add(nn.NewMaxPool2D(fmt.Sprintf("%s/pool%d", cfg.Name, i+1), 2, 2, nn.Same))
		}
		inC = cfg.Kernels
	}
	// NoScope-style DCs flatten into a fully-connected head (pooling
	// everything away would dilute small objects). Extra max-pools are
	// inserted until the flattened width is tractable.
	shape := net.OutShape(d.inputDims)
	extra := 0
	for shape[1]*shape[2]*shape[3] > 64*1024 {
		extra++
		net.Add(nn.NewMaxPool2D(fmt.Sprintf("%s/shrink%d", cfg.Name, extra), 2, 2, nn.Same))
		shape = net.OutShape(d.inputDims)
	}
	flat := shape[1] * shape[2] * shape[3]
	net.Add(nn.NewFlatten(cfg.Name + "/flatten")).
		Add(nn.NewDense(cfg.Name+"/fc1", flat, cfg.Hidden, rng)).
		Add(nn.NewReLU(cfg.Name + "/relu-fc")).
		Add(nn.NewDense(cfg.Name+"/fc2", cfg.Hidden, 1, rng))
	d.net = net
	return d, nil
}

// Config returns the configuration with defaults filled.
func (d *DC) Config() DCConfig { return d.cfg }

// Net returns the trainable network (input BuildInput shape).
func (d *DC) Net() *nn.Network { return d.net }

// BuildInput crops a [1,H,W,3] frame tensor to the DC's region and
// applies input normalization when configured, into a fresh tensor.
// Used to build training samples.
func (d *DC) BuildInput(frame *tensor.Tensor) *tensor.Tensor {
	return d.buildInto(tensor.New(d.inputDims...), frame)
}

// buildInto writes frame's crop, normalized when configured, into dst
// (shaped like d.inputDims) and returns dst.
func (d *DC) buildInto(dst, frame *tensor.Tensor) *tensor.Tensor {
	frame.CropHWInto(dst, d.cropPx.Y0, d.cropPx.Y1, d.cropPx.X0, d.cropPx.X1)
	if d.normMean != nil {
		normalize(dst.Data, d.normMean, d.normInvStd)
	}
	return dst
}

// Prob classifies a [1,H,W,3] frame tensor on the DC's compiled
// program, which tracks later training of Net; after the first call it
// allocates nothing. Prob is not safe for concurrent use.
func (d *DC) Prob(frame *tensor.Tensor) float32 {
	if d.prog == nil {
		prog, err := nn.Compile(d.net, d.inputDims)
		if err != nil {
			// NewDC only builds layers a program supports.
			panic(fmt.Sprintf("filter: %s: compile: %v", d.cfg.Name, err))
		}
		d.prog, d.ws, d.in = prog, prog.NewWorkspace(), tensor.New(d.inputDims...)
	}
	return sigmoid(d.prog.Run(d.ws, d.buildInto(d.in, frame)).Data[0])
}

// MAddsPerFrame returns the DC's per-frame multiply-adds. Unlike an
// MC this is the full pixels-to-decision cost — there is no shared
// base DNN to amortize.
func (d *DC) MAddsPerFrame() int64 {
	return d.net.MAdds(d.inputDims)
}

// DCSweep returns a spread of DC configurations across the paper's
// §4.4 sweep space, ordered roughly from cheapest to most expensive.
func DCSweep(seed int64) []DCConfig {
	return []DCConfig{
		{Name: "dc-tiny", ConvLayers: 2, Kernels: 16, Stride: 3, Pools: 0, Separable: true, Seed: seed},
		{Name: "dc-small", ConvLayers: 2, Kernels: 16, Stride: 2, Pools: 1, Separable: true, Seed: seed + 1},
		{Name: "dc-medium", ConvLayers: 3, Kernels: 32, Stride: 2, Pools: 1, Separable: false, Seed: seed + 2},
		{Name: "dc-large", ConvLayers: 4, Kernels: 48, Stride: 2, Pools: 2, Separable: false, Seed: seed + 3},
		{Name: "dc-xlarge", ConvLayers: 4, Kernels: 64, Stride: 1, Pools: 2, Separable: false, Seed: seed + 4},
	}
}
