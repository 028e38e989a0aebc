// Package filter implements the paper's classifiers: the three
// microclassifier architectures of Figure 2 (full-frame object
// detector, localized binary classifier, and windowed localized binary
// classifier), feature-map cropping (§3.2), the windowed-MC 1×1-conv
// buffering optimization (§3.3.3), and the NoScope-style pixel-level
// discrete classifiers the evaluation compares against (§4.4–4.5).
package filter

import (
	"fmt"

	"repro/internal/vision"
)

// Arch selects a microclassifier architecture from Figure 2.
type Arch int

const (
	// FullFrameObjectDetector applies a stack of 1×1 convolutions at
	// every feature-map location and takes the max over the grid of
	// logits — a sliding-window detector in feature space (Fig. 2a),
	// suited to pattern-matching queries over the whole wide-angle
	// frame.
	FullFrameObjectDetector Arch = iota
	// LocalizedBinary is a small CNN over a (usually cropped) feature
	// map: two separable convolutions and a fully-connected layer
	// (Fig. 2b), designed to detect prominent objects within a region.
	LocalizedBinary
	// WindowedLocalizedBinary extends LocalizedBinary with temporal
	// context: a per-frame 1×1 convolution whose outputs for a
	// W-frame window are depthwise-concatenated before a small CNN
	// (Fig. 2c). The 1×1 outputs are computed once per frame and
	// buffered (the paper's buffering optimization).
	WindowedLocalizedBinary
	// PoolingClassifier is the drone-offload baseline of Wang et al.
	// 2018 (§5.2.2): a shallow classifier over the globally pooled
	// activations of a fixed late layer. Much cheaper but lower
	// capacity than the paper's MCs; included as an extension
	// baseline.
	PoolingClassifier
)

// String implements fmt.Stringer.
func (a Arch) String() string {
	switch a {
	case FullFrameObjectDetector:
		return "full-frame-object-detector"
	case LocalizedBinary:
		return "localized-binary"
	case WindowedLocalizedBinary:
		return "windowed-localized-binary"
	case PoolingClassifier:
		return "pooling-classifier"
	default:
		return fmt.Sprintf("Arch(%d)", int(a))
	}
}

// Spec describes one microclassifier deployment: the architecture, the
// base-DNN stage it taps, and an optional spatial crop. This mirrors
// what the paper's application developer supplies: "the network weights
// and architecture specification along with the name of the base DNN
// layer (and, optionally, a crop thereof) to use as input" (§3.2).
type Spec struct {
	// Name identifies the MC (unique within a deployment).
	Name string
	// Arch selects the Figure 2 architecture.
	Arch Arch
	// Stage is the base-DNN stage to tap, e.g. "conv4_2/sep". The
	// paper's defaults: the full-frame object detector uses the
	// penultimate stage (conv5_6/sep) and the localized variants use a
	// middle stage (conv4_2/sep) — see §3.4.
	Stage string
	// Crop, if non-nil, restricts the MC to a pixel-space region of
	// the frame (Table 3c); it is rescaled to feature-map coordinates.
	// Cropping feature maps rather than pixels is what lets many MCs
	// with different regions share one base-DNN execution.
	Crop *vision.Rect
	// Window is the temporal window W for WindowedLocalizedBinary
	// (default 5, the paper's value). Must be odd.
	Window int
	// Hidden is the fully-connected width (default 200, the paper's
	// value).
	Hidden int
	// Seed drives weight initialization.
	Seed int64
	// Version is the monotonic model version assigned in the
	// datacenter. Zero means the initial (unversioned) training
	// artifact; each re-trained artifact bumps it by one. The version
	// rides Save/LoadMC, the fleet deploy protocol, and heartbeats, so
	// the controller can tell which incarnation of a same-named MC
	// produced a score sketch.
	Version uint64
	// WeightsHash fingerprints the serialized parameters (FNV-1a over
	// the nn.SaveParams stream). Save stamps it; it identifies the
	// exact weights independent of Version, so two artifacts with the
	// same version but different fine-tunes are distinguishable.
	WeightsHash uint64
}

func (s *Spec) fillDefaults() error {
	if s.Name == "" {
		return fmt.Errorf("filter: spec needs a name")
	}
	if s.Stage == "" {
		switch s.Arch {
		case FullFrameObjectDetector:
			s.Stage = "conv5_6/sep"
		case PoolingClassifier:
			s.Stage = "conv6/sep"
		default:
			s.Stage = "conv4_2/sep"
		}
	}
	if s.Window == 0 {
		s.Window = 5
	}
	if s.Arch == WindowedLocalizedBinary && s.Window%2 == 0 {
		return fmt.Errorf("filter: window must be odd, got %d", s.Window)
	}
	if s.Hidden == 0 {
		s.Hidden = 200
	}
	return nil
}

// DefaultStage returns the paper's §3.4 hand-selected stage for an
// architecture.
func DefaultStage(a Arch) string {
	s := Spec{Name: "x", Arch: a}
	_ = s.fillDefaults()
	return s.Stage
}
