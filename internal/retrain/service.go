// Package retrain closes FilterForward's training loop in the
// datacenter: when the fleet's drift detector flags a deployed
// microclassifier (the score distribution it emits no longer matches
// the baseline it was trained against), the service demand-fetches the
// relevant archived frames from the edge, labels them with the
// datacenter oracle, fine-tunes the incumbent MC's weights on the new
// distribution, and ships the result back out as a versioned canary
// through the fleet's shadow-evaluation machinery (fleet.StartCanary).
// The paper's division of labor (§3.1) is preserved: edges only ever
// run inference; all training happens here.
package retrain

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"

	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/mobilenet"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Labeler is the datacenter's ground-truth oracle: it labels one
// demand-fetched frame of a stream. In production this is a human or a
// heavyweight reference model over the fetched pixels; benchmarks
// close over the generating dataset's labels.
type Labeler func(stream string, frame int) bool

// Default service parameters.
const (
	// DefaultFetchBitrate re-encodes demand-fetched training frames at
	// 2 Mbps — training wants fidelity, so it sits at the high end of
	// the archive's re-encode range.
	DefaultFetchBitrate = 2e6
	// DefaultHoldoutFrac reserves a fifth of the labeled frames for
	// the post-fit holdout accuracy estimate.
	DefaultHoldoutFrac = 0.2
)

// Config parameterizes the retraining service.
type Config struct {
	// Controller is the fleet control plane (fetch source and rollout
	// target). Required.
	Controller *fleet.Controller
	// Base is the datacenter's copy of the shared base DNN, used to
	// re-extract feature maps from fetched frames. It must match the
	// edges' base model. Required.
	Base *mobilenet.Model
	// FrameWidth and FrameHeight are the stream frame dimensions the
	// MC was built against. Required.
	FrameWidth, FrameHeight int
	// Label is the ground-truth oracle for fetched frames. Required.
	Label Labeler
	// FetchBitrate is the demand-fetch re-encode bitrate in bits/s
	// (default DefaultFetchBitrate).
	FetchBitrate float64
	// Train configures the fine-tune (zero fields take train's
	// defaults; a zero Config still trains one epoch with Adam).
	Train train.Config
	// HoldoutFrac is the labeled-data fraction held out for the
	// post-fit accuracy estimate (default DefaultHoldoutFrac).
	HoldoutFrac float64
	// Log receives per-retrain progress events. Nil discards them.
	Log *slog.Logger
}

// Service fine-tunes drifted microclassifiers from archived edge
// frames and starts canary rollouts for the results.
type Service struct {
	cfg Config
}

// New validates cfg and builds a Service.
func New(cfg Config) (*Service, error) {
	if cfg.Controller == nil {
		return nil, fmt.Errorf("retrain: nil Controller")
	}
	if cfg.Base == nil {
		return nil, fmt.Errorf("retrain: nil Base model")
	}
	if cfg.Label == nil {
		return nil, fmt.Errorf("retrain: nil Labeler")
	}
	if cfg.FrameWidth <= 0 || cfg.FrameHeight <= 0 {
		return nil, fmt.Errorf("retrain: frame dimensions %dx%d", cfg.FrameWidth, cfg.FrameHeight)
	}
	if cfg.FetchBitrate <= 0 {
		cfg.FetchBitrate = DefaultFetchBitrate
	}
	if cfg.HoldoutFrac <= 0 || cfg.HoldoutFrac >= 1 {
		cfg.HoldoutFrac = DefaultHoldoutFrac
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	return &Service{cfg: cfg}, nil
}

// Result summarizes one retraining run.
type Result struct {
	// Node, Stream, and MC identify the retrained deployment.
	Node, Stream, MC string
	// IncumbentVersion and Version are the warm-start artifact's
	// version and the candidate's (incumbent + 1).
	IncumbentVersion, Version uint64
	// Frames is the number of archived frames fetched; FetchedBits the
	// modeled uplink cost of fetching them.
	Frames      int
	FetchedBits int64
	// FitSamples and HoldoutSamples are the labeled split sizes.
	FitSamples, HoldoutSamples int
	// Loss is the fine-tune's final epoch mean loss; HoldoutAccuracy
	// the fraction of held-out frames the candidate classifies
	// correctly at the deployment threshold (1 when no holdout).
	Loss            float64
	HoldoutAccuracy float64
	// Threshold is the decision threshold the candidate ships with
	// (inherited from the incumbent deployment).
	Threshold float32
	// Deferred reports that the canary intent was recorded while the
	// node was offline (fleet.ErrDeferred): reconciliation ships the
	// shadow when the node reconnects.
	Deferred bool
}

// Retrain runs the full loop for one drifted (node, stream, MC): fetch
// archived frames [start, end) from the edge, label them, fine-tune
// the incumbent's weights on the new distribution, bump the version,
// and start a canary rollout of the candidate. The incumbent artifact
// and threshold come from the controller's deployment intent. Returns
// the run summary; the canary verdict arrives later through the
// controller's evaluator (fleet.Controller.CanaryReports).
func (s *Service) Retrain(node, stream, mcName string, start, end int) (Result, error) {
	res := Result{Node: node, Stream: stream, MC: mcName}
	mcBytes, threshold, ok := s.cfg.Controller.IntentDeployment(node, stream, mcName)
	if !ok {
		return res, fmt.Errorf("retrain: no deployment intent for %s/%s/%s", node, stream, mcName)
	}
	res.Threshold = threshold

	// Warm-start from the incumbent: fine-tuning beats from-scratch
	// training here because drift shifts the input distribution without
	// discarding the task.
	mc, err := filter.LoadMC(bytes.NewReader(mcBytes), s.cfg.Base, s.cfg.FrameWidth, s.cfg.FrameHeight)
	if err != nil {
		return res, fmt.Errorf("retrain: load incumbent %s: %w", mcName, err)
	}
	res.IncumbentVersion = mc.Spec().Version
	res.Version = res.IncumbentVersion + 1

	frames, fr, err := s.cfg.Controller.FetchFrames(node, stream, start, end, s.cfg.FetchBitrate)
	if err != nil {
		return res, fmt.Errorf("retrain: fetch %s/%s [%d,%d): %w", node, stream, start, end, err)
	}
	if len(frames) == 0 {
		return res, fmt.Errorf("retrain: fetch %s/%s [%d,%d): no archived frames", node, stream, start, end)
	}
	res.Frames = len(frames)
	res.FetchedBits = fr.Bits

	// Re-extract the MC's stage over the fetched frames with the
	// datacenter's base-DNN copy — the same computation the edge ran,
	// so the fine-tune sees the distribution the deployed MC sees.
	fms := make([]*tensor.Tensor, len(frames))
	for i, frame := range frames {
		fm, err := s.cfg.Base.Extract(frame.ToTensor(), mc.Stage())
		if err != nil {
			return res, fmt.Errorf("retrain: extract frame %d: %w", start+i, err)
		}
		fms[i] = fm
	}
	// Drift means the activation distribution moved; re-standardize the
	// MC input against the new window's statistics.
	mean, std := filter.ChannelStats(fms)
	if err := mc.SetNormalization(mean, std); err != nil {
		return res, fmt.Errorf("retrain: %w", err)
	}

	samples := make([]train.Sample, len(fms))
	for i := range fms {
		var y float32
		if s.cfg.Label(stream, start+i) {
			y = 1
		}
		samples[i] = train.Sample{X: mc.BuildInput(fms, i), Y: y}
	}
	fit, holdout := train.Split(samples, s.cfg.HoldoutFrac, s.cfg.Train.Seed+int64(res.Version))
	res.FitSamples, res.HoldoutSamples = len(fit), len(holdout)

	loss, err := train.Fit(mc.Net(), fit, s.cfg.Train)
	if err != nil {
		return res, fmt.Errorf("retrain: fit %s: %w", mcName, err)
	}
	res.Loss = loss
	res.HoldoutAccuracy = 1
	if len(holdout) > 0 {
		res.HoldoutAccuracy = train.Accuracy(mc.Prob, holdout, threshold)
	}

	mc.SetVersion(res.Version)
	var buf bytes.Buffer
	if err := mc.Save(&buf); err != nil {
		return res, fmt.Errorf("retrain: save candidate %s: %w", mcName, err)
	}

	s.cfg.Log.Info("retrain: candidate trained",
		"node", node, "target", stream+"/"+mcName,
		"version", res.Version, "frames", res.Frames,
		"loss", res.Loss, "holdout_accuracy", res.HoldoutAccuracy)

	err = s.cfg.Controller.StartCanary(node, stream, buf.Bytes(), threshold)
	if errors.Is(err, fleet.ErrDeferred) {
		res.Deferred = true
		err = nil
	}
	return res, err
}

// HandleDrift runs Retrain for a drift report over the given archived
// frame range — the one-call wiring from the detector's output to the
// rollout machinery.
func (s *Service) HandleDrift(r fleet.DriftReport, start, end int) (Result, error) {
	return s.Retrain(r.Node, r.Stream, r.MC, start, end)
}
