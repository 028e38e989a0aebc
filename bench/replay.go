package main

import (
	"fmt"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// deployment builds one fresh microclassifier and names its threshold;
// the replay needs its own instances because an MC carries streaming
// state.
type deployment func() (*filter.MC, float32, error)

// replayResult is the layer-by-layer account of a frame range.
type replayResult struct {
	// pipeline is the wall time core.EdgeNode.ProcessFrame took for
	// the frames; replayed is the sum of the self times of the same
	// frames' layer calls made one by one from the harness.
	pipeline, replayed time.Duration
}

// unattributed is the share of ProcessFrame's wall time that the
// layer-by-layer replay does not account for (negative when the replay
// was the slower of the two).
func (r *replayResult) unattributed() float64 {
	if r.pipeline <= 0 {
		return 0
	}
	return float64(r.pipeline-r.replayed) / float64(r.pipeline)
}

// replayFrames answers "where did these frames' time go" from outside
// the program: it runs each frame through a fresh
// core.EdgeNode.ProcessFrame, timing the call, and then performs the
// same work as separate exported calls — ToTensorInto, the archive encoder,
// Store.Append, Extractor.ExtractMulti, each MC.Push, Smoother.Push,
// and codec.EncodeSegment for the very segments the node uploaded —
// each under its own span. archiveDir is empty when the node keeps no
// on-disk archive. ship, when set, carries each upload on to a
// controller and returns once it is acked; that leg lies outside
// ProcessFrame (the fleet agent does it), so it gets its span but stays
// out of the sum.
func replayFrames(cfg core.Config, deploys []deployment, frames []*vision.Image, archiveDir string, ship func(core.Upload) error, tr *tracer) (*replayResult, error) {
	res := &replayResult{}

	// The pipeline itself.
	node, err := core.NewEdgeNode(cfg)
	if err != nil {
		return nil, err
	}
	cfg = node.Config()
	var nodeStore *archive.Store
	if archiveDir != "" {
		if nodeStore, err = archive.Open(archive.Config{Dir: archiveDir + "/pipeline", Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS}); err != nil {
			return nil, err
		}
		defer nodeStore.Close()
		if err := node.AttachArchive(nodeStore); err != nil {
			return nil, err
		}
	}
	for _, dep := range deploys {
		mc, th, err := dep()
		if err != nil {
			return nil, err
		}
		if err := node.Deploy(mc, th); err != nil {
			return nil, err
		}
	}
	// The same work, one exported call at a time.
	type replayMC struct {
		mc       *filter.MC
		th       float32
		smoother *event.Smoother
	}
	var mcs []replayMC
	var stages []string
	seen := map[string]bool{}
	for _, dep := range deploys {
		mc, th, err := dep()
		if err != nil {
			return nil, err
		}
		mc.Reset()
		mcs = append(mcs, replayMC{mc, th, event.NewSmoother(cfg.SmoothN, cfg.SmoothK)})
		if !seen[mc.Stage()] {
			seen[mc.Stage()] = true
			stages = append(stages, mc.Stage())
		}
	}
	ext := cfg.Base.NewExtractor()
	xbuf := tensor.New(1, cfg.FrameHeight, cfg.FrameWidth, 3)
	var archEnc *codec.Encoder
	var store *archive.Store
	if cfg.ArchiveToDisk {
		archEnc = codec.NewEncoder(codec.Config{Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS, TargetBitrate: cfg.ArchiveBitrate})
	}
	if archiveDir != "" {
		if store, err = archive.Open(archive.Config{Dir: archiveDir + "/replay", Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS}); err != nil {
			return nil, err
		}
		defer store.Close()
	}
	segCfg := codec.Config{Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS, TargetBitrate: cfg.UploadBitrate}

	step := func(name string, parent int, id int64, f func()) {
		h := tr.begin(name, parent, id, 1)
		t0 := time.Now()
		f()
		d := time.Since(t0)
		tr.end(h)
		res.replayed += d
	}
	for i, img := range frames {
		// The pipeline and the replay take turns frame by frame, so a
		// slow moment on the box weighs on both alike.
		id := int64(i)
		h := tr.begin("core.EdgeNode.ProcessFrame", -1, id, 0)
		t0 := time.Now()
		uploads, err := node.ProcessFrame(img)
		res.pipeline += time.Since(t0)
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("replay: pipeline frame %d: %w", i, err)
		}

		root := tr.begin("replay.frame", -1, id, 1)
		var bits int64
		if archEnc != nil {
			step("codec.Encoder.Encode", root, id, func() { bits = archEnc.Encode(img).Bits })
		}
		var x *tensor.Tensor
		step("vision.Image.ToTensorInto", root, id, func() { x = img.ToTensorInto(xbuf) })
		if store != nil {
			var aerr error
			step("archive.Store.Append", root, id, func() { _, aerr = store.Append(img, bits) })
			if aerr != nil {
				return nil, aerr
			}
		}
		var maps map[string]*tensor.Tensor
		var xerr error
		step("mobilenet.Extractor.ExtractMulti", root, id, func() { maps, xerr = ext.ExtractMulti(x, stages) })
		if xerr != nil {
			return nil, xerr
		}
		for _, m := range mcs {
			var cls []filter.Classification
			step("filter.MC.Push", root, id, func() { cls = m.mc.Push(maps[m.mc.Stage()]) })
			for _, c := range cls {
				step("event.Smoother.Push", root, id, func() { m.smoother.Push(c.Prob >= m.th) })
			}
		}
		for _, up := range uploads {
			if up.End <= up.Start {
				continue
			}
			step("codec.EncodeSegment", root, id, func() { codec.EncodeSegment(segCfg, frames[up.Start:up.End]) })
		}
		tr.end(root)
		if ship != nil {
			for _, up := range uploads {
				h := tr.begin("transport.WriteRecord→fleet.UploadAck", -1, id, 1)
				err := ship(up)
				tr.end(h)
				if err != nil {
					return nil, fmt.Errorf("replay: ship upload: %w", err)
				}
			}
		}
	}
	return res, nil
}
