package core

import (
	"fmt"
	"time"
)

// MultiStreamNode hosts several camera streams on one edge node — the
// paper's other deployment shape: "an edge node can run many MCs on a
// single camera stream, or fewer MCs on several streams" (§3.2). Each
// stream has its own pipeline state (classifier windows, smoothing,
// events, frame buffer) but every stream shares the single base DNN
// model, so weights are resident once. A Scheduler (NewScheduler)
// drives the streams: frames, live deploys, undeploys and flushes.
type MultiStreamNode struct {
	cfg       Config
	streams   map[string]*EdgeNode
	order     []string
	scheduled bool // a Scheduler exists; it covers only the streams it saw
}

// NewMultiStreamNode constructs an empty node; cfg supplies shared
// defaults (base DNN, bitrates, smoothing) for every stream.
func NewMultiStreamNode(cfg Config) (*MultiStreamNode, error) {
	probe := cfg
	if err := (&probe).fillDefaults(); err != nil {
		return nil, err
	}
	return &MultiStreamNode{cfg: cfg, streams: make(map[string]*EdgeNode)}, nil
}

// AddStream registers a camera stream and returns its pipeline so the
// caller can deploy microclassifiers on it. Frame dimensions may
// differ per stream. Streams are added before the first NewScheduler.
func (m *MultiStreamNode) AddStream(name string, frameW, frameH int) (*EdgeNode, error) {
	if m.scheduled {
		return nil, fmt.Errorf("core: add stream %q after a scheduler started", name)
	}
	if _, dup := m.streams[name]; dup {
		return nil, fmt.Errorf("core: duplicate stream %q", name)
	}
	cfg := m.cfg
	cfg.FrameWidth, cfg.FrameHeight = frameW, frameH
	cfg.StreamLabel = name
	e, err := NewEdgeNode(cfg)
	if err != nil {
		return nil, err
	}
	m.streams[name] = e
	m.order = append(m.order, name)
	return e, nil
}

// Stream returns a registered stream's pipeline, or nil.
func (m *MultiStreamNode) Stream(name string) *EdgeNode { return m.streams[name] }

// streamNames returns the registered stream names in addition order.
func (m *MultiStreamNode) streamNames() []string {
	return append([]string(nil), m.order...)
}

// Stats aggregates counters across streams; per-MC entries are keyed
// "<stream>/<mc>".
func (m *MultiStreamNode) Stats() Stats {
	var total Stats
	total.MCTimeBy = make(map[string]time.Duration)
	for _, name := range m.order {
		s := m.streams[name].Stats()
		total.Frames += s.Frames
		total.DecodeTime += s.DecodeTime
		total.BaseDNNTime += s.BaseDNNTime
		total.MCTime += s.MCTime
		total.EncodeTime += s.EncodeTime
		total.ArchiveTime += s.ArchiveTime
		total.UploadedBits += s.UploadedBits
		total.UploadedFrames += s.UploadedFrames
		total.Uploads += s.Uploads
		total.ArchivedBits += s.ArchivedBits
		total.DemandFetchBits += s.DemandFetchBits
		total.DemandFetches += s.DemandFetches
		if s.MaxUplinkDelay > total.MaxUplinkDelay {
			total.MaxUplinkDelay = s.MaxUplinkDelay
		}
		for k, v := range s.MCTimeBy {
			total.MCTimeBy[name+"/"+k] += v
		}
	}
	return total
}
