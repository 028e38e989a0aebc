package fleet

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/transport"
	"repro/internal/vision"
)

// withEdge runs f on the stream's pipeline through its scheduler
// queue, serialized with the stream's frames, and returns f's uploads
// prefixed "<stream>/". f runs on a worker, so it must not take a.mu.
func (a *Agent) withEdge(stream string, f func(*core.EdgeNode) ([]core.Upload, error)) ([]core.Upload, error) {
	for {
		s, err := a.pool()
		if err != nil {
			return nil, err
		}
		// A pool StartScheduler retired after the lookup refuses f
		// unrun; f then runs on the replacement.
		if ups, err := s.Do(stream, f); !errors.Is(err, core.ErrSchedulerClosed) {
			return ups, err
		}
	}
}

// handleDeploy installs a shipped microclassifier on the target
// stream after the stream's in-flight frames.
func (a *Agent) handleDeploy(req DeployRequest) {
	mc, err := a.loadMC(req.Stream, req.MC)
	if err == nil {
		_, err = a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
			return nil, e.Deploy(mc, req.Threshold)
		})
	}
	if err == nil {
		a.noteManaged(req.Stream, mc.Spec().Name, true)
		a.noteGen(req.Gen)
	}
	a.ack(req.Seq, err)
}

// loadMC decodes a shipped microclassifier against the stream's base
// DNN and frame size, on the control loop rather than a worker.
func (a *Agent) loadMC(stream string, data []byte) (*filter.MC, error) {
	a.mu.Lock()
	e := a.node.Stream(stream)
	a.mu.Unlock()
	if e == nil {
		return nil, fmt.Errorf("unknown stream %q", stream)
	}
	cfg := e.Config()
	return filter.LoadMC(bytes.NewReader(data), cfg.Base, cfg.FrameWidth, cfg.FrameHeight)
}

// noteManaged updates the stream's remote-managed MC inventory.
func (a *Agent) noteManaged(stream, name string, deployed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := a.stream(stream)
	switch {
	case s == nil:
	case deployed:
		s.managed[name] = true
	default:
		delete(s.managed, name)
	}
}

// noteGen records the highest deploy generation applied, reported in
// resume hellos.
func (a *Agent) noteGen(gen uint64) {
	a.sessMu.Lock()
	a.lastGen = max(a.lastGen, gen)
	a.sessMu.Unlock()
}

// handleUndeploy removes an MC and hands its final uploads to the
// resend log before the ack, which the writer sends after them, so the
// controller sees a complete event record.
func (a *Agent) handleUndeploy(req UndeployRequest) {
	ups, err := a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
		return e.Undeploy(req.MCName)
	})
	if err == nil {
		a.noteManaged(req.Stream, req.MCName, false)
		a.noteGen(req.Gen)
		a.sendUploads(ups)
	}
	a.ack(req.Seq, err)
}

// handleFetch serves a demand-fetch from the stream's local archive
// without holding anything the frame path needs. A no-op barrier on
// the stream's queue first lets every frame submitted before the
// request reach the archive; the read and the re-encode then run here,
// on the control goroutine, while the stream keeps processing frames;
// only the uplink and stats accounting goes back through the stream's
// queue. When the request asks for data, each chunk's decoder-side
// reconstructions go out as one fetchData record before the next chunk
// is read, all ahead of the response trailer; a failure part way
// through reaches the controller in the trailer's Err.
func (a *Agent) handleFetch(req FetchRequest) {
	resp := FetchResponse{Seq: req.Seq, Stream: req.Stream, Start: req.Start, End: req.End}
	var src core.FrameSource
	a.mu.Lock()
	if s := a.stream(req.Stream); s != nil {
		src = s.src
	}
	a.mu.Unlock()
	var edge *core.EdgeNode
	_, err := a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
		edge = e
		return nil, nil
	})
	var f core.Fetch
	if err == nil {
		var emit func([]*vision.Image) error
		if req.IncludeData {
			emit = func(recons []*vision.Image) error { return a.sendFetchData(req, recons) }
		}
		f, err = edge.ReadFetch(src, req.Start, req.End, req.Bitrate, emit)
	}
	if err == nil {
		_, err = a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
			e.AccountFetch(f)
			return nil, nil
		})
	}
	if err == nil {
		resp.Bits = f.Bits
	} else {
		resp.Err = err.Error()
	}
	_ = a.reply(transport.KindFetchResponse, resp)
}

// sendFetchData sends one chunk of reconstructions as one fetchData
// record. The record, its frame list and its framing buffer are the
// agent's, reused chunk after chunk; the samples are referenced, not
// copied, until the writer has written them.
func (a *Agent) sendFetchData(req FetchRequest, recons []*vision.Image) error {
	fd := &a.fetchRec
	fd.Seq, fd.Stream, fd.Frames = req.Seq, req.Stream, fd.Frames[:0]
	for _, img := range recons {
		fd.Frames = append(fd.Frames, frameData{W: img.W, H: img.H, Pix: img.Pix})
	}
	defer clear(fd.Frames) // hold no samples past the write
	return a.reply(transport.KindFetchData, fd)
}

// ack answers a deploy or undeploy request.
func (a *Agent) ack(seq uint64, err error) {
	ack := Ack{Seq: seq}
	if err != nil {
		ack.Err = err.Error()
	}
	_ = a.reply(transport.KindAck, ack)
}
