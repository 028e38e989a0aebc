package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/filter"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// schedFrames renders a per-stream distinct frame sequence.
func schedFrames(stream, n int) []*vision.Image {
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = scene.Render(nil, 1, tensor.NewRNG(int64(1000*stream+i)))
	}
	return frames
}

// buildSchedNode constructs a 4-stream node with three MCs per stream
// (mixed architectures, thresholds that flip between runs of positives
// and negatives) over a constrained uplink. mcWorkers controls the
// phase-2 fan-out.
func buildSchedNode(t *testing.T, mcWorkers int) *MultiStreamNode {
	t.Helper()
	base := testBase()
	node, err := NewMultiStreamNode(Config{
		FrameWidth: 1, FrameHeight: 1, FPS: 15, Base: base,
		UploadBitrate: 30_000, UplinkBandwidth: 20_000,
		MaxChunkFrames: 4, MCWorkers: mcWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 4; si++ {
		name := fmt.Sprintf("s%d", si)
		e, err := node.AddStream(name, 48, 27)
		if err != nil {
			t.Fatal(err)
		}
		for mi, mc := range []struct {
			arch filter.Arch
			th   float32
		}{
			{filter.PoolingClassifier, 0.45},
			{filter.LocalizedBinary, 0.5},
			{filter.WindowedLocalizedBinary, -1},
		} {
			m, err := filter.NewMC(filter.Spec{
				Name: fmt.Sprintf("mc%d", mi), Arch: mc.arch, Hidden: 8,
				Seed: int64(10*si + mi),
			}, base, 48, 27)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Deploy(m, mc.th); err != nil {
				t.Fatal(err)
			}
		}
	}
	return node
}

// The scheduler's hard contract: per-stream results are byte-identical
// to the sequential baseline — same upload sequences, same event IDs,
// same bit accounting — regardless of worker count or MC fan-out.
func TestSchedulerMatchesSequential(t *testing.T) {
	const nFrames = 30
	streams := []string{"s0", "s1", "s2", "s3"}
	frames := make(map[string][]*vision.Image, len(streams))
	for si, name := range streams {
		frames[name] = schedFrames(si, nFrames)
	}

	// Sequential baseline: one goroutine, round-robin, serial MCs.
	seq := buildSchedNode(t, 1)
	seqUps := make(map[string][]Upload)
	for i := 0; i < nFrames; i++ {
		for _, name := range streams {
			ups, err := seq.Stream(name).ProcessFrame(frames[name][i])
			if err != nil {
				t.Fatal(err)
			}
			seqUps[name] = append(seqUps[name], prefixUploads(name, ups)...)
		}
	}
	for _, name := range streams {
		e := seq.Stream(name)
		tail, err := e.Flush()
		if err != nil {
			t.Fatal(err)
		}
		seqUps[name] = append(seqUps[name], prefixUploads(name, tail)...)
	}

	// Concurrent run: 4 workers over the streams, MCs fanned out 3-wide.
	par := buildSchedNode(t, 3)
	col := newUploadCollector()
	sched := par.NewScheduler(SchedulerConfig{Workers: 4, OnResult: col.OnResult})
	for i := 0; i < nFrames; i++ {
		for _, name := range streams {
			if err := sched.Submit(name, frames[name][i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched.Wait()
	for _, name := range streams {
		tail, err := sched.Flush(name)
		if err != nil {
			t.Fatal(err)
		}
		col.Add(name, tail)
	}
	sched.Close()
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}

	for _, name := range streams {
		got, want := col.Uploads(name), seqUps[name]
		if len(want) == 0 {
			t.Fatalf("stream %s: sequential baseline produced no uploads (test is vacuous)", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stream %s: concurrent uploads diverge from sequential\n got: %+v\nwant: %+v", name, got, want)
		}
		ss, ps := seq.Stream(name).Stats(), par.Stream(name).Stats()
		if ss.Frames != ps.Frames || ss.Uploads != ps.Uploads ||
			ss.UploadedFrames != ps.UploadedFrames || ss.UploadedBits != ps.UploadedBits ||
			ss.MaxUplinkDelay != ps.MaxUplinkDelay {
			t.Fatalf("stream %s: stats diverge\n seq: %+v\n par: %+v", name, ss, ps)
		}
	}
}

// Stress for the race detector: frames flow through the pool while
// MCs deploy and undeploy live and observers poll stats and metadata.
func TestSchedulerLiveOpsUnderLoad(t *testing.T) {
	node := buildSchedNode(t, 2)
	streams := node.streamNames()
	frames := schedFrames(9, 20)
	col := newUploadCollector()
	sched := node.NewScheduler(SchedulerConfig{Workers: 4, OnResult: col.OnResult})

	stop := make(chan struct{})
	var obs sync.WaitGroup
	obs.Add(1)
	go func() { // observer: aggregate + per-stream stats and names
		defer obs.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = node.Stats()
			for _, name := range streams {
				e := node.Stream(name)
				_ = e.Stats()
				_ = e.MCNames()
			}
		}
	}()

	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() { // live deploy/undeploy riding along with the frames
		defer ctl.Done()
		base := node.Stream("s0").Config().Base
		for round := 0; round < 5; round++ {
			for _, name := range streams {
				mc, err := filter.NewMC(filter.Spec{
					Name: fmt.Sprintf("live%d", round), Arch: filter.PoolingClassifier,
					Seed: int64(round),
				}, base, 48, 27)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := sched.Do(name, func(e *EdgeNode) ([]Upload, error) { return nil, e.Deploy(mc, -1) }); err != nil {
					t.Errorf("live deploy: %v", err)
					return
				}
			}
			for _, name := range streams {
				mcName := fmt.Sprintf("live%d", round)
				ups, err := sched.Do(name, func(e *EdgeNode) ([]Upload, error) { return e.Undeploy(mcName) })
				if err != nil {
					t.Errorf("live undeploy: %v", err)
					return
				}
				col.Add(name, ups)
			}
		}
	}()

	for _, f := range frames {
		for _, name := range streams {
			if err := sched.Submit(name, f); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctl.Wait()
	if _, err := sched.FlushAll(); err != nil {
		t.Fatal(err)
	}
	sched.Close()
	close(stop)
	obs.Wait()
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	st := node.Stats()
	if st.Frames != len(frames)*len(streams) {
		t.Fatalf("processed %d frames, want %d", st.Frames, len(frames)*len(streams))
	}
	if err := sched.Submit("s0", frames[0]); err == nil {
		t.Fatal("submit after Close accepted")
	}
	if _, err := sched.Flush("nope"); err == nil {
		t.Fatal("unknown stream accepted")
	}
}

// uploadCollector is an OnResult sink that records each stream's
// uploads in processing order — what a sequential loop over each
// stream's EdgeNode.ProcessFrame would have accumulated, with
// stream-prefixed MC names.
type uploadCollector struct {
	mu       sync.Mutex
	byStream map[string][]Upload
}

// newUploadCollector constructs an empty collector.
func newUploadCollector() *uploadCollector {
	return &uploadCollector{byStream: make(map[string][]Upload)}
}

// OnResult implements the SchedulerConfig callback.
func (c *uploadCollector) OnResult(r Result) {
	if len(r.Uploads) == 0 {
		return
	}
	c.mu.Lock()
	c.byStream[r.Stream] = append(c.byStream[r.Stream], r.Uploads...)
	c.mu.Unlock()
}

// Add appends uploads (e.g. a flush tail) under the stream's log.
func (c *uploadCollector) Add(stream string, ups []Upload) {
	if len(ups) == 0 {
		return
	}
	c.mu.Lock()
	c.byStream[stream] = append(c.byStream[stream], ups...)
	c.mu.Unlock()
}

// Uploads returns the recorded uploads of one stream, in order.
func (c *uploadCollector) Uploads(stream string) []Upload {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Upload(nil), c.byStream[stream]...)
}
