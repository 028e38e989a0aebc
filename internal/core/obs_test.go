package core

import (
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/obs"
)

// obsNode builds an instrumented edge node with one never-matching MC
// (threshold above 1 keeps the steady state free of events, uploads,
// and segment encodes).
func obsNode(t *testing.T, o *obs.Observer, arch filter.Arch, archive bool) *EdgeNode {
	t.Helper()
	cfg := Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(),
		UploadBitrate: 50_000, StreamLabel: "cam0", Obs: o,
		ArchiveToDisk: archive,
	}
	return newNode(t, cfg, map[filter.Arch]float32{arch: 2})
}

// TestProcessFrameZeroAllocInstrumented pins the whole instrumented
// pipeline — ingest decode, shared extraction, MC fan-out, smoothing,
// span recording, histogram observation — at zero allocations per
// steady-state frame, for both the immediate and the windowed MC
// architectures.
func TestProcessFrameZeroAllocInstrumented(t *testing.T) {
	for _, arch := range []filter.Arch{filter.LocalizedBinary, filter.WindowedLocalizedBinary} {
		o := obs.NewObserver(obs.Options{})
		e := obsNode(t, o, arch, false)
		img := testFrames(1)[0]
		// Warm past classifier lag and smoothing lag so every ring and
		// arena reaches steady state.
		for i := 0; i < 20; i++ {
			if _, err := e.ProcessFrame(img); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(30, func() {
			if _, err := e.ProcessFrame(img); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("%v: instrumented ProcessFrame allocates %v objects per frame, want 0", arch, n)
		}
		if o.Frame.Count() == 0 || o.Extract.Count() == 0 {
			t.Fatalf("%v: observer saw no frames", arch)
		}
		// Score sketching rides the same pinned hot path: the node
		// aggregate and the per-MC sketch both saw every classification.
		if o.Scores.Count() == 0 {
			t.Fatalf("%v: node score sketch saw no observations", arch)
		}
		sketches := e.ScoreSketches()
		if len(sketches) != 1 {
			t.Fatalf("%v: ScoreSketches returned %d entries, want 1", arch, len(sketches))
		}
		for name, snap := range sketches {
			if snap.Count == 0 {
				t.Fatalf("%v: per-MC sketch %q empty", arch, name)
			}
			if snap.Passes != 0 {
				t.Fatalf("%v: threshold 2 must never pass, got %d passes", arch, snap.Passes)
			}
		}
	}
}

// TestProcessFrameRecordsSpans verifies one frame leaves the full span
// chain in the tracer and one observation in each per-stage histogram.
func TestProcessFrameRecordsSpans(t *testing.T) {
	o := obs.NewObserver(obs.Options{})
	e := obsNode(t, o, filter.LocalizedBinary, false)
	img := testFrames(1)[0]
	const n = 7
	for i := 0; i < n; i++ {
		if _, err := e.ProcessFrame(img); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Frames.Value(); got != n {
		t.Fatalf("frames counter = %d, want %d", got, n)
	}
	for name, h := range map[string]*obs.Histogram{
		"decode": o.Decode, "extract": o.Extract, "mc_push": o.MCPush, "frame": o.Frame,
	} {
		if got := h.Count(); got != n {
			t.Fatalf("%s histogram count = %d, want %d", name, got, n)
		}
	}
	stages := make(map[obs.Stage]int)
	frames := make(map[obs.Stage]int64)
	for _, sp := range o.Trace.Snapshot() {
		stages[sp.Stage]++
		frames[sp.Stage] = sp.Frame
	}
	for _, st := range []obs.Stage{obs.StageDecode, obs.StageExtract, obs.StageMCPush, obs.StageFrame} {
		if stages[st] != n {
			t.Fatalf("stage %v: %d spans, want %d", st, stages[st], n)
		}
		if frames[st] != n-1 {
			t.Fatalf("stage %v: last span frame %d, want %d", st, frames[st], n-1)
		}
	}
	if got := o.Trace.StreamName(e.sid); got != "cam0" {
		t.Fatalf("stream name = %q, want cam0", got)
	}
}

// TestSchedulerQueueWaitObserved verifies the scheduler attributes
// mailbox time: every submitted frame leaves a queue-wait observation
// and a StageQueueWait span before its pipeline span chain.
func TestSchedulerQueueWaitObserved(t *testing.T) {
	o := obs.NewObserver(obs.Options{})
	cfg := Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(),
		UploadBitrate: 50_000, Obs: o,
	}
	m, err := NewMultiStreamNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e, err := m.AddStream("cam0", 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := filter.NewMC(filter.Spec{Name: "qw", Arch: filter.LocalizedBinary, Hidden: 8, Seed: 3}, cfg.Base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(mc, 2); err != nil {
		t.Fatal(err)
	}
	s := m.NewScheduler(SchedulerConfig{Workers: 2})
	img := testFrames(1)[0]
	const n = 9
	for i := 0; i < n; i++ {
		if err := s.Submit("cam0", img); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if got := o.QueueWait.Count(); got != n {
		t.Fatalf("queue-wait count = %d, want %d", got, n)
	}
	waits := 0
	for _, sp := range o.Trace.Snapshot() {
		if sp.Stage == obs.StageQueueWait {
			waits++
		}
	}
	if waits != n {
		t.Fatalf("queue-wait spans = %d, want %d", waits, n)
	}
}

// TestArchiveTimeAttribution is the regression test for the timing
// bugfix: the ingest path's continuous-archive encode must land in
// Stats.ArchiveTime (it was previously dropped), with the matching
// histogram fed once per frame.
func TestArchiveTimeAttribution(t *testing.T) {
	o := obs.NewObserver(obs.Options{})
	e := obsNode(t, o, filter.LocalizedBinary, true)
	img := testFrames(1)[0]
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e.ProcessFrame(img); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.ArchiveTime <= 0 {
		t.Fatal("Stats.ArchiveTime not populated with ArchiveToDisk on")
	}
	if got := o.ArchiveEncode.Count(); got != n {
		t.Fatalf("archive-encode histogram count = %d, want %d", got, n)
	}
	// ArchiveTime is its own stat, not double-counted into the upload
	// re-encode time: nothing was uploaded, so EncodeTime stays zero.
	if st.EncodeTime != 0 {
		t.Fatalf("EncodeTime = %v with no uploads, want 0", st.EncodeTime)
	}
}

// TestFetchArchiveEncodeTime is the regression test for the demand-
// fetch timing bugfix: a demand fetch's re-encode must be attributed to
// Stats.EncodeTime (it was previously dropped) and observed by the
// fetch histogram.
func TestFetchArchiveEncodeTime(t *testing.T) {
	o := obs.NewObserver(obs.Options{})
	e := obsNode(t, o, filter.LocalizedBinary, false)
	frames := testFrames(12)
	for _, img := range frames {
		if _, err := e.ProcessFrame(img); err != nil {
			t.Fatal(err)
		}
	}
	before := e.Stats().EncodeTime
	if _, _, err := fetch(e, frameSlice(frames), 2, 9, 40_000); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.EncodeTime <= before {
		t.Fatalf("EncodeTime %v did not grow after demand fetch (was %v)", st.EncodeTime, before)
	}
	if got := o.Fetch.Count(); got != 1 {
		t.Fatalf("fetch histogram count = %d, want 1", got)
	}
	if st.DemandFetches != 1 {
		t.Fatalf("DemandFetches = %d, want 1", st.DemandFetches)
	}
}

// TestSlowFrameTriggerLogs verifies an absurdly low slow-frame
// threshold makes every frame log its span chain (and a high one logs
// nothing) without perturbing the pipeline.
func TestSlowFrameTriggerLogs(t *testing.T) {
	for _, thresh := range []time.Duration{time.Nanosecond, time.Hour} {
		o := obs.NewObserver(obs.Options{SlowFrame: thresh})
		e := obsNode(t, o, filter.LocalizedBinary, false)
		img := testFrames(1)[0]
		if _, err := e.ProcessFrame(img); err != nil {
			t.Fatal(err)
		}
		if o.Frame.Count() != 1 {
			t.Fatalf("threshold %v: frame histogram count %d", thresh, o.Frame.Count())
		}
	}
}
