package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/tensor"
	"repro/internal/vision"
)

func testBase() *mobilenet.Model {
	return mobilenet.New(mobilenet.Config{WidthMult: 0.25, Seed: 1})
}

func testFrames(n int) []*vision.Image {
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = scene.Render(nil, 1, tensor.NewRNG(int64(i)))
	}
	return frames
}

func newNode(t *testing.T, cfg Config, thresholds map[filter.Arch]float32) *EdgeNode {
	t.Helper()
	e, err := NewEdgeNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for arch, th := range thresholds {
		mc, err := filter.NewMC(filter.Spec{Name: "mc-" + arch.String(), Arch: arch, Hidden: 8, Seed: 3}, cfg.Base, cfg.FrameWidth, cfg.FrameHeight)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Deploy(mc, th); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// fetch runs a whole demand fetch on the owner's goroutine: ReadFetch,
// keeping a copy of every chunk's reconstructions, then AccountFetch.
func fetch(e *EdgeNode, src FrameSource, start, end int, bitrate float64) ([]*vision.Image, int64, error) {
	var recons []*vision.Image
	f, err := e.ReadFetch(src, start, end, bitrate, func(chunk []*vision.Image) error {
		for _, img := range chunk {
			recons = append(recons, img.Clone())
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	e.AccountFetch(f)
	return recons, f.Bits, nil
}

func TestTokenBucketBasics(t *testing.T) {
	b := newTokenBucket(1000, 500)
	if d := b.send(400); d != 0 {
		t.Fatalf("within burst delayed %v", d)
	}
	// 100 tokens left; sending 600 queues 500 bits -> 0.5 s delay.
	if d := b.send(600); math.Abs(d-0.5) > 1e-9 {
		t.Fatalf("overload delay = %v, want 0.5", d)
	}
	// Every bit sent is spent tokens or backlog.
	if sent := b.burst - b.tokens + b.backlog; sent != 1000 {
		t.Fatalf("spent tokens + backlog = %v, want 1000 bits sent", sent)
	}
	b.advance(0.25) // drains 250 bits of backlog
	if math.Abs(b.backlog-250) > 1e-9 {
		t.Fatalf("backlog = %v, want 250", b.backlog)
	}
	b.advance(10)
	if b.backlog != 0 {
		t.Fatal("backlog not drained")
	}
}

func TestEdgeNodeAlwaysMatchUploadsEverything(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, KeepReconstructions: true, MaxChunkFrames: 8}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1}) // threshold -1: always positive
	frames := testFrames(20)
	var ups []Upload
	for _, f := range frames {
		u, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u...)
	}
	tail, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	ups = append(ups, tail...)

	dc := NewDatacenter()
	dc.ReceiveAll(ups)
	name := e.MCNames()[0]
	labels := dc.PredictedLabels(name, 20)
	for i, l := range labels {
		if !l {
			t.Fatalf("frame %d not uploaded despite always-match", i)
		}
	}
	if dc.TotalBits(name) <= 0 {
		t.Fatal("no bits uploaded")
	}
	// All uploads belong to one event (no gap ever appeared).
	events := dc.Events(name)
	if len(events) != 1 {
		t.Fatalf("expected 1 event, got %d", len(events))
	}
	// Chunking respected MaxChunkFrames.
	for _, u := range ups {
		if u.End-u.Start > cfg.MaxChunkFrames {
			t.Fatalf("chunk [%d,%d) exceeds max %d", u.Start, u.End, cfg.MaxChunkFrames)
		}
		if len(u.Frames) != u.End-u.Start {
			t.Fatalf("chunk has %d recons for range [%d,%d)", len(u.Frames), u.Start, u.End)
		}
	}
}

func TestEdgeNodeNeverMatchUploadsNothing(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: 2}) // threshold 2: never positive
	for _, f := range testFrames(15) {
		ups, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		if len(ups) != 0 {
			t.Fatalf("unexpected uploads: %+v", ups)
		}
	}
	tail, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 0 {
		t.Fatalf("flush produced uploads: %+v", tail)
	}
	if e.Stats().UploadedBits != 0 {
		t.Fatal("bits uploaded despite never-match")
	}
}

func TestEdgeNodeMultiTenantSharedExtraction(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	e := newNode(t, cfg, map[filter.Arch]float32{
		filter.LocalizedBinary:         -1,
		filter.FullFrameObjectDetector: -1,
		filter.WindowedLocalizedBinary: -1,
		filter.PoolingClassifier:       -1,
	})
	frames := testFrames(12)
	var ups []Upload
	for _, f := range frames {
		u, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u...)
	}
	tail, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	ups = append(ups, tail...)
	dc := NewDatacenter()
	dc.ReceiveAll(ups)
	for _, name := range e.MCNames() {
		labels := dc.PredictedLabels(name, 12)
		for i, l := range labels {
			if !l {
				t.Fatalf("MC %s missing frame %d", name, i)
			}
		}
	}
	// Frame 5 belongs to exactly one event of each MC, named by the
	// event ID of the one upload that carries it (§3.5).
	in5 := map[string]int{}
	for _, u := range ups {
		if u.Start <= 5 && 5 < u.End {
			if u.EventID == 0 {
				t.Fatalf("upload %+v carries frame 5 with no event ID", u)
			}
			in5[u.MCName]++
		}
	}
	if len(in5) != 4 {
		t.Fatalf("frame 5 is in uploads of %d MCs, want 4: %v", len(in5), in5)
	}
	for name, n := range in5 {
		if n != 1 {
			t.Fatalf("frame 5 is in %d uploads of MC %s, want 1", n, name)
		}
	}
	st := e.Stats()
	if st.BaseDNNTime <= 0 || st.MCTime <= 0 {
		t.Fatal("timing stats not collected")
	}
	if st.DecodeTime <= 0 {
		t.Fatal("DecodeTime not collected from the frame-ingest path")
	}
	if len(st.MCTimeBy) != 4 {
		t.Fatalf("per-MC timing has %d entries", len(st.MCTimeBy))
	}
}

func TestUploadRangesDisjointPerMC(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, MaxChunkFrames: 4}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	var ups []Upload
	for _, f := range testFrames(13) {
		u, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u...)
	}
	tail, _ := e.Flush()
	ups = append(ups, tail...)
	end := -1
	for _, u := range ups {
		if u.Start < end {
			t.Fatalf("overlapping uploads at %d (prev end %d)", u.Start, end)
		}
		end = u.End
	}
	if end != 13 {
		t.Fatalf("uploads end at %d, want 13", end)
	}
}

func TestUplinkAccounting(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, UplinkBandwidth: 1_000} // tiny link
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	var worst float64
	for _, f := range testFrames(30) {
		ups, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range ups {
			if u.Delay > worst {
				worst = u.Delay
			}
		}
	}
	tail, _ := e.Flush()
	for _, u := range tail {
		if u.Delay > worst {
			worst = u.Delay
		}
	}
	if worst <= 0 {
		t.Fatal("tiny uplink produced no queueing delay")
	}
	if e.Stats().MaxUplinkDelay <= 0 {
		t.Fatal("MaxUplinkDelay not recorded")
	}
}

func TestDeployValidation(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, Base: base, UploadBitrate: 1000}
	e, err := NewEdgeNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mc, _ := filter.NewMC(filter.Spec{Name: "a", Arch: filter.PoolingClassifier, Seed: 1}, base, 48, 27)
	if err := e.Deploy(mc, 0.5); err != nil {
		t.Fatal(err)
	}
	mc2, _ := filter.NewMC(filter.Spec{Name: "a", Arch: filter.LocalizedBinary, Seed: 1}, base, 48, 27)
	if err := e.Deploy(mc2, 0.5); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if _, err := e.ProcessFrame(vision.NewImage(48, 27)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessFrame(vision.NewImage(10, 10)); err == nil {
		t.Fatal("wrong frame size accepted")
	}
}

func TestDeployLiveMidStream(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	frames := testFrames(16)
	for _, f := range frames[:6] {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	// A second always-positive MC joins live at frame 6: its event
	// ranges must be reported in stream coordinates, starting no
	// earlier than its deployment frame.
	late, err := filter.NewMC(filter.Spec{Name: "late", Arch: filter.PoolingClassifier, Seed: 9}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(late, -1); err != nil {
		t.Fatal(err)
	}
	var ups []Upload
	for _, f := range frames[6:] {
		u, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, u...)
	}
	tail, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	ups = append(ups, tail...)

	dc := NewDatacenter()
	dc.ReceiveAll(ups)
	lateUps := dc.Uploads("late")
	if len(lateUps) == 0 {
		t.Fatal("live-deployed MC produced no uploads")
	}
	if lateUps[0].Start < 6 {
		t.Fatalf("live MC upload starts at %d, before its deployment frame 6", lateUps[0].Start)
	}
	if lateUps[len(lateUps)-1].End != 16 {
		t.Fatalf("live MC uploads end at %d, want 16", lateUps[len(lateUps)-1].End)
	}
	// The original MC covers the full stream.
	labels := dc.PredictedLabels(e.MCNames()[0], 16)
	for i, l := range labels {
		if !l {
			t.Fatalf("original MC missing frame %d", i)
		}
	}
}

func TestUndeployDrainsOpenEvent(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	for _, f := range testFrames(9) {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	name := e.MCNames()[0]
	ups, err := e.Undeploy(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 || !ups[len(ups)-1].Final {
		t.Fatalf("undeploy did not close the open event: %+v", ups)
	}
	dc := NewDatacenter()
	dc.ReceiveAll(ups)
	labels := dc.PredictedLabels(name, 9)
	for i, l := range labels {
		if !l {
			t.Fatalf("undeploy dropped frame %d", i)
		}
	}
	if len(e.MCNames()) != 0 {
		t.Fatalf("MC still deployed: %v", e.MCNames())
	}
	if _, err := e.Undeploy(name); err == nil {
		t.Fatal("undeploying a missing MC accepted")
	}
}

func TestFetchArchiveMatchesDemandFetch(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	frames := testFrames(10)
	src := frameSlice(frames)
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: 2})
	for _, f := range frames {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	recons, bits, err := fetch(e, src, 2, 6, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recons) != 4 || bits <= 0 {
		t.Fatalf("fetch archive: %d frames, %d bits", len(recons), bits)
	}
	st := e.Stats()
	if st.DemandFetchBits != bits || st.DemandFetches != 1 {
		t.Fatalf("fetch not accounted: DemandFetchBits=%d DemandFetches=%d, fetch %d", st.DemandFetchBits, st.DemandFetches, bits)
	}
	if st.UploadedBits != 0 {
		t.Fatalf("fetch bits folded into UploadedBits (%d); want a dedicated stat", st.UploadedBits)
	}
	if _, _, err := fetch(e, nil, 2, 6, 30_000); err == nil {
		t.Fatal("nil archive source accepted")
	}
}

func TestFetchArchiveRecordsUplinkDelay(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, UplinkBandwidth: 1_000} // tiny link
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: 2})
	frames := testFrames(10)
	for _, f := range frames {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	// Two large fetches over a 1 kb/s link: the second must queue.
	src := frameSlice(frames)
	for i := 0; i < 2; i++ {
		if _, _, err := fetch(e, src, 0, 10, 30_000); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.MaxUplinkDelay <= 0 {
		t.Fatal("demand-fetch queueing delay not recorded in MaxUplinkDelay")
	}
	if st.DemandFetches != 2 || st.DemandFetchBits <= 0 {
		t.Fatalf("fetch counters: DemandFetches=%d DemandFetchBits=%d", st.DemandFetches, st.DemandFetchBits)
	}
}

// Regression: retained frames must be evicted as they leave the
// window, or an always-matching stream holds every frame it uploads.
func TestMetaEvictedWithFrames(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, RetainFrames: 16, MaxChunkFrames: 4}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.PoolingClassifier: -1})
	frames := testFrames(4)
	for i := 0; i < 120; i++ {
		if _, err := e.ProcessFrame(frames[i%len(frames)]); err != nil {
			t.Fatal(err)
		}
	}
	live := 0
	for _, f := range e.frames {
		if f != nil {
			live++
		}
	}
	if live > cfg.RetainFrames {
		t.Fatalf("retained %d frames, window is %d", live, cfg.RetainFrames)
	}
	// A frame within the window is still served.
	if e.retained(115) == nil {
		t.Fatal("in-window frame evicted")
	}
	if e.retained(10) != nil {
		t.Fatal("out-of-window frame survived")
	}
}

// TestMultiStreamDeployUndeploy drives live deploy and undeploy
// through the scheduler: an MC that joins mid-stream reports events in
// stream coordinates from its deployment frame on, and its undeploy
// drains stream-prefixed final uploads.
func TestMultiStreamDeployUndeploy(t *testing.T) {
	base := testBase()
	m, err := NewMultiStreamNode(Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddStream("cam0", 48, 27); err != nil {
		t.Fatal(err)
	}
	sched := m.NewScheduler(SchedulerConfig{Workers: 2})
	defer sched.Close()
	deploy := func(stream, name string, seed int64) error {
		mc, err := filter.NewMC(filter.Spec{Name: name, Arch: filter.PoolingClassifier, Seed: seed}, base, 48, 27)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sched.Do(stream, func(e *EdgeNode) ([]Upload, error) { return nil, e.Deploy(mc, -1) })
		return err
	}
	undeploy := func(stream, name string) ([]Upload, error) {
		return sched.Do(stream, func(e *EdgeNode) ([]Upload, error) { return e.Undeploy(name) })
	}
	if err := deploy("cam0", "m", 4); err != nil {
		t.Fatal(err)
	}
	if err := deploy("nope", "m", 4); err == nil {
		t.Fatal("deploy to unknown stream accepted")
	}
	frames := testFrames(7)
	for i, f := range frames {
		if i == 3 {
			if err := deploy("cam0", "late", 5); err != nil {
				t.Fatalf("mid-stream deploy: %v", err)
			}
		}
		if err := sched.Submit("cam0", f); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := undeploy("cam0", "late")
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 || ups[0].MCName != "cam0/late" {
		t.Fatalf("undeploy uploads not stream-prefixed: %+v", ups)
	}
	for _, u := range ups {
		if u.Start < 3 {
			t.Fatalf("late MC upload starts at %d, before its deployment frame 3", u.Start)
		}
	}
	if _, err := undeploy("nope", "m"); err == nil {
		t.Fatal("undeploy on unknown stream accepted")
	}
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestNoMCsIsAnError(t *testing.T) {
	base := testBase()
	e, err := NewEdgeNode(Config{FrameWidth: 48, FrameHeight: 27, Base: base, UploadBitrate: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ProcessFrame(vision.NewImage(48, 27)); err == nil {
		t.Fatal("processing with no MCs accepted")
	}
}

func TestEvictionGuard(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 50_000, RetainFrames: 4, MaxChunkFrames: 64}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1})
	var failed bool
	for _, f := range testFrames(30) {
		if _, err := e.ProcessFrame(f); err != nil {
			failed = true
			break
		}
	}
	if !failed {
		if _, err := e.Flush(); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("expected an eviction error with RetainFrames < chunk size")
	}
}

func TestDemandFetch(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: 2})
	frames := testFrames(10)
	for _, f := range frames {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	src := frameSlice(frames)
	recons, bits, err := fetch(e, src, 2, 6, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recons) != 4 || bits <= 0 {
		t.Fatalf("demand fetch: %d frames, %d bits", len(recons), bits)
	}
	if _, _, err := fetch(e, src, 5, 5, 30_000); err == nil {
		t.Fatal("empty fetch range accepted")
	}
}

// frameSlice adapts a slice to FrameSource.
type frameSlice []*vision.Image

func (s frameSlice) Frame(i int) *vision.Image { return s[i] }

// TestArchiveAccounting: the bits the node accounts for the archive
// and for its uploads are those an independent codec.Encoder spends on
// the same frames — whether or not the node builds reconstructions.
func TestArchiveAccounting(t *testing.T) {
	base := testBase()
	frames := testFrames(20)
	for _, keep := range []bool{false, true} {
		cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
			UploadBitrate: 50_000, ArchiveToDisk: true, MaxChunkFrames: 8, KeepReconstructions: keep}
		e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: -1}) // always positive
		var ups []Upload
		for _, f := range frames {
			u, err := e.ProcessFrame(f)
			if err != nil {
				t.Fatal(err)
			}
			ups = append(ups, u...)
		}
		tail, err := e.Flush()
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, tail...)

		ccfg := codec.Config{Width: 48, Height: 27, FPS: 15, TargetBitrate: 4 * cfg.UploadBitrate}
		archive := codec.NewEncoder(ccfg)
		for _, f := range frames {
			archive.Encode(f)
		}
		if got := e.Stats().ArchivedBits; got != archive.TotalBits() {
			t.Fatalf("keep %v: ArchivedBits = %d, an independent encoder spends %d", keep, got, archive.TotalBits())
		}

		ccfg.TargetBitrate = cfg.UploadBitrate
		var uploaded int64
		for _, u := range ups {
			bits, recons := codec.EncodeSegment(ccfg, frames[u.Start:u.End])
			if u.Bits != bits {
				t.Fatalf("keep %v: upload [%d,%d) = %d bits, an independent encoder spends %d", keep, u.Start, u.End, u.Bits, bits)
			}
			uploaded += bits
			if !keep {
				if u.Frames != nil {
					t.Fatalf("upload [%d,%d) carries reconstructions without KeepReconstructions", u.Start, u.End)
				}
				continue
			}
			for i, r := range recons {
				if !slices.Equal(u.Frames[i].Pix, r.Pix) {
					t.Fatalf("upload [%d,%d): reconstruction %d differs from an independent encoder's", u.Start, u.End, i)
				}
			}
		}
		if got := e.Stats().UploadedBits; got != uploaded || uploaded == 0 {
			t.Fatalf("keep %v: UploadedBits = %d, uploads sum to %d", keep, got, uploaded)
		}
	}
}

func TestAverageUploadBitrate(t *testing.T) {
	s := Stats{Frames: 150, UploadedBits: 1_000_000}
	got := s.AverageUploadBitrate(15)
	if math.Abs(got-100_000) > 1e-6 {
		t.Fatalf("avg bitrate = %v, want 100000", got)
	}
}

// Property: under arbitrary interleavings of send and advance, the
// bucket never reports negative backlog, delays are non-negative, and
// it accounts every bit sent: the spent tokens plus the backlog are
// the bits sent that refills have not yet paid back.
func TestQuickTokenBucket(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		b := newTokenBucket(1+rng.Float64()*10000, 1+rng.Float64()*5000)
		owed := 0.0 // bits sent and not yet paid back by refills
		for i := 0; i < 50; i++ {
			if rng.Float32() < 0.5 {
				bits := int64(rng.Intn(4000))
				owed += float64(bits)
				if b.send(bits) < 0 {
					return false
				}
			} else {
				dt := rng.Float64()
				owed -= min(owed, b.rate*dt)
				b.advance(dt)
			}
			if b.backlog < 0 || math.Abs(b.burst-b.tokens+b.backlog-owed) > 1e-6*(1+owed) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any classification pattern, the union of uploaded
// ranges equals exactly the smoothed-positive frames (no frame is
// uploaded twice, none is dropped).
func TestQuickUploadsMatchSmoothing(t *testing.T) {
	base := testBase()
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(30)
		cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
			UploadBitrate: 30_000, MaxChunkFrames: 3 + rng.Intn(6)}
		e, err := NewEdgeNode(cfg)
		if err != nil {
			return false
		}
		// A pooling MC with random threshold gives a pseudo-random but
		// deterministic classification pattern over noise frames.
		mc, err := filter.NewMC(filter.Spec{Name: "q", Arch: filter.PoolingClassifier, Seed: seed}, base, 48, 27)
		if err != nil {
			return false
		}
		th := 0.3 + 0.4*rng.Float32()
		if err := e.Deploy(mc, th); err != nil {
			return false
		}
		frames := testFrames(n)
		var ups []Upload
		for _, fr := range frames {
			u, err := e.ProcessFrame(fr)
			if err != nil {
				return false
			}
			ups = append(ups, u...)
		}
		tail, err := e.Flush()
		if err != nil {
			return false
		}
		ups = append(ups, tail...)

		// Every uploaded frame carries exactly one event ID (§3.5's
		// per-frame metadata): that of the one upload it lies in.
		ids := make([]uint64, n)
		for _, u := range ups {
			if u.EventID == 0 {
				return false
			}
			for fi := u.Start; fi < u.End; fi++ {
				if ids[fi] != 0 {
					return false // double upload
				}
				ids[fi] = u.EventID
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
