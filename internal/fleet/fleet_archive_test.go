package fleet

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// frameSrc adapts a frame slice to core.FrameSource.
type frameSrc []*vision.Image

func (s frameSrc) Frame(i int) *vision.Image { return s[i] }

// renderFrames produces a deterministic synthetic stream.
func renderFrames(n int) []*vision.Image {
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	frames := make([]*vision.Image, n)
	for i := range frames {
		frames[i] = scene.Render(nil, 1, tensor.NewRNG(int64(i)))
	}
	return frames
}

// TestWireDemandFetchServedFromDisk is the tentpole acceptance test:
// a wire demand-fetch served from the edge's on-disk archive returns
// frames byte-identical to an in-process fetch (ReadFetch then
// AccountFetch, re-encoding from the live source), with identical
// DemandFetchBits accounting.
func TestWireDemandFetchServedFromDisk(t *testing.T) {
	base := testBase()
	frames := renderFrames(24)
	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, MaxChunkFrames: 8,
		ArchiveToDisk: true, ArchiveBitrate: 90_000,
	}
	mc, err := filter.NewMC(filter.Spec{Name: "ctx", Arch: filter.PoolingClassifier, Seed: 3}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	var mcBuf bytes.Buffer
	if err := mc.Save(&mcBuf); err != nil {
		t.Fatal(err)
	}
	lo, hi := 5, 17 // spans a segment boundary at the 8-frame segment length

	// In-process baseline: ReadFetch straight off the live source.
	baseline, err := core.NewEdgeNode(edgeCfg)
	if err != nil {
		t.Fatal(err)
	}
	baseMC, err := filter.LoadMC(bytes.NewReader(mcBuf.Bytes()), base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := baseline.Deploy(baseMC, -1); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := baseline.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	var wantRecons []*vision.Image
	want, err := baseline.ReadFetch(frameSrc(frames), lo, hi, 20_000, func(recons []*vision.Image) error {
		for _, img := range recons {
			wantRecons = append(wantRecons, img.Clone())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline.AccountFetch(want)
	wantBits := want.Bits
	wantStats := baseline.Stats()

	// Wire run: the agent's stream has NO live fallback source (nil) —
	// every fetched pixel must come off the on-disk archive.
	ctrl := NewController(ControllerConfig{Timeout: 15 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	agent, err := NewAgent(AgentConfig{
		Node: "edge-a", Edge: edgeCfg, Heartbeat: 50 * time.Millisecond,
		ArchiveDir: t.TempDir(), ArchiveSegmentFrames: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := ctrl.Deploy("edge-a", "cam0", mcBuf.Bytes(), -1); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := agent.ProcessFrame("cam0", f); err != nil {
			t.Fatal(err)
		}
	}

	gotFrames, resp, err := ctrl.FetchFrames("edge-a", "cam0", lo, hi, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Bits != wantBits {
		t.Fatalf("wire fetch %d bits, in-process baseline %d bits", resp.Bits, wantBits)
	}
	if len(gotFrames) != len(wantRecons) {
		t.Fatalf("wire fetch returned %d frames, want %d", len(gotFrames), len(wantRecons))
	}
	for i := range gotFrames {
		g, w := gotFrames[i], wantRecons[i]
		if g.W != w.W || g.H != w.H {
			t.Fatalf("frame %d dims %dx%d, want %dx%d", i, g.W, g.H, w.W, w.H)
		}
		for p := range w.Pix {
			if g.Pix[p] != w.Pix[p] {
				t.Fatalf("frame %d differs at sample %d: wire %v, baseline %v", i, p, g.Pix[p], w.Pix[p])
			}
		}
	}

	// Identical accounting on the edge: DemandFetchBits, fetch count,
	// and the codec-model archive cost all match the baseline run.
	st := agent.Stats()
	if st.DemandFetchBits != wantStats.DemandFetchBits || st.DemandFetches != wantStats.DemandFetches {
		t.Fatalf("demand-fetch accounting: wire %d bits/%d fetches, baseline %d/%d",
			st.DemandFetchBits, st.DemandFetches, wantStats.DemandFetchBits, wantStats.DemandFetches)
	}
	if st.ArchivedBits != wantStats.ArchivedBits {
		t.Fatalf("archived bits: wire %d, baseline %d", st.ArchivedBits, wantStats.ArchivedBits)
	}

	// The heartbeat rolls the archive's on-disk state up to the
	// controller registry.
	sess, err := ctrl.Session("edge-a")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "archive heartbeat", func() bool {
		hb, at := sess.lastHeartbeat()
		ss := hb.Streams["cam0"]
		return !at.IsZero() && ss.ArchiveSegments > 0 && ss.ArchiveBytes > 0 &&
			ss.ArchivedBits == wantStats.ArchivedBits && ss.DemandFetchBits == wantBits
	})

	// An accounting-only fetch of the same range re-encodes the same
	// archived frames: same coded size, no pixels shipped.
	resp2, err := ctrl.Fetch("edge-a", "cam0", lo, hi, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Bits != wantBits {
		t.Fatalf("accounting-only fetch %d bits, want %d", resp2.Bits, wantBits)
	}
}

// TestWireArchiveRetentionUnderBudget drives enough frames through a
// budget-bounded archive to force eviction, then checks disk usage
// stays under the budget, eviction is counted (locally and in
// heartbeats), evicted ranges fail over the wire, and retained ranges
// still serve.
func TestWireArchiveRetentionUnderBudget(t *testing.T) {
	base := testBase()
	frames := renderFrames(40)
	recBytes := int64(48*27*3*4 + 24)
	segBytes := int64(32) + 5*recBytes
	budget := 3 * segBytes

	edgeCfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, ArchiveToDisk: true, ArchiveBitrate: 90_000,
	}
	mc, err := filter.NewMC(filter.Spec{Name: "ret", Arch: filter.PoolingClassifier, Seed: 4}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	var mcBuf bytes.Buffer
	if err := mc.Save(&mcBuf); err != nil {
		t.Fatal(err)
	}

	ctrl := NewController(ControllerConfig{Timeout: 15 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	agent, err := NewAgent(AgentConfig{
		Node: "edge-b", Edge: edgeCfg, Heartbeat: 50 * time.Millisecond,
		ArchiveDir: t.TempDir(), ArchiveSegmentFrames: 5, ArchiveBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := ctrl.Deploy("edge-b", "cam0", mcBuf.Bytes(), 2); err != nil { // threshold 2: never matches
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := agent.ProcessFrame("cam0", f); err != nil {
			t.Fatal(err)
		}
	}

	// A fetch of the retained tail barriers on the archive writer, so
	// the stats below are settled.
	ast, ok := agent.ArchiveStats("cam0")
	if !ok {
		t.Fatal("stream has no archive store")
	}
	gotFrames, _, err := ctrl.FetchFrames("edge-b", "cam0", ast.OldestFrame, 40, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotFrames) != 40-ast.OldestFrame {
		t.Fatalf("retained fetch returned %d frames, want %d", len(gotFrames), 40-ast.OldestFrame)
	}

	ast, _ = agent.ArchiveStats("cam0")
	if ast.Bytes > budget {
		t.Fatalf("disk usage %d exceeds budget %d", ast.Bytes, budget)
	}
	if ast.EvictedSegments == 0 || ast.EvictedBytes == 0 || ast.OldestFrame == 0 {
		t.Fatalf("no eviction under budget pressure: %+v", ast)
	}
	if ast.EvictedFrames+ast.Frames != 40 {
		t.Fatalf("evicted %d + retained %d != 40", ast.EvictedFrames, ast.Frames)
	}

	// The wire fetch of an evicted range fails with the retention
	// error rather than silently re-encoding from anywhere else.
	if _, _, err := ctrl.FetchFrames("edge-b", "cam0", 0, 2, 20_000); err == nil {
		t.Fatal("fetch of evicted range succeeded")
	} else if !strings.Contains(err.Error(), "evicted") {
		t.Fatalf("evicted-range fetch error %q does not name eviction", err)
	}

	// Heartbeats surface the eviction counters to the datacenter.
	sess, err := ctrl.Session("edge-b")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "eviction heartbeat", func() bool {
		hb, at := sess.lastHeartbeat()
		ss := hb.Streams["cam0"]
		return !at.IsZero() && ss.ArchiveEvictedSegments == ast.EvictedSegments &&
			ss.ArchiveEvictedBytes == ast.EvictedBytes && ss.ArchiveBytes <= budget && ss.ArchiveBytes > 0
	})
}
