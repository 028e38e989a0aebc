package fleet

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/vision"
)

// TestFetchStreamsRangesOverWire: wire fetches of a range shorter than
// a chunk, an exact multiple of it, a multiple plus one, and one inside
// a single segment's neighbourhood across a roll (the rig's archive
// rolls every 10 frames) each return one codec.EncodeSegment over the
// range, bits and samples, through the chunked fetchData records.
func TestFetchStreamsRangesOverWire(t *testing.T) {
	chunk := core.FetchChunkFrames(48, 27)
	r := newFetchRig(t, "edge-c", nil)
	frames := renderFrames(2*chunk + 2)
	r.submit(t, frames, 0, len(frames))
	for _, rg := range [][2]int{{3, 8}, {0, 2 * chunk}, {1, 2*chunk + 2}, {8, 12}} {
		got, resp, err := r.ctrl.FetchFrames("edge-c", "cam0", rg[0], rg[1], 20_000)
		if err != nil {
			t.Fatalf("fetch [%d,%d): %v", rg[0], rg[1], err)
		}
		checkFetched(t, frames, got, resp.Bits, rg[0], rg[1])
	}
}

// failOnceArchive is an in-memory core.FrameArchive whose failAt-th
// read fails; every other read succeeds.
type failOnceArchive struct {
	mu     sync.Mutex
	frames []*vision.Image
	reads  int
	failAt int
}

var errReadFailed = errors.New("archive read failed")

func (a *failOnceArchive) Append(img *vision.Image, _ int64) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.frames = append(a.frames, img)
	return len(a.frames) - 1, nil
}

func (a *failOnceArchive) ReadInto(start int, dst []*vision.Image) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reads++; a.reads == a.failAt {
		return errReadFailed
	}
	for i, img := range dst {
		copy(img.Pix, a.frames[start+i].Pix)
	}
	return nil
}

func (a *failOnceArchive) NextFrame() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.frames)
}

// TestFetchErrorAfterFirstChunk: a read that fails after the first
// chunk's fetchData went out reaches the controller in the response's
// Err, and FetchFrames returns the error with no frames, never the
// partial range as a success. The session stays in step: the next
// fetch of the same range returns all of it.
func TestFetchErrorAfterFirstChunk(t *testing.T) {
	arch := &failOnceArchive{failAt: 2}
	r := newFetchRig(t, "edge-e", arch)
	chunk := core.FetchChunkFrames(48, 27)
	frames := renderFrames(2*chunk + 4)
	r.submit(t, frames, 0, len(frames))
	if err := r.agent.Wait(); err != nil {
		t.Fatal(err)
	}
	got, resp, err := r.ctrl.FetchFrames("edge-e", "cam0", 0, 2*chunk+4, 20_000)
	if !errors.Is(err, errRejected) || got != nil || resp.Err == "" {
		t.Fatalf("fetch with a failed second read: %d frames, response %+v, err %v; want no frames and the read error", len(got), resp, err)
	}
	if st := r.edge.Stats(); st.DemandFetches != 0 {
		t.Fatalf("a failed fetch was accounted: %d fetches", st.DemandFetches)
	}
	got, resp, err = r.ctrl.FetchFrames("edge-e", "cam0", 0, 2*chunk+4, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	checkFetched(t, frames, got, resp.Bits, 0, 2*chunk+4)
}

// TestFetchStreamsWhileUploadsAckedInline streams a fetch several
// times the pipe's socket-buffer bound while thousands of uploads go
// the other way, with a controller that reads them slowly. The agent's
// control loop sends the fetch and reads no ack until it is done, and
// the controller writes each ack inline, so the acks pile up unread.
// 3,000 acks take about 36 KB, far under the 512 KiB bound (some
// 40,000 acks; simnet's sockBuf says what lies past it): the fetch
// completes, bit for bit, and every upload is acked.
func TestFetchStreamsWhileUploadsAckedInline(t *testing.T) {
	var slow atomic.Int64
	r := newFetchRig(t, "edge-u", nil, func(c *ControllerConfig) {
		c.OnUpload = func(*Session, core.Upload) {
			if slow.Add(1)%64 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	})
	frames := renderFrames(100)
	r.submit(t, frames, 0, len(frames))
	if err := r.agent.Wait(); err != nil {
		t.Fatal(err)
	}
	const uploads = 3000
	injected := make(chan struct{})
	go func() {
		defer close(injected)
		for seq := 0; seq < uploads; seq += 100 {
			ups := make([]core.Upload, 100)
			for i := range ups {
				ups[i] = core.Upload{MCName: "cam0/quiet", EventID: uint64(seq + i + 1), Start: seq + i, End: seq + i + 1, Bits: 100, Final: true}
			}
			r.agent.sendUploads(ups)
		}
	}()
	got, resp, err := r.ctrl.FetchFrames("edge-u", "cam0", 0, 100, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	checkFetched(t, frames, got, resp.Bits, 0, 100)
	<-injected
	waitFor(t, "every upload acked", func() bool {
		pending, dropped := r.agent.PendingUploads()
		return pending == 0 && dropped == 0
	})
	if n := slow.Load(); n != uploads {
		t.Fatalf("controller accepted %d uploads, %d were sent", n, uploads)
	}
}

// TestFetchEdgeAllocationFlat measures what a warm demand fetch with
// data allocates on the edge, its archive read, re-encode and framing
// included, at 16 and at 64 frames of the 96x39 frames
// edge-event-heavy fetches: the agent's writer hands the records to a
// peer that discards them, so nothing else allocates. A fetch holds one
// chunk whatever the range, so the two are within 10 % of each other
// and a few KB.
func TestFetchEdgeAllocationFlat(t *testing.T) {
	const w, h = 96, 39
	a, err := NewAgent(AgentConfig{
		Node: "edge-m", Heartbeat: -1,
		Edge: core.Config{FrameWidth: w, FrameHeight: h, FPS: 15, Base: testBase(), ArchiveToDisk: true, ArchiveBitrate: 90_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	e, err := a.AddStream("cam0", w, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.Open(archive.Config{Dir: t.TempDir(), Width: w, Height: h, FPS: 15, SegmentFrames: 30})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := e.AttachArchive(store); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		img := vision.NewImage(w, h)
		for p := range img.Pix {
			img.Pix[p] = float32((p/3+7*i)%89) / 89
		}
		if _, err := store.Append(img, 0); err != nil {
			t.Fatal(err)
		}
	}

	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	conn, err := n.Dial("edge-m", "dc")
	if err != nil {
		t.Fatal(err)
	}
	peer := <-accepted
	go func() {
		b := make([]byte, 64<<10)
		for {
			if _, err := peer.Read(b); err != nil {
				return
			}
		}
	}()
	l := &link{conn: conn, ctl: make(chan []byte), res: make(chan error), quit: make(chan struct{}), done: make(chan struct{}), buf: make([]byte, 0, 256)}
	a.sessMu.Lock()
	a.link = l
	a.sessMu.Unlock()
	go a.write(l)
	defer func() {
		close(l.quit)
		<-l.done
		conn.Close()
		peer.Close()
		a.sessMu.Lock()
		a.link = nil
		a.sessMu.Unlock()
	}()

	perFetch := func(frames int) float64 {
		req := FetchRequest{Seq: 1, Stream: "cam0", Start: 0, End: frames, Bitrate: 30_000, IncludeData: true}
		fetches := func(k int) {
			before := e.Stats().DemandFetches
			for i := 0; i < k; i++ {
				a.handleFetch(req)
			}
			if got := e.Stats().DemandFetches - before; got != k {
				t.Fatalf("%d of %d fetches of %d frames succeeded", got, k, frames)
			}
		}
		fetches(2)
		best := math.Inf(1)
		for round := 0; round < 3; round++ {
			const k = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fetches(k)
			runtime.ReadMemStats(&after)
			best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/k)
		}
		return best
	}
	b16, b64 := perFetch(16), perFetch(64)
	t.Logf("edge bytes allocated per warm fetch with data: %.0f at 16 frames, %.0f at 64 frames", b16, b64)
	if b64 > 1.1*b16 || b16 > 1.1*b64 || max(b16, b64) > 8<<10 {
		t.Fatalf("a warm fetch allocates %.0f bytes at 16 frames and %.0f at 64, want within 10 %% of each other and at most 8 KiB", b16, b64)
	}
}
