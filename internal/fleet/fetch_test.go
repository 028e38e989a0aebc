package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/vision"
)

// sampleFetchData has two frames, one of them carrying a NaN payload
// and a negative zero, so a round trip that goes through float64 or
// compares with == would show.
func sampleFetchData() fetchData {
	return fetchData{Seq: 9, Stream: "cam0", Frames: []frameData{
		{W: 2, H: 1, Pix: []float32{0.5, math.Float32frombits(0x7FC0_0001), 1, float32(math.Copysign(0, -1)), 0.25, math.Float32frombits(0xFF80_0002)}},
		{W: 1, H: 1, Pix: []float32{0, 1, 2}},
	}}
}

// sameFetchData is reflect.DeepEqual with samples compared bit for bit.
func sameFetchData(a, b fetchData) bool {
	if a.Seq != b.Seq || a.Stream != b.Stream || len(a.Frames) != len(b.Frames) {
		return false
	}
	for i, fa := range a.Frames {
		fb := b.Frames[i]
		if fa.W != fb.W || fa.H != fb.H || len(fa.Pix) != len(fb.Pix) {
			return false
		}
		for j := range fa.Pix {
			if math.Float32bits(fa.Pix[j]) != math.Float32bits(fb.Pix[j]) {
				return false
			}
		}
	}
	return true
}

// TestFetchDataLayout pins the fetch-data wire bytes field by field,
// and that WriteRecord and DecodeRecord go through the layout rather
// than gob.
func TestFetchDataLayout(t *testing.T) {
	fd := fetchData{Seq: 5, Stream: "c", Frames: []frameData{
		{W: 1, H: 1, Pix: []float32{1, float32(math.Copysign(0, -1)), math.Float32frombits(0x7FC0_0001)}},
	}}
	want := []byte{
		5, 1, 'c', // Seq, Stream
		1,       // one frame
		1, 1, 3, // W, H, three samples
		0x00, 0x00, 0x80, 0x3F, // 1
		0x00, 0x00, 0x00, 0x80, // -0
		0x01, 0x00, 0xC0, 0x7F, // NaN, payload 1
	}
	got, err := fd.AppendBinary(nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("layout %x (err %v), want %x", got, err, want)
	}
	var buf bytes.Buffer
	if err := transport.WriteRecord(&buf, transport.KindFetchData, fd); err != nil {
		t.Fatal(err)
	}
	_, body, err := transport.ReadRecord(&buf)
	if err != nil || !bytes.Equal(body, want) {
		t.Fatalf("record body %x (err %v), want the layout %x", body, err, want)
	}
	var back fetchData
	if err := transport.DecodeRecord(body, &back); err != nil || !sameFetchData(back, fd) {
		t.Fatalf("decoded %+v (err %v), want %+v", back, err, fd)
	}
	sample := sampleFetchData()
	back = fetchData{}
	if err := transport.DecodeRecord(must(sample.AppendBinary(nil)), &back); err != nil || !sameFetchData(back, sample) {
		t.Fatalf("NaN-payload round trip: %+v (err %v), want %+v", back, err, sample)
	}
}

// malformedFetchData are the layouts the decoder must refuse, by name;
// the checked-in FuzzDecodeFetchData corpus holds the same cases.
func malformedFetchData(tb testing.TB) map[string][]byte {
	tb.Helper()
	valid := must(sampleFetchData().AppendBinary(nil))
	head := must(fetchData{Seq: 9, Stream: "cam0"}.AppendBinary(nil))
	head = head[:len(head)-1] // Seq and Stream, without the frame count
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	huge := binary.AppendUvarint(nil, 1<<32)
	return map[string][]byte{
		"empty":              {},
		"truncated-samples":  valid[:len(valid)-1],
		"trailing-byte":      cat(valid, []byte{0}),
		"count-beyond-bytes": cat(head, binary.AppendUvarint(nil, 1<<40), []byte{1, 1, 0}),
		// 3 × 2³² × 2³² wraps a 64-bit int to 0: an empty frame that a
		// multiplying check would take for 2³²×2³².
		"overflowing-dims":     cat(head, []byte{1}, huge, huge, []byte{0}),
		"samples-beyond-bytes": cat(head, []byte{1, 1, 1}, binary.AppendUvarint(nil, 1<<40), make([]byte, 12)),
		"zero-width":           cat(head, []byte{1, 0, 1, 0}),
		"dims-disagree":        cat(head, []byte{1, 2, 1, 3}, make([]byte, 12)),
	}
}

// TestFetchDataLayoutRefusesMalformed: every strict prefix of a
// fetch-data record and every malformed case is an error that leaves
// the target as it was, never a half-filled record.
func TestFetchDataLayoutRefusesMalformed(t *testing.T) {
	valid := must(sampleFetchData().AppendBinary(nil))
	bad := malformedFetchData(t)
	for n := range valid {
		bad[fmt.Sprintf("prefix-%d", n)] = valid[:n]
	}
	for name, b := range bad {
		fd := sampleFetchData()
		if err := transport.DecodeRecord(b, &fd); err == nil {
			t.Fatalf("%s: %x decoded to %+v, want an error", name, b, fd)
		}
		if !sameFetchData(fd, sampleFetchData()) {
			t.Fatalf("%s: refused input changed the record to %+v", name, fd)
		}
	}
}

// FuzzDecodeFetchData feeds arbitrary payloads to the fetch-data
// layout's decoder: nothing panics, a refused input leaves the record
// untouched, an accepted frame's samples always match its dimensions,
// and an accepted record re-encodes to bytes that decode back to the
// same record, bit for bit.
func FuzzDecodeFetchData(f *testing.F) {
	f.Add(must(sampleFetchData().AppendBinary(nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		fd := sampleFetchData()
		if err := transport.DecodeRecord(data, &fd); err != nil {
			if !sameFetchData(fd, sampleFetchData()) {
				t.Fatalf("refused input %x still set fields: %+v", data, fd)
			}
			return
		}
		for _, fr := range fd.Frames {
			if fr.W <= 0 || fr.H <= 0 || len(fr.Pix)/3/fr.W != fr.H || len(fr.Pix) != fr.W*fr.H*3 {
				t.Fatalf("accepted a %dx%d frame with %d samples", fr.W, fr.H, len(fr.Pix))
			}
		}
		again := must(fd.AppendBinary(nil))
		var back fetchData
		if err := transport.DecodeRecord(again, &back); err != nil || !sameFetchData(back, fd) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x and decodes to %+v (err %v)", data, fd, again, back, err)
		}
	})
}

// TestSessionRefusesWrappedFetchFrame: an edge that sends a 2³²×2³²
// fetch frame with no samples — dimensions whose W×H×3 wraps to the
// sample count — ends its session instead of handing the controller
// an image whose Pix disagrees with its dimensions.
func TestSessionRefusesWrappedFetchFrame(t *testing.T) {
	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 10 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()
	f := dialFakeEdge(t, n, "edge-w")
	defer f.conn.Close()
	go func() {
		kind, body, err := transport.ReadRecord(f.conn)
		if err != nil || kind != transport.KindFetchRequest {
			return
		}
		var req FetchRequest
		if transport.DecodeRecord(body, &req) != nil {
			return
		}
		fd := fetchData{Seq: req.Seq, Stream: req.Stream, Frames: []frameData{{W: 1 << 32, H: 1 << 32}}}
		if transport.WriteRecord(f.conn, transport.KindFetchData, fd) != nil {
			return
		}
		_ = transport.WriteRecord(f.conn, transport.KindFetchResponse, FetchResponse{Seq: req.Seq, Stream: req.Stream, Start: 0, End: 1})
	}()
	frames, _, err := ctrl.FetchFrames("edge-w", "cam0", 0, 1, 20_000)
	if err == nil {
		t.Fatalf("fetch accepted %d frame(s), the first %dx%d with %d samples", len(frames), frames[0].W, frames[0].H, len(frames[0].Pix))
	}
}

// parkedArchive is an in-memory core.FrameArchive whose reads
// announce themselves on parked, when it has room, then wait for
// release.
type parkedArchive struct {
	mu      sync.Mutex
	frames  []*vision.Image
	parked  chan struct{}
	release chan struct{}
}

func (p *parkedArchive) Append(img *vision.Image, _ int64) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.frames = append(p.frames, img)
	return len(p.frames) - 1, nil
}

func (p *parkedArchive) ReadInto(start int, dst []*vision.Image) error {
	select {
	case p.parked <- struct{}{}:
	default:
	}
	<-p.release
	p.mu.Lock()
	defer p.mu.Unlock()
	if end := start + len(dst); end > len(p.frames) {
		return fmt.Errorf("range [%d,%d) beyond frame %d", start, end, len(p.frames))
	}
	for i, img := range dst {
		copy(img.Pix, p.frames[start+i].Pix)
	}
	return nil
}

func (p *parkedArchive) NextFrame() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.frames)
}

// fetchRig is a controller and one connected agent with a single
// stream, "cam0", on a simulated network. The stream runs a local MC
// that never matches, on a one-worker pool.
type fetchRig struct {
	ctrl  *Controller
	agent *Agent
	edge  *core.EdgeNode
}

// newFetchRig builds the rig; with a non-nil store the stream archives
// into it, otherwise into an on-disk archive of 10-frame segments under
// a temporary directory. tweak, if any, adjusts the controller's
// configuration.
func newFetchRig(t *testing.T, node string, store core.FrameArchive, tweak ...func(*ControllerConfig)) *fetchRig {
	t.Helper()
	base := testBase()
	cfg := core.Config{
		FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base,
		UploadBitrate: 30_000, ArchiveToDisk: true, ArchiveBitrate: 90_000,
	}
	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := ControllerConfig{Timeout: 20 * time.Second}
	for _, f := range tweak {
		f(&ccfg)
	}
	ctrl := NewController(ccfg)
	ctrl.Serve(ln)
	t.Cleanup(func() { ctrl.Close() })
	acfg := AgentConfig{
		Node: node, Edge: cfg, Heartbeat: 50 * time.Millisecond,
		Dial: func(_, addr string) (net.Conn, error) { return n.Dial(node, addr) },
	}
	if store == nil {
		acfg.ArchiveDir, acfg.ArchiveSegmentFrames = t.TempDir(), 10
	}
	agent, err := NewAgent(acfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { agent.Close() })
	e, err := agent.AddStream("cam0", 48, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	if store != nil {
		if err := e.AttachArchive(store); err != nil {
			t.Fatal(err)
		}
	}
	mc, err := filter.NewMC(filter.Spec{Name: "quiet", Arch: filter.PoolingClassifier, Seed: 5}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(mc, 2); err != nil { // threshold 2: never matches
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	if err := agent.StartScheduler(1); err != nil {
		t.Fatal(err)
	}
	return &fetchRig{ctrl: ctrl, agent: agent, edge: e}
}

// submit feeds frames[lo:hi] to the stream without waiting.
func (r *fetchRig) submit(t *testing.T, frames []*vision.Image, lo, hi int) {
	t.Helper()
	for _, f := range frames[lo:hi] {
		if err := r.agent.Submit("cam0", f); err != nil {
			t.Fatal(err)
		}
	}
}

// checkFetched compares a wire fetch of frames [lo, hi) with a fresh
// re-encode of the originals: same bits, same reconstructions.
func checkFetched(t *testing.T, frames, got []*vision.Image, bits int64, lo, hi int) {
	t.Helper()
	wantBits, want := codec.EncodeSegment(codec.Config{Width: 48, Height: 27, FPS: 15, TargetBitrate: 20_000}, frames[lo:hi])
	if bits != wantBits || len(got) != len(want) {
		t.Fatalf("fetch of [%d,%d): %d bits, %d frames; want %d bits, %d frames", lo, hi, bits, len(got), wantBits, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("fetched frame %d differs from the re-encoded original", lo+i)
		}
	}
}

// TestFetchReadDoesNotStallStream: while a demand fetch's archive read
// is parked, frames submitted to the same stream keep completing; the
// fetch then serves the range it asked for.
func TestFetchReadDoesNotStallStream(t *testing.T) {
	arch := &parkedArchive{parked: make(chan struct{}, 1), release: make(chan struct{})}
	var once sync.Once
	release := func() { once.Do(func() { close(arch.release) }) }
	r := newFetchRig(t, "edge-p", arch)
	t.Cleanup(release) // runs before the rig's cleanups, so Close never waits on a parked read
	frames := renderFrames(40)
	r.submit(t, frames, 0, 20)
	if err := r.agent.Wait(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		frames []*vision.Image
		resp   FetchResponse
		err    error
	}
	fetched := make(chan result, 1)
	go func() {
		got, resp, err := r.ctrl.FetchFrames("edge-p", "cam0", 4, 16, 20_000)
		fetched <- result{got, resp, err}
	}()
	select {
	case <-arch.parked:
	case <-time.After(20 * time.Second):
		t.Fatal("the fetch never reached the archive")
	}

	r.submit(t, frames, 20, 40)
	waited := make(chan error, 1)
	go func() { waited <- r.agent.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("frames submitted while a fetch read was parked did not complete")
	}
	if got := r.edge.Stats().Frames; got != 40 {
		t.Fatalf("stream processed %d frames, want 40", got)
	}
	if st := r.edge.Stats(); st.DemandFetches != 0 {
		t.Fatalf("a parked fetch was already accounted: %d fetches", st.DemandFetches)
	}

	release()
	res := <-fetched
	if res.err != nil {
		t.Fatal(res.err)
	}
	checkFetched(t, frames, res.frames, res.resp.Bits, 4, 16)
	if st := r.edge.Stats(); st.DemandFetches != 1 || st.DemandFetchBits != res.resp.Bits {
		t.Fatalf("fetch accounting: %d fetches of %d bits, want 1 of %d", st.DemandFetches, st.DemandFetchBits, res.resp.Bits)
	}
}

// TestFetchServesJustSubmittedFrame: a fetch issued right after the
// Submit of frame N serves frame N — every frame submitted before the
// request is archived before the fetch reads.
func TestFetchServesJustSubmittedFrame(t *testing.T) {
	r := newFetchRig(t, "edge-s", nil)
	frames := renderFrames(30)
	r.submit(t, frames, 0, 30)
	got, resp, err := r.ctrl.FetchFrames("edge-s", "cam0", 20, 30, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	checkFetched(t, frames, got, resp.Bits, 20, 30)
}
