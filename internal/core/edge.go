// Package core is FilterForward itself: the edge-node pipeline that
// runs one shared base DNN per frame, fans its feature maps out to
// many microclassifiers, smooths their per-frame classifications into
// events, re-encodes matched event segments at a user-configured
// bitrate, and sends them over a bandwidth-constrained uplink to
// datacenter applications (Figure 1 of the paper).
package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vision"
	"repro/internal/walog"
)

// FrameSource supplies original frames by index. dataset.Dataset
// implements it; it also models the edge node's local archive for
// demand-fetch (§3.2: "edge nodes record the original video stream to
// disk so that datacenter applications can demand-fetch additional
// video") when no persistent FrameArchive is attached.
type FrameSource interface {
	Frame(i int) *vision.Image
}

// FrameArchive is the persistent on-disk archive contract
// (internal/archive.Store implements it): the ingest path appends
// every original frame with its codec-model coded size, and
// demand-fetch reads ranges back chunk by chunk. Append is called from
// the pipeline owner goroutine; ReadInto must be internally
// synchronized against it.
type FrameArchive interface {
	// Append stores one full-fidelity frame and its codec-model coded
	// size, returning the stream index it was assigned.
	Append(img *vision.Image, codedBits int64) (int, error)
	// ReadInto reads archived frames [start, start+len(dst)) into dst,
	// images of the stream's frame size that the caller owns, failing
	// for ranges evicted by retention or not yet archived.
	ReadInto(start int, dst []*vision.Image) error
	// NextFrame is the next stream index Append will assign.
	NextFrame() int
}

// Config parameterizes an edge node.
type Config struct {
	// FrameWidth, FrameHeight are the incoming stream dimensions.
	FrameWidth, FrameHeight int
	// FPS is the stream frame rate.
	FPS int
	// Base is the shared feature-extraction DNN.
	Base *mobilenet.Model
	// UploadBitrate is the H.264 target bitrate (bits/s) for
	// re-encoding matched segments. The paper uses 250 kb/s and
	// 500 kb/s at 1080p; scale to the working resolution.
	UploadBitrate float64
	// UplinkBandwidth is the link capacity in bits/s. Zero disables
	// uplink modelling.
	UplinkBandwidth float64
	// SmoothN, SmoothK are the K-of-N voting parameters (§3.5;
	// defaults 5 and 2).
	SmoothN, SmoothK int
	// MaxChunkFrames bounds how many frames of an open event are
	// buffered before a partial segment is encoded and sent
	// (default 48).
	MaxChunkFrames int
	// RetainFrames bounds the original-frame ring buffer
	// (default 256). It must cover classifier lag + smoothing lag +
	// MaxChunkFrames.
	RetainFrames int
	// KeepReconstructions stores decoded uploads in each Upload's
	// Frames for accuracy analysis: read them from the uploads
	// ProcessFrame and Flush return, since a Datacenter does not keep
	// them. Disable for long throughput runs.
	KeepReconstructions bool
	// ArchiveToDisk accounts the bits of continuously archiving the
	// full original stream to local disk at ArchiveBitrate. Disabled
	// by default (costs an extra encode per frame).
	ArchiveToDisk  bool
	ArchiveBitrate float64
	// MCWorkers bounds the goroutine fan-out across deployed MCs in
	// phase 2 of ProcessFrame (0 or 1 runs them serially). Results are
	// identical either way: classification is independent per-MC
	// compute, and event assembly always runs serially in deployment
	// order afterwards, so upload sequences, event IDs, and bit
	// accounting do not depend on this setting.
	MCWorkers int
	// StreamLabel names this stream in traces and metrics (default
	// "stream"). MultiStreamNode.AddStream sets it to the stream name.
	StreamLabel string
	// Obs, when non-nil, receives per-stage latency observations and
	// per-frame pipeline spans from the node. The instrumentation is
	// allocation-free on the steady-state hot path, so it may stay on
	// in production. Streams of one node share an Observer.
	Obs *obs.Observer
}

func (c *Config) fillDefaults() error {
	if c.FrameWidth <= 0 || c.FrameHeight <= 0 {
		return fmt.Errorf("core: bad frame dims %dx%d", c.FrameWidth, c.FrameHeight)
	}
	if c.Base == nil {
		return fmt.Errorf("core: config needs a base DNN")
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
	if c.SmoothN == 0 {
		c.SmoothN = event.DefaultN
	}
	if c.SmoothK == 0 {
		c.SmoothK = event.DefaultK
	}
	if c.MaxChunkFrames <= 0 {
		c.MaxChunkFrames = 48
	}
	if c.RetainFrames <= 0 {
		c.RetainFrames = 256
	}
	if c.UploadBitrate <= 0 {
		c.UploadBitrate = 100_000
	}
	if c.ArchiveToDisk && c.ArchiveBitrate <= 0 {
		c.ArchiveBitrate = 4 * c.UploadBitrate
	}
	if c.StreamLabel == "" {
		c.StreamLabel = "stream"
	}
	return nil
}

// Upload is one coded segment sent to the datacenter.
type Upload struct {
	// MCName identifies which application's microclassifier matched.
	MCName string
	// EventID is the MC-local monotonically increasing event ID: §3.5's
	// per-frame metadata, the event every frame in [Start, End) belongs
	// to for this MC.
	EventID uint64
	// Start, End delimit the frame range [Start, End).
	Start, End int
	// Bits is the coded size.
	Bits int64
	// Delay is the uplink queueing delay in seconds at send time. The
	// wire does not carry it and a Datacenter does not keep it.
	Delay float64
	// Frames holds the decoder-side reconstructions when the edge
	// node is configured with KeepReconstructions. The wire does not
	// carry them and a Datacenter does not keep them.
	Frames []*vision.Image
	// Final marks the last chunk of an event.
	Final bool
}

// Stats aggregates an edge node's counters.
type Stats struct {
	// Frames is the number of frames processed.
	Frames int
	// DecodeTime, BaseDNNTime and MCTime split the pipeline's
	// per-frame execution (Figure 6 reports the latter two).
	// DecodeTime covers frame ingest: converting incoming pixels to
	// the base DNN's input tensor.
	DecodeTime  time.Duration
	BaseDNNTime time.Duration
	MCTime      time.Duration
	// EncodeTime is spent re-encoding video for the uplink: matched
	// event segments and demand-fetched archive ranges.
	EncodeTime time.Duration
	// ArchiveTime is the ingest path's codec-model encode of the
	// continuous local archive (zero when ArchiveToDisk is off).
	ArchiveTime time.Duration
	// MCTimeBy splits MCTime per microclassifier.
	MCTimeBy map[string]time.Duration
	// UploadedBits and UploadedFrames count what was sent.
	UploadedBits   int64
	UploadedFrames int
	// Uploads counts coded segments.
	Uploads int
	// ArchivedBits counts local-disk archive bits (if enabled).
	ArchivedBits int64
	// DemandFetchBits and DemandFetches count demand-fetched archive
	// traffic separately from event-segment uploads: both share the
	// uplink, but only UploadedBits reflects the filtering pipeline's
	// own output.
	DemandFetchBits int64
	DemandFetches   int
	// MaxUplinkDelay is the worst queueing delay seen on the uplink,
	// across both segment uploads and demand fetches.
	MaxUplinkDelay float64
}

// AverageUploadBitrate returns realized uplink usage in bits/s.
func (s *Stats) AverageUploadBitrate(fps int) float64 {
	if s.Frames == 0 {
		return 0
	}
	seconds := float64(s.Frames) / float64(fps)
	return float64(s.UploadedBits) / seconds
}

// mcStep is one MC's phase-2a result slot: the classifications that
// became final this frame and the push latency.
type mcStep struct {
	cls []filter.Classification
	dt  time.Duration
}

// deployedMC is one application's MC with its per-stream state.
type deployedMC struct {
	mc        *filter.MC
	threshold float32
	smoother  *event.Smoother
	detector  *event.Detector

	// sketch accumulates the MC's score distribution since deploy —
	// the semantic signal heartbeats carry for fleet drift detection.
	// Always on: a sketch is a few hundred bytes and recording is
	// allocation-free, so observer-less nodes still report one.
	sketch *obs.ScoreSketch

	// offset maps the MC's local frame counter (0 when the slot went
	// live) to stream frame indices; non-zero for mid-stream
	// deployments.
	offset int

	// open event segment assembly.
	openID    uint64
	segStart  int
	segFrames int
}

// EdgeNode is a FilterForward edge instance bound to one camera
// stream.
//
// Concurrency: an EdgeNode's pipeline (ProcessFrame, Flush, Deploy,
// Undeploy, AccountFetch) is single-owner — exactly one goroutine may
// drive it at a time (the Scheduler serializes this per stream). The
// observer methods Stats and MCNames, and a demand fetch's ReadFetch,
// are safe to call from any goroutine while the pipeline is running:
// mu guards the state the observers read against the owner's writes,
// and ReadFetch touches no pipeline state.
type EdgeNode struct {
	cfg Config
	mcs []*deployedMC

	// ext is this node's private handle onto the shared base DNN's
	// frozen inference fast path: a per-stream workspace arena keeps
	// steady-state extraction allocation-free, while the Model itself
	// (weights, compiled programs) stays shared across all streams.
	// Owned by the pipeline goroutine.
	ext *mobilenet.Extractor
	// stages caches the distinct tapped stages of the deployed MCs,
	// rebuilt on deploy/undeploy so ProcessFrame does not recompute the
	// union per frame. Owned by the pipeline goroutine.
	stages []string

	uplink  *tokenBucket
	archive *codec.Encoder
	store   FrameArchive // persistent archive; nil = accounting-only

	// segEnc re-encodes every uploaded segment, restarted for each
	// (built on first use), and segImgs is closeSegment's list of the
	// segment's frames. Owned by the pipeline goroutine.
	segEnc  *codec.Encoder
	segImgs []*vision.Image

	// fetchEnc re-encodes demand fetches the same way, off the
	// pipeline, one chunk at a time: fetchOrig holds a chunk of
	// originals read from the archive, fetchSrc one taken from a live
	// source, and fetchRecon a chunk of reconstructions. The images are
	// kept from chunk to chunk and fetch to fetch. ReadFetch holds
	// fetchMu while it uses them.
	fetchMu    sync.Mutex
	fetchEnc   *codec.Encoder
	fetchOrig  []*vision.Image
	fetchSrc   []*vision.Image
	fetchRecon []*vision.Image

	// frames is the retained-originals ring: frame f lives at
	// frames[f%len(frames)], sized RetainFrames+1 so the window
	// [nextFrame-RetainFrames, nextFrame] fits without collisions. A
	// fixed slice (rather than a map) keeps steady-state retention
	// allocation-free.
	frames     []*vision.Image
	oldestKept int
	nextFrame  int

	// Hot-path arenas, owned by the pipeline goroutine: xbuf is the
	// ingest tensor ToTensorInto fills each frame; steps is phase 2a's
	// result slots, one per MC; curMaps points at the extractor's
	// feature maps for the frame in flight; mcRun is the prebuilt
	// fan-out body (building the closure per frame would allocate).
	xbuf    *tensor.Tensor
	steps   []mcStep
	curMaps map[string]*tensor.Tensor
	mcRun   func(int)

	// obs is the node's observability sink (nil disables); sid is the
	// stream's interned trace ID.
	obs *obs.Observer
	sid uint32

	// mu guards externally observable state (stats, mcs) between
	// the pipeline owner and concurrent observers. All writes happen on
	// the owner's goroutine; observers lock to read, and the owner
	// locks only around writes (its own unlocked reads cannot race —
	// nothing else writes).
	mu    sync.Mutex
	stats Stats
}

// NewEdgeNode constructs an edge node.
func NewEdgeNode(cfg Config) (*EdgeNode, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	e := &EdgeNode{
		cfg:    cfg,
		frames: make([]*vision.Image, cfg.RetainFrames+1),
		ext:    cfg.Base.NewExtractor(),
		xbuf:   tensor.New(1, cfg.FrameHeight, cfg.FrameWidth, 3),
		obs:    cfg.Obs,
	}
	e.stats.MCTimeBy = make(map[string]time.Duration)
	if e.obs != nil {
		e.sid = e.obs.Trace.StreamID(cfg.StreamLabel)
	}
	e.mcRun = func(i int) {
		d := e.mcs[i]
		t1 := time.Now()
		cls := d.mc.Push(e.curMaps[d.mc.Stage()])
		e.steps[i] = mcStep{cls: cls, dt: time.Since(t1)}
	}
	if cfg.UplinkBandwidth > 0 {
		e.uplink = newTokenBucket(cfg.UplinkBandwidth, cfg.UplinkBandwidth) // 1 s burst
	}
	if cfg.ArchiveToDisk {
		e.archive = codec.NewEncoder(codec.Config{
			Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS,
			TargetBitrate: cfg.ArchiveBitrate,
		})
	}
	return e, nil
}

// Deploy installs a microclassifier with a decision threshold at any
// frame boundary, before the first frame or while the stream runs (the
// §3.2 remote deployment hook the fleet agent uses). It checks the
// feature map, resets mc's streaming state, and gives it a slot from
// the next frame on: fresh smoothing and event state whose frame 0 is
// that stream frame, so its event frame ranges are reported in stream
// coordinates, the node's push-latency sinks, and a fresh per-slot
// score sketch (Push and Flush do the recording) that also feeds the
// node aggregate.
func (e *EdgeNode) Deploy(mc *filter.MC, threshold float32) error {
	name := mc.Spec().Name
	if indexOf(e.mcs, name) >= 0 {
		return fmt.Errorf("core: duplicate MC name %q", name)
	}
	shape := mc.FeatureMapShape()
	if shape[1] <= 0 || shape[2] <= 0 {
		return fmt.Errorf("core: MC %q has empty feature map", name)
	}
	mc.Reset()
	d := &deployedMC{
		mc: mc, threshold: threshold, sketch: &obs.ScoreSketch{}, offset: e.nextFrame,
		smoother: event.NewSmoother(e.cfg.SmoothN, e.cfg.SmoothK),
		detector: event.NewDetector(),
	}
	var agg *obs.ScoreSketch
	if e.obs != nil {
		mc.Instrument(e.obs.Trace, e.obs.MCPush, e.sid, e.nextFrame)
		agg = e.obs.Scores
	}
	mc.InstrumentScores(d.sketch, agg, float64(threshold))
	e.mu.Lock()
	e.mcs = append(e.mcs, d)
	e.mu.Unlock()
	e.reslot()
	return nil
}

// Undeploy removes a deployed microclassifier by name, draining its
// classifier and smoother tails and closing any open event. The final
// uploads (if any) are returned so they still reach the datacenter.
func (e *EdgeNode) Undeploy(name string) ([]Upload, error) {
	i := indexOf(e.mcs, name)
	if i < 0 {
		return nil, fmt.Errorf("core: no deployed MC named %q", name)
	}
	ups, err := e.flushMC(e.mcs[i])
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.mcs = slices.Delete(e.mcs, i, i+1)
	e.mu.Unlock()
	e.reslot()
	return ups, nil
}

// indexOf returns the position of the slot running the named MC, -1
// when absent.
func indexOf(slots []*deployedMC, name string) int {
	return slices.IndexFunc(slots, func(d *deployedMC) bool { return d.mc.Spec().Name == name })
}

// byName maps every deployed MC's name to f of its slot, nil when
// there is none. It reads the list under mu, so the accessors built on
// it are safe to call while another goroutine owns the pipeline: the
// fields they read are set before a slot is published, and sketch
// counters are atomic.
func byName[T any](e *EdgeNode, f func(*deployedMC) T) map[string]T {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.mcs) == 0 {
		return nil
	}
	out := make(map[string]T, len(e.mcs))
	for _, d := range e.mcs {
		out[d.mc.Spec().Name] = f(d)
	}
	return out
}

// MCNames returns deployed MC names in deployment order. Safe to call
// while another goroutine owns the pipeline.
func (e *EdgeNode) MCNames() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.mcs))
	for i, d := range e.mcs {
		out[i] = d.mc.Spec().Name
	}
	return out
}

// MC returns the deployed microclassifier with the given name, nil
// when absent. The returned MC is live pipeline state: inspect it
// only while the pipeline is quiescent (e.g. after a flush), never
// concurrently with frame processing.
func (e *EdgeNode) MC(name string) *filter.MC {
	e.mu.Lock()
	defer e.mu.Unlock()
	if i := indexOf(e.mcs, name); i >= 0 {
		return e.mcs[i].mc
	}
	return nil
}

// ScoreSketches returns a snapshot of every deployed MC's cumulative
// score sketch since deploy, keyed by MC name — what the fleet agent
// folds into heartbeats. Safe to call while another goroutine owns the
// pipeline.
func (e *EdgeNode) ScoreSketches() map[string]obs.SketchSnapshot {
	return byName(e, func(d *deployedMC) obs.SketchSnapshot { return d.sketch.Snapshot() })
}

// MCVersions returns the deployed MCs' model versions keyed by name
// (zero for unversioned artifacts). Safe to call while another
// goroutine owns the pipeline.
func (e *EdgeNode) MCVersions() map[string]uint64 {
	return byName(e, func(d *deployedMC) uint64 { return d.mc.Spec().Version })
}

// Stats returns a snapshot of the node's counters. Safe to call while
// another goroutine owns the pipeline.
func (e *EdgeNode) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.MCTimeBy = make(map[string]time.Duration, len(e.stats.MCTimeBy))
	for k, v := range e.stats.MCTimeBy {
		s.MCTimeBy[k] = v
	}
	return s
}

// Config returns a copy of the node's configuration (defaults filled).
func (e *EdgeNode) Config() Config { return e.cfg }

// AttachArchive connects a persistent frame archive to the ingest
// path: every processed frame is appended to it (alongside the
// codec-model ArchivedBits accounting), and ReadFetch serves
// demand-fetch ranges from it instead of the live source. The node
// must be configured with ArchiveToDisk (the codec model supplies the
// per-frame coded sizes), and the archive's next index must line up
// with the stream position — attach before the first frame, or an
// archive that already holds exactly this stream's prefix.
func (e *EdgeNode) AttachArchive(store FrameArchive) error {
	if store == nil {
		return fmt.Errorf("core: nil archive")
	}
	if !e.cfg.ArchiveToDisk {
		return fmt.Errorf("core: attach archive needs Config.ArchiveToDisk")
	}
	if got := store.NextFrame(); got != e.nextFrame {
		return fmt.Errorf("core: archive resumes at frame %d, stream is at %d", got, e.nextFrame)
	}
	e.store = store
	return nil
}

// Fetch is a demand fetch between its two halves: what ReadFetch read
// and re-encoded, for AccountFetch to charge to the node.
type Fetch struct {
	// Bits is the coded size of the re-encoded range.
	Bits int64

	start int
	at    time.Time     // when the re-encode started
	took  time.Duration // how long it ran, the archive reads and emit excluded
}

// FetchChunkFrames is how many frames of a w×h stream one chunk of a
// demand fetch holds: as many as fit walog.ChunkBytes of samples, and
// at least one. A chunk's reconstructions then travel as one wire
// record that every buffer the wire keeps can hold, unless a single
// frame is already larger.
func FetchChunkFrames(w, h int) int {
	return max(1, walog.ChunkBytes/(w*h*3*4))
}

// ReadFetch is the first half of a demand fetch (§3.2: "edge nodes
// record the original video stream to disk"), the half that touches no
// pipeline state: it reads frames [start, end) from the persistent
// archive (AttachArchive), or from the live source src without one,
// and re-encodes them at bitrate as one independent segment on the
// node's fetch encoder. The archive stores the full-fidelity
// originals, so both sources give byte-identical reconstructions and
// bit counts, and they are those of one codec.EncodeSegment over the
// range.
//
// The range streams through in chunks of FetchChunkFrames: a chunk of
// originals is read, coded, and its reconstructions handed to emit
// before the next chunk is read, so the node holds one chunk of each
// whatever the range. The images emit receives belong to ReadFetch and
// are overwritten by the next chunk: emit sends or copies what it
// keeps before it returns. An emit error ends the fetch and is
// returned as is. emit runs under the node's fetch lock, since the
// encoder's state runs on from chunk to chunk, so it must not start
// another fetch on this node. With a nil emit the fetch only counts
// bits: no reconstruction is built.
//
// Any goroutine may call it while the owner processes frames; fetches
// serialize among themselves. It sees only frames the owner has
// already archived, so a caller that must serve frame N barriers on
// the owner after N's submission first (Scheduler.Do). Nothing is
// charged to the node until the owner runs AccountFetch.
func (e *EdgeNode) ReadFetch(src FrameSource, start, end int, bitrate float64, emit func(recons []*vision.Image) error) (Fetch, error) {
	if start < 0 || end <= start {
		return Fetch{}, fmt.Errorf("core: bad demand-fetch range [%d,%d)", start, end)
	}
	if e.store == nil && src == nil {
		return Fetch{}, fmt.Errorf("core: no archive source")
	}
	e.fetchMu.Lock()
	defer e.fetchMu.Unlock()
	defer clear(e.fetchSrc) // hold no live frame past the fetch
	chunk := FetchChunkFrames(e.cfg.FrameWidth, e.cfg.FrameHeight)
	e.restartEncoder(&e.fetchEnc, bitrate)
	f := Fetch{start: start}
	for lo := start; lo < end; lo += chunk {
		frames, err := e.fetchChunk(src, lo, min(chunk, end-lo))
		if err != nil {
			return Fetch{}, fmt.Errorf("core: demand-fetch: %w", err)
		}
		t0 := time.Now()
		if lo == start {
			f.at = t0
		}
		if emit == nil {
			for _, img := range frames {
				e.fetchEnc.EncodeBits(img)
			}
			f.took += time.Since(t0)
			continue
		}
		recons := e.frameBufs(&e.fetchRecon, len(frames))
		for i, img := range frames {
			e.fetchEnc.EncodeInto(img, recons[i])
		}
		f.took += time.Since(t0)
		if err := emit(recons); err != nil {
			return Fetch{}, err
		}
	}
	f.Bits = e.fetchEnc.TotalBits()
	return f, nil
}

// fetchChunk returns the n originals from frame lo on: read from the
// archive into fetchOrig's images, or taken from the live source.
// Callers hold fetchMu.
func (e *EdgeNode) fetchChunk(src FrameSource, lo, n int) ([]*vision.Image, error) {
	if e.store != nil {
		frames := e.frameBufs(&e.fetchOrig, n)
		return frames, e.store.ReadInto(lo, frames)
	}
	frames := e.fetchSrc[:0]
	for f := lo; f < lo+n; f++ {
		frames = append(frames, src.Frame(f))
	}
	e.fetchSrc = frames
	return frames, nil
}

// frameBufs returns n images of the stream's frame size from *buf,
// allocating only those it has never held.
func (e *EdgeNode) frameBufs(buf *[]*vision.Image, n int) []*vision.Image {
	for len(*buf) < n {
		*buf = append(*buf, vision.NewImage(e.cfg.FrameWidth, e.cfg.FrameHeight))
	}
	return (*buf)[:n]
}

// AccountFetch is the owner's half of a demand fetch: it sends f's bits
// on the uplink and adds the fetch to the node's stats and observer.
// The fleet agent and an in-process caller run the same two halves, so
// their accounting is identical by construction.
func (e *EdgeNode) AccountFetch(f Fetch) {
	if e.obs != nil {
		e.obs.Fetch.Observe(f.took)
		e.obs.Trace.Record(obs.StageFetch, e.sid, int64(f.start), f.at, f.took)
	}
	var delay float64
	if e.uplink != nil {
		delay = e.uplink.send(f.Bits)
	}
	e.mu.Lock()
	e.stats.EncodeTime += f.took
	e.stats.DemandFetchBits += f.Bits
	e.stats.DemandFetches++
	if delay > e.stats.MaxUplinkDelay {
		e.stats.MaxUplinkDelay = delay
	}
	e.mu.Unlock()
}

// ProcessFrame pushes the next frame of the stream through the
// pipeline and returns any uploads that became ready. Execution is
// phased, not pipelined: the base DNN runs to completion, then every
// MC consumes the shared feature maps (§4.4). With Config.MCWorkers
// > 1 the MC classifications run concurrently across a goroutine
// fan-out; event assembly still runs serially in deployment order, so
// results are identical to the serial schedule.
func (e *EdgeNode) ProcessFrame(img *vision.Image) ([]Upload, error) {
	if len(e.mcs) == 0 {
		return nil, fmt.Errorf("core: no microclassifiers deployed")
	}
	if img.W != e.cfg.FrameWidth || img.H != e.cfg.FrameHeight {
		return nil, fmt.Errorf("core: frame %dx%d does not match stream %dx%d", img.W, img.H, e.cfg.FrameWidth, e.cfg.FrameHeight)
	}
	o := e.obs
	var tFrame time.Time
	if o != nil {
		tFrame = time.Now()
	}
	idx := e.nextFrame
	e.nextFrame++
	e.retain(idx, img)
	if e.uplink != nil {
		e.uplink.advance(1 / float64(e.cfg.FPS))
	}
	var archivedBits int64
	var archiveTime time.Duration
	if e.archive != nil {
		ta := time.Now()
		archivedBits = e.archive.EncodeBits(img).Bits
		archiveTime = time.Since(ta)
		if o != nil {
			o.ArchiveEncode.Observe(archiveTime)
			o.Trace.Record(obs.StageArchiveEncode, e.sid, int64(idx), ta, archiveTime)
		}
	}

	// Frame ingest: decode the incoming pixels into the base DNN's
	// input tensor (an arena, reused every frame). The frame counts as
	// ingested from here on — even if a later phase errors,
	// nextFrame/retention/uplink state has advanced, so Frames must
	// agree.
	td := time.Now()
	x := img.ToTensorInto(e.xbuf)
	decodeTime := time.Since(td)
	e.mu.Lock()
	e.stats.Frames++
	e.stats.ArchivedBits += archivedBits
	e.stats.ArchiveTime += archiveTime
	e.stats.DecodeTime += decodeTime
	e.mu.Unlock()
	if o != nil {
		o.Frames.Inc()
		o.Decode.Observe(decodeTime)
		o.Trace.Record(obs.StageDecode, e.sid, int64(idx), td, decodeTime)
	}

	// Persist the original frame to the attached archive (the write
	// lands asynchronously; demand-fetch reads barrier on the writer).
	if e.store != nil {
		if _, err := e.store.Append(img, archivedBits); err != nil {
			return nil, fmt.Errorf("core: archive frame %d: %w", idx, err)
		}
	}

	// Phase 1: the shared base DNN, run once for the union of stages on
	// this node's frozen fast path. The returned map and tensors are
	// the extractor's arena, reused next frame — phase 2 consumes them
	// within this frame (windowed MCs copy what they buffer).
	t0 := time.Now()
	maps, err := e.ext.ExtractMulti(x, e.stages)
	if err != nil {
		return nil, err
	}
	baseTime := time.Since(t0)
	if o != nil {
		o.Extract.Observe(baseTime)
		o.Trace.Record(obs.StageExtract, e.sid, int64(idx), t0, baseTime)
	}

	// Phase 2a: every MC consumes the shared maps. Each MC is pure
	// independent compute here (its streaming state is touched only by
	// its own Push), so the fan-out is deterministic; per-MC timing is
	// written to a private slot and aggregated after the join. The
	// fan-out body and result slots are node fields: rebuilding them
	// per frame would allocate.
	e.curMaps = maps
	nn.ForEach(len(e.steps), e.cfg.MCWorkers, e.mcRun)
	e.curMaps = nil

	e.mu.Lock()
	e.stats.BaseDNNTime += baseTime
	for i, d := range e.mcs {
		e.stats.MCTime += e.steps[i].dt
		e.stats.MCTimeBy[d.mc.Spec().Name] += e.steps[i].dt
	}
	e.mu.Unlock()

	// Phase 2b: smoothing, event assembly, and segment encoding run
	// serially in deployment order — they share the uplink and the
	// segment encoder, and their ordering defines bit accounting.
	var uploads []Upload
	for i, d := range e.mcs {
		for _, c := range e.steps[i].cls {
			ups, err := e.observe(d, c)
			if err != nil {
				return nil, err
			}
			uploads = append(uploads, ups...)
		}
	}
	e.evict()
	if o != nil {
		o.Trace.RecordFrame(e.sid, int64(idx), tFrame, time.Since(tFrame))
		o.Frame.Observe(time.Since(tFrame))
	}
	return uploads, nil
}

// Flush drains classifier and smoother tails and closes all open
// events, returning the final uploads.
func (e *EdgeNode) Flush() ([]Upload, error) {
	var uploads []Upload
	for _, d := range e.mcs {
		ups, err := e.flushMC(d)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	return uploads, nil
}

// flushMC drains one deployed MC's classifier and smoother tails and
// closes its open event, if any.
func (e *EdgeNode) flushMC(d *deployedMC) ([]Upload, error) {
	var uploads []Upload
	for _, c := range d.mc.Flush() {
		ups, err := e.observe(d, c)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	for _, dec := range d.smoother.Flush() {
		ups, err := e.decide(d, dec)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	if d.openID != 0 {
		up, err := e.closeSegment(d, e.nextFrame, true)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, up)
	}
	return uploads, nil
}

// observe feeds one raw classification into smoothing and event
// assembly.
func (e *EdgeNode) observe(d *deployedMC, c filter.Classification) ([]Upload, error) {
	var uploads []Upload
	for _, dec := range d.smoother.Push(c.Prob >= d.threshold) {
		ups, err := e.decide(d, dec)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, ups...)
	}
	return uploads, nil
}

// decide handles one smoothed frame decision: transition detection,
// segment assembly, and chunked upload. Decision frames are
// in the MC's local counting; d.offset maps them to stream indices.
func (e *EdgeNode) decide(d *deployedMC, dec event.Decision) ([]Upload, error) {
	frame := d.offset + dec.Frame
	id, started := d.detector.Observe(dec.Positive)
	var uploads []Upload
	if !dec.Positive {
		if d.openID != 0 {
			up, err := e.closeSegment(d, frame, true)
			if err != nil {
				return nil, err
			}
			uploads = append(uploads, up)
		}
		return uploads, nil
	}
	if started {
		d.openID = id
		d.segStart = frame
		d.segFrames = 0
	}
	d.segFrames++
	if d.segFrames >= e.cfg.MaxChunkFrames {
		up, err := e.closeSegment(d, frame+1, false)
		if err != nil {
			return nil, err
		}
		uploads = append(uploads, up)
		// Continue the same event in a fresh chunk.
		d.openID = id
		d.segStart = frame + 1
		d.segFrames = 0
	}
	return uploads, nil
}

// closeSegment re-encodes the open segment [segStart, end) at the
// upload bitrate and sends it over the uplink.
func (e *EdgeNode) closeSegment(d *deployedMC, end int, final bool) (Upload, error) {
	start := d.segStart
	id := d.openID
	d.openID = 0
	if end <= start {
		return Upload{MCName: d.mc.Spec().Name, EventID: id, Start: start, End: start, Final: final}, nil
	}
	frames := e.segImgs[:0]
	defer func() { clear(frames) }() // hold no frame past its eviction
	for f := start; f < end; f++ {
		img := e.retained(f)
		if img == nil {
			return Upload{}, fmt.Errorf("core: frame %d evicted before upload (increase RetainFrames)", f)
		}
		frames = append(frames, img)
	}
	e.segImgs = frames
	up := Upload{MCName: d.mc.Spec().Name, EventID: id, Start: start, End: end, Final: final}
	t0 := time.Now()
	up.Bits, up.Frames = e.encodeSegment(&e.segEnc, e.cfg.UploadBitrate, frames, e.cfg.KeepReconstructions)
	encodeTime := time.Since(t0)
	if e.obs != nil {
		e.obs.Encode.Observe(encodeTime)
		e.obs.Trace.Record(obs.StageEncode, e.sid, int64(start), t0, encodeTime)
	}
	if e.uplink != nil {
		up.Delay = e.uplink.send(up.Bits)
	}
	e.mu.Lock()
	e.stats.EncodeTime += encodeTime
	if up.Delay > e.stats.MaxUplinkDelay {
		e.stats.MaxUplinkDelay = up.Delay
	}
	e.stats.UploadedBits += up.Bits
	e.stats.UploadedFrames += end - start
	e.stats.Uploads++
	e.mu.Unlock()
	return up, nil
}

// encodeSegment codes frames as one independent segment at bitrate on
// *enc (built on first use, restarted after), exactly as
// codec.EncodeSegment (keep) or codec.SegmentBits would, and returns
// the bits and, when keep is set, the reconstructions.
func (e *EdgeNode) encodeSegment(enc **codec.Encoder, bitrate float64, frames []*vision.Image, keep bool) (int64, []*vision.Image) {
	e.restartEncoder(enc, bitrate)
	var recons []*vision.Image
	if keep {
		recons = make([]*vision.Image, len(frames))
	}
	for i, f := range frames {
		if keep {
			recons[i] = (*enc).Encode(f).Recon
		} else {
			(*enc).EncodeBits(f)
		}
	}
	return (*enc).TotalBits(), recons
}

// restartEncoder readies *enc to code a new independent segment at
// bitrate, building it on first use.
func (e *EdgeNode) restartEncoder(enc **codec.Encoder, bitrate float64) {
	cfg := codec.Config{
		Width: e.cfg.FrameWidth, Height: e.cfg.FrameHeight, FPS: e.cfg.FPS,
		TargetBitrate: bitrate,
	}
	if *enc == nil {
		*enc = codec.NewEncoder(cfg)
	} else {
		(*enc).Restart(cfg)
	}
}

// reslot rebuilds what follows the slot list after a deploy or
// undeploy: the distinct base-DNN stages the MCs tap, and phase 2a's
// result slots.
func (e *EdgeNode) reslot() {
	e.stages = e.stages[:0]
	for _, d := range e.mcs {
		if !slices.Contains(e.stages, d.mc.Stage()) {
			e.stages = append(e.stages, d.mc.Stage())
		}
	}
	e.steps = make([]mcStep, len(e.mcs))
}

// retain stores an original frame in the ring buffer.
func (e *EdgeNode) retain(idx int, img *vision.Image) {
	e.frames[idx%len(e.frames)] = img
}

// retained returns the ring's copy of frame f, nil when it has aged
// out (or was never stored).
func (e *EdgeNode) retained(f int) *vision.Image {
	if f < e.oldestKept || f >= e.nextFrame {
		return nil
	}
	return e.frames[f%len(e.frames)]
}

// evict drops frames that have fallen out of the retention window —
// the ring is bounded by RetainFrames, so arbitrarily long runs hold
// constant memory.
func (e *EdgeNode) evict() {
	for e.oldestKept < e.nextFrame-e.cfg.RetainFrames {
		e.frames[e.oldestKept%len(e.frames)] = nil
		e.oldestKept++
	}
}
