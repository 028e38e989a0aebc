package fleet

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vision"
)

// defaultHeartbeat is the agent's stats-reporting interval.
const defaultHeartbeat = 2 * time.Second

// Connection-loop defaults: exponential backoff with jitter between
// these bounds, and a per-record write deadline so a stalled uplink
// surfaces as a dead connection instead of a hung writer.
const (
	defaultReconnectMin = 50 * time.Millisecond
	defaultReconnectMax = 5 * time.Second
	defaultWriteTimeout = 10 * time.Second
)

// maxPending caps the unacked-upload resend log: an outage that
// overflows it drops the oldest uploads, counted by PendingUploads.
const maxPending = 4096

// AgentConfig parameterizes an edge agent.
type AgentConfig struct {
	// Node is the edge node's name, announced in the session hello.
	Node string
	// Edge supplies the shared pipeline defaults (base DNN, bitrates,
	// smoothing) for every stream, as core.MultiStreamNode does.
	Edge core.Config
	// Heartbeat is the stats-reporting interval (2 s when zero;
	// negative disables heartbeats).
	Heartbeat time.Duration
	// ReconnectMin and ReconnectMax bound the connection loop's
	// backoff between redials (50 ms and 5 s when zero).
	ReconnectMin, ReconnectMax time.Duration
	// ReconnectSeed seeds the backoff jitter, so tests replay
	// deterministically.
	ReconnectSeed int64
	// WriteTimeout bounds each record the connection's writer sends
	// and the handshake round trip (10 s when zero;
	// negative disables). A timed-out write marks the connection dead.
	// Frames never wait on a write, so they never wait on this.
	WriteTimeout time.Duration
	// Dial overrides the dialer used by Connect and the connection
	// loop (net.Dial when nil) — the hook internal/simnet tests plug
	// a fault-injecting network into.
	Dial func(network, addr string) (net.Conn, error)
	// ArchiveDir, when set together with Edge.ArchiveToDisk, gives
	// every stream a persistent on-disk archive under
	// ArchiveDir/<stream>: ingest appends each original frame, and
	// demand-fetch serves from disk instead of the stream's live
	// FrameSource.
	ArchiveDir string
	// ArchiveBudget bounds each stream's archive in bytes (oldest
	// segments evicted first; 0 = unbounded).
	ArchiveBudget int64
	// ArchiveSegmentFrames overrides the archive segment length
	// (default 10 s of frames).
	ArchiveSegmentFrames int
}

// Agent is the edge side of the fleet control plane. It wraps a
// core.MultiStreamNode, connects to a controller, and serves the
// datacenter's deploy/undeploy/demand-fetch requests while the local
// frame loop feeds frames in.
//
// One runtime drives the pipeline: a core.Scheduler worker pool that
// runs each stream on at most one worker at a time. Frames — waited
// for with ProcessFrame, or queued with Submit — and every control
// request go through the stream's scheduler queue, so they apply in
// arrival order per stream, identically to a sequential loop. The pool
// starts with one worker on first use; StartScheduler resizes it.
//
// Once it has held a session the agent always resumes: one connection
// loop redials after every loss and sends a resume hello. Uploads
// carry sequence numbers and stay in the resend log until the
// controller acks them, so each new connection retransmits the unacked
// tail and the controller deduplicates — exactly-once upload
// accounting across arbitrary disconnects.
//
// After the handshake one writer goroutine per connection is the only
// code that writes to it: workers, ProcessFrame and Flush append
// uploads to the resend log and wake it, and control requests hand it
// their framed replies. The code follows three seams: the connection
// lifecycle and its writer (agent_conn.go), the resend log
// (agent_resend.go) and the control request handlers
// (agent_handlers.go).
type Agent struct {
	cfg  AgentConfig
	node *core.MultiStreamNode

	// mu guards the agent's own bookkeeping: the stream records and
	// the worker pool. Pipeline state belongs to the pool, and no pool
	// work takes mu. mu nests outside sessMu: a pool drain holds mu
	// while its workers append to the resend log under sessMu.
	mu      sync.Mutex
	sched   *core.Scheduler
	streams []*agentStream // in AddStream order

	// sessMu guards the session state and the resend log.
	sessMu     sync.Mutex
	link       *link // the live session's connection and writer; nil between sessions
	log        resendLog
	started    bool // Connect started the connection loop
	everOnline bool // a session existed: hellos resume and uploads buffer
	closed     bool
	sessionID  uint64
	lastGen    uint64
	reconnects int
	shard      int // the owning shard announced by the most recent welcome

	wake chan struct{} // one token: the resend log has records to offer
	stop chan struct{} // closed by Close: ends the backoff
	wg   sync.WaitGroup

	// ctlBuf is the buffer the control loop's handlers frame their
	// records into (reply), and fetchRec the record a demand fetch
	// fills chunk after chunk: both are reused from record to record.
	// Owned by the connection loop's goroutine, which runs one
	// session's control loop at a time.
	ctlBuf   []byte
	fetchRec fetchData
}

// agentStream is what the agent keeps per camera stream.
type agentStream struct {
	info StreamInfo
	// src is the FrameSource demand-fetch falls back to without a
	// persistent archive (nil: none); store is that archive.
	src   core.FrameSource
	store *archive.Store
	// managed holds the remote-deployed MC names — the deployment
	// inventory announced in resume hellos, which reconciliation diffs
	// against controller intent. Locally deployed MCs are deliberately
	// absent: the controller must never undeploy what it didn't ship.
	managed map[string]bool
}

// NewAgent constructs an agent. The pipeline starts empty; add camera
// streams with AddStream, then Connect to a controller.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Node == "" {
		return nil, errors.New("fleet: agent needs a node name")
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = defaultHeartbeat
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = defaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = defaultReconnectMax
	}
	cfg.ReconnectMax = max(cfg.ReconnectMax, cfg.ReconnectMin)
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.Dial == nil {
		// A plain net.Dial to a blackholed host blocks for the OS
		// connect timeout (minutes) and cannot be interrupted, wedging
		// Close mid-outage; bound it like every other I/O step.
		dialTimeout := cfg.WriteTimeout
		if dialTimeout <= 0 {
			dialTimeout = defaultWriteTimeout
		}
		cfg.Dial = (&net.Dialer{Timeout: dialTimeout}).Dial
	}
	n, err := core.NewMultiStreamNode(cfg.Edge)
	if err != nil {
		return nil, err
	}
	return &Agent{
		cfg:  cfg,
		node: n,
		log:  resendLog{max: maxPending},
		wake: make(chan struct{}, 1),
		stop: make(chan struct{}),
	}, nil
}

// Node returns the wrapped multi-stream pipeline for local deployment
// and inspection.
func (a *Agent) Node() *core.MultiStreamNode { return a.node }

// AddStream registers a camera stream with its local archive source
// (the FrameSource demand-fetch falls back to when no persistent
// archive is configured; nil disables the fallback) and returns the
// stream's pipeline so the caller can deploy local MCs. When the
// agent is configured with ArchiveDir and Edge.ArchiveToDisk, the
// stream also gets a persistent on-disk archive at ArchiveDir/<name>
// (recovered if it already exists): ingest appends every original
// frame and demand-fetch serves from disk. Streams must be added
// before Connect so the hello inventory is complete, and before the
// worker pool starts (the first frame or control request) so the pool
// covers them. Local MCs go on the returned pipeline before that too.
func (a *Agent) AddStream(name string, frameW, frameH int, src core.FrameSource) (*core.EdgeNode, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, err := a.node.AddStream(name, frameW, frameH)
	if err != nil {
		return nil, err
	}
	cfg := e.Config()
	s := &agentStream{
		info:    StreamInfo{Name: name, Width: frameW, Height: frameH, FPS: cfg.FPS},
		src:     src,
		managed: make(map[string]bool),
	}
	if a.cfg.ArchiveDir != "" && cfg.ArchiveToDisk {
		acfg := archive.Config{
			Dir:           filepath.Join(a.cfg.ArchiveDir, name),
			Width:         frameW,
			Height:        frameH,
			FPS:           cfg.FPS,
			SegmentFrames: a.cfg.ArchiveSegmentFrames,
			Budget:        a.cfg.ArchiveBudget,
		}
		st, err := archive.Open(acfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: stream %q archive: %w", name, err)
		}
		if st.NextFrame() != 0 {
			// A previous session's recording: its frame indices
			// cannot line up with this fresh stream (which restarts
			// at 0), so the recording session restarts too — the
			// retention policy would reclaim the old segments anyway.
			st.Close()
			if err := os.RemoveAll(acfg.Dir); err != nil {
				return nil, fmt.Errorf("fleet: stream %q archive restart: %w", name, err)
			}
			if st, err = archive.Open(acfg); err != nil {
				return nil, fmt.Errorf("fleet: stream %q archive: %w", name, err)
			}
		}
		if err := e.AttachArchive(st); err != nil {
			st.Close()
			return nil, fmt.Errorf("fleet: stream %q archive: %w", name, err)
		}
		if o := a.cfg.Edge.Obs; o != nil {
			st.Instrument(o.Trace, o.ArchiveAppend, o.Trace.StreamID(name))
		}
		s.store = st
	}
	a.streams = append(a.streams, s)
	return e, nil
}

// stream returns the named stream's record, nil if there is none.
// Callers hold a.mu.
func (a *Agent) stream(name string) *agentStream {
	for _, s := range a.streams {
		if s.info.Name == name {
			return s
		}
	}
	return nil
}

// ArchiveStats returns the named stream's persistent-archive counters
// and whether the stream has an on-disk archive at all. It barriers on
// the archive writer first, so the counters cover every frame already
// appended by the pipeline.
func (a *Agent) ArchiveStats(stream string) (archive.Stats, bool) {
	a.mu.Lock()
	var st *archive.Store
	if s := a.stream(stream); s != nil {
		st = s.store
	}
	a.mu.Unlock()
	if st == nil {
		return archive.Stats{}, false
	}
	_ = st.Sync() // best-effort barrier; a writer error also shows up on the pipeline
	return st.Stats(), true
}

// SessionID returns the controller-assigned session ID (0 before
// Connect).
func (a *Agent) SessionID() uint64 {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.sessionID
}

// Reconnects returns how many times the agent has resumed a lost
// session.
func (a *Agent) Reconnects() int {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.reconnects
}

// Shard returns the controller shard that owns the current (or most
// recent) session, as announced in its welcome.
func (a *Agent) Shard() int {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.shard
}

// PendingUploads returns the number of uploads buffered awaiting a
// controller ack, and how many a buffer overflow has dropped.
func (a *Agent) PendingUploads() (pending, dropped int) {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return len(a.log.entries), a.log.dropped
}

// DeployedMCs returns the named stream's deployed MC names (locked
// against the control loop, which may be deploying concurrently).
func (a *Agent) DeployedMCs(stream string) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.node.Stream(stream)
	if e == nil {
		return nil
	}
	return e.MCNames()
}

// MCVersions returns the deployed MCs' model versions on a stream,
// keyed by name (zero for unversioned artifacts), nil for an unknown
// stream.
func (a *Agent) MCVersions(stream string) map[string]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.node.Stream(stream)
	if e == nil {
		return nil
	}
	return e.MCVersions()
}

// Stats returns the node's aggregate pipeline counters (locked
// against the control loop).
func (a *Agent) Stats() core.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.node.Stats()
}

// StartScheduler replaces the agent's worker pool with one of workers
// workers (GOMAXPROCS when workers <= 0), so frames entered with Submit
// run on up to that many streams at once. The worker that produced an
// upload appends it to the resend log, in per-stream order, and the
// connection's writer ships it.
// The running pool drains first, so whatever it already took — frames
// or control requests — stays ahead of what follows.
func (a *Agent) StartScheduler(workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	_, err := a.swapPool(workers)
	return err
}

// pool returns the worker pool that drives the streams, starting a
// one-worker pool on first use.
func (a *Agent) pool() (*core.Scheduler, error) { return a.swapPool(0) }

// swapPool is the one place the worker pool changes. With workers == 0
// it returns the running pool, starting a one-worker pool on first
// use; a positive count replaces the running pool, and a closed agent
// stops it. The old pool drains before anything replaces it, so two
// pools never drive one stream at once — and since no pool work takes
// a.mu, draining under it cannot deadlock.
func (a *Agent) swapPool(workers int) (*core.Scheduler, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sessMu.Lock()
	closed := a.closed
	a.sessMu.Unlock()
	if s := a.sched; s != nil {
		if workers == 0 && !closed {
			return s, nil
		}
		s.Close()
	}
	if closed {
		return a.sched, errors.New("fleet: agent closed")
	}
	a.sched = a.node.NewScheduler(core.SchedulerConfig{
		Workers: max(workers, 1),
		OnResult: func(r core.Result) {
			if r.Err == nil {
				a.sendUploads(r.Uploads)
			}
		},
	})
	return a.sched, nil
}

// Submit feeds one frame of the named stream to the worker pool and
// returns without waiting; the frame's uploads join the resend log
// when it is processed.
func (a *Agent) Submit(stream string, img *vision.Image) error {
	s, err := a.pool()
	if err != nil {
		return err
	}
	return s.Submit(stream, img)
}

// Wait blocks until every submitted frame has been processed. It
// returns the first pipeline error recorded, if any.
func (a *Agent) Wait() error {
	s, err := a.pool()
	if err != nil {
		return err
	}
	s.Wait()
	return s.Err()
}

// ProcessFrame pushes one frame of the named stream through the
// pipeline, waits for it, and hands any resulting uploads to the
// resend log. The uploads are also returned for local accounting.
func (a *Agent) ProcessFrame(stream string, img *vision.Image) ([]core.Upload, error) {
	ups, err := a.withEdge(stream, func(e *core.EdgeNode) ([]core.Upload, error) { return e.ProcessFrame(img) })
	if err != nil {
		return nil, err
	}
	a.sendUploads(ups)
	return ups, nil
}

// Flush drains every stream's pipeline tail, each after its in-flight
// frames, and hands the final uploads to the resend log.
func (a *Agent) Flush() ([]core.Upload, error) {
	s, err := a.pool()
	if err != nil {
		return nil, err
	}
	ups, err := s.FlushAll()
	if err != nil {
		return nil, err
	}
	a.sendUploads(ups)
	return ups, nil
}

// Close stops the connection loop's backoff, stops the worker pool
// (draining in-flight frames so their uploads still ship), flushes and
// closes the per-stream archives, has the writer ship what the wire
// will still take and say goodbye, closes the connection, and waits
// for the loops to drain. Safe to call when never connected, more than
// once, and when the controller has already ended the session.
func (a *Agent) Close() error {
	a.sessMu.Lock()
	alreadyClosed := a.closed
	a.closed = true
	a.sessMu.Unlock()
	if !alreadyClosed {
		close(a.stop)
	}

	var stopErr error
	if s, _ := a.swapPool(0); s != nil {
		stopErr = s.Err()
	}
	a.mu.Lock()
	var stores []*archive.Store
	for _, s := range a.streams {
		if s.store != nil {
			stores = append(stores, s.store)
			s.store = nil
		}
	}
	a.mu.Unlock()
	for _, st := range stores {
		if err := st.Close(); err != nil && stopErr == nil {
			stopErr = err
		}
	}
	a.sessMu.Lock()
	l := a.link
	a.sessMu.Unlock()
	if l == nil || alreadyClosed {
		a.wg.Wait()
		return stopErr
	}
	// Best effort: the writer offers the whole resend log before the
	// goodbye, so a clean shutdown loses nothing the wire still takes.
	bye, err := transport.EncodeRecord(transport.KindBye, struct{}{})
	if err == nil {
		err = a.hand(bye)
	}
	cerr := l.conn.Close()
	a.wg.Wait()
	// The controller may end the session first (its own goodbye, an
	// eviction, a shutdown): the control loop then closes the
	// connection under us and its writer exits, so the goodbye finds no
	// writer or fails on a closed connection, and so does this second
	// Close. A session that is already gone needs no goodbye.
	if connGone(err) {
		err = nil
	}
	if connGone(cerr) {
		cerr = nil
	}
	return cmp.Or(stopErr, err, cerr)
}

// connGone reports whether err is what I/O on a connection, or a
// record handed to its writer, meets once either end has closed it:
// the session is over, not broken.
func connGone(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, errSessionClosed)
}

// snapshot collects the heartbeat payload from the pipeline.
func (a *Agent) snapshot() Heartbeat {
	a.mu.Lock()
	defer a.mu.Unlock()
	hb := Heartbeat{Streams: make(map[string]StreamStats, len(a.streams))}
	for _, s := range a.streams {
		name := s.info.Name
		e := a.node.Stream(name)
		if e == nil {
			continue
		}
		st := e.Stats()
		ss := StreamStats{
			Frames: st.Frames, Uploads: st.Uploads,
			UploadedFrames: st.UploadedFrames, UploadedBits: st.UploadedBits,
			DemandFetchBits: st.DemandFetchBits, DemandFetches: st.DemandFetches,
			MaxUplinkDelay: st.MaxUplinkDelay,
			ArchivedBits:   st.ArchivedBits,
		}
		if s.store != nil {
			ast := s.store.Stats()
			ss.ArchiveBytes = ast.Bytes
			ss.ArchiveSegments = ast.Segments
			ss.ArchiveEvictedSegments = ast.EvictedSegments
			ss.ArchiveEvictedBytes = ast.EvictedBytes
		}
		hb.Streams[name] = ss
		if sketches := e.ScoreSketches(); len(sketches) > 0 {
			if hb.Scores == nil {
				hb.Scores = make(map[string]map[string]obs.SketchSnapshot, len(a.streams))
			}
			hb.Scores[name] = sketches
			if hb.ScoreVersions == nil {
				hb.ScoreVersions = make(map[string]map[string]uint64, len(a.streams))
			}
			hb.ScoreVersions[name] = e.MCVersions()
		}
	}
	if o := a.cfg.Edge.Obs; o != nil {
		hb.Extract = o.Extract.Snapshot()
		hb.MCPush = o.MCPush.Snapshot()
		hb.QueueWait = o.QueueWait.Snapshot()
		hb.UploadRTT = o.UploadRTT.Snapshot()
	}
	hb.PendingUploads, _ = a.PendingUploads()
	return hb
}
