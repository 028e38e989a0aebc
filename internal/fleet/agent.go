package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vision"
)

// DefaultHeartbeat is the agent's stats-reporting interval.
const DefaultHeartbeat = 2 * time.Second

// Reconnect-loop defaults: exponential backoff with jitter between
// these bounds, and a per-record write deadline so a stalled uplink
// surfaces as a dead connection instead of a hung pipeline.
const (
	DefaultReconnectMin = 50 * time.Millisecond
	DefaultReconnectMax = 5 * time.Second
	DefaultWriteTimeout = 10 * time.Second
	DefaultMaxPending   = 4096
)

// AgentConfig parameterizes an edge agent.
type AgentConfig struct {
	// Node is the edge node's name, announced in the session hello.
	Node string
	// Edge supplies the shared pipeline defaults (base DNN, bitrates,
	// smoothing) for every stream, as core.MultiStreamNode does.
	Edge core.Config
	// Heartbeat is the stats-reporting interval (DefaultHeartbeat
	// when zero; negative disables heartbeats).
	Heartbeat time.Duration
	// Reconnect enables the auto-reconnect loop: when an established
	// session dies (connection loss, corruption, controller
	// eviction), the agent redials with exponential backoff + jitter
	// and resumes — re-announcing its deployed state and
	// retransmitting unacked uploads. The pipeline keeps processing
	// frames throughout; their uploads buffer until the session is
	// back.
	Reconnect bool
	// ReconnectMin and ReconnectMax bound the backoff delay
	// (DefaultReconnectMin/Max when zero).
	ReconnectMin, ReconnectMax time.Duration
	// ReconnectSeed seeds the backoff jitter, so tests replay
	// deterministically.
	ReconnectSeed int64
	// WriteTimeout bounds each record write and the handshake round
	// trip (DefaultWriteTimeout when zero; negative disables). A
	// timed-out write marks the connection dead.
	WriteTimeout time.Duration
	// MaxPending caps the unacked-upload resend buffer
	// (DefaultMaxPending when zero; negative unbounded). When a long
	// outage overflows it, the oldest uploads are dropped and counted
	// in DroppedUploads.
	MaxPending int
	// Dial overrides the dialer used by Connect and the reconnect
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
// With Reconnect enabled the agent survives session loss: uploads
// carry sequence numbers and stay buffered until the controller acks
// them, so after a reconnect (resume hello) the unacked tail is
// retransmitted and the controller deduplicates — exactly-once upload
// accounting across arbitrary disconnects.
type Agent struct {
	cfg  AgentConfig
	node *core.MultiStreamNode

	// mu guards the agent's own bookkeeping: the stream registry, the
	// managed inventory and the worker pool. Pipeline state belongs to
	// the pool, and no pool work takes mu. mu nests outside sessMu.
	mu       sync.Mutex
	sched    *core.Scheduler
	archives map[string]core.FrameSource
	stores   map[string]*archive.Store // per-stream persistent archives
	streams  []StreamInfo
	// managed tracks remote-deployed MC names per stream — the
	// deployment inventory announced in resume hellos, which
	// reconciliation diffs against controller intent. Locally
	// deployed MCs are deliberately absent: the controller must never
	// undeploy what it didn't ship.
	managed map[string]map[string]bool

	// sendErrMu guards the first upload-shipping error hit by the
	// pool's result callback, for Wait to report (ProcessFrame and
	// Flush return such errors directly).
	sendErrMu sync.Mutex
	sendErr   error

	// pmu guards the upload sequence counter and the unacked resend
	// buffer. pending[:unsent] has been written to the current
	// connection; everything is retransmitted from index 0 after a
	// reconnect. Acks trim the front.
	pmu       sync.Mutex
	uploadSeq uint64
	pending   []transport.UploadRecord
	unsent    int
	dropped   int
	// sentAt records when each unacked upload was last written, for
	// the upload-RTT histogram; entries retire with their acks.
	sentAt map[uint64]time.Time

	// wmu serializes record writes to the connection.
	wmu  sync.Mutex
	conn net.Conn

	sessMu     sync.Mutex
	sessionID  uint64
	runErr     error
	connected  bool
	everOnline bool // a session existed at some point
	closed     bool
	lastGen    uint64
	reconnects int
	// rehomes counts redirect records received — sessions the
	// controller ended (or hellos it refused) because the node's
	// owning shard changed; shard is the owner announced by the most
	// recent welcome.
	rehomes int
	shard   int
	network string
	addr    string
	done    chan struct{}
	hbStop  chan struct{}

	stopOnce      sync.Once
	reconnectStop chan struct{}
	monitorOn     bool
	wg            sync.WaitGroup
}

// NewAgent constructs an agent. The pipeline starts empty; add camera
// streams with AddStream, then Connect to a controller.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.Node == "" {
		return nil, errors.New("fleet: agent needs a node name")
	}
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.ReconnectMin <= 0 {
		cfg.ReconnectMin = DefaultReconnectMin
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = DefaultReconnectMax
	}
	if cfg.ReconnectMax < cfg.ReconnectMin {
		cfg.ReconnectMax = cfg.ReconnectMin
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = DefaultWriteTimeout
	}
	if cfg.MaxPending == 0 {
		cfg.MaxPending = DefaultMaxPending
	}
	if cfg.Dial == nil {
		// A plain net.Dial to a blackholed host blocks for the OS
		// connect timeout (minutes) and cannot be interrupted, wedging
		// Close mid-outage; bound it like every other I/O step.
		dialTimeout := cfg.WriteTimeout
		if dialTimeout <= 0 {
			dialTimeout = DefaultWriteTimeout
		}
		cfg.Dial = (&net.Dialer{Timeout: dialTimeout}).Dial
	}
	n, err := core.NewMultiStreamNode(cfg.Edge)
	if err != nil {
		return nil, err
	}
	return &Agent{
		cfg:           cfg,
		node:          n,
		sentAt:        make(map[uint64]time.Time),
		archives:      make(map[string]core.FrameSource),
		stores:        make(map[string]*archive.Store),
		managed:       make(map[string]map[string]bool),
		done:          make(chan struct{}),
		hbStop:        make(chan struct{}),
		reconnectStop: make(chan struct{}),
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
	if a.cfg.ArchiveDir != "" && e.Config().ArchiveToDisk {
		cfg := e.Config()
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
		a.stores[name] = st
	}
	a.archives[name] = src
	cfg := e.Config()
	a.streams = append(a.streams, StreamInfo{Name: name, Width: frameW, Height: frameH, FPS: cfg.FPS})
	return e, nil
}

// ArchiveStats returns the named stream's persistent-archive counters
// and whether the stream has an on-disk archive at all. It barriers on
// the archive writer first, so the counters cover every frame already
// appended by the pipeline.
func (a *Agent) ArchiveStats(stream string) (archive.Stats, bool) {
	a.mu.Lock()
	st, ok := a.stores[stream]
	a.mu.Unlock()
	if !ok {
		return archive.Stats{}, false
	}
	_ = st.Sync() // best-effort barrier; a writer error also shows up on the pipeline
	return st.Stats(), true
}

// Connect dials a controller, performs the v2 handshake, and starts
// the control and heartbeat loops. With AgentConfig.Reconnect it also
// starts the reconnect monitor: if the session later dies, the agent
// redials the same address with exponential backoff and resumes.
func (a *Agent) Connect(network, addr string) error {
	conn, err := a.cfg.Dial(network, addr)
	if err != nil {
		return err
	}
	if err := a.handshake(conn); err != nil {
		conn.Close()
		return err
	}
	a.sessMu.Lock()
	a.network, a.addr = network, addr
	startMonitor := a.cfg.Reconnect && !a.monitorOn
	if startMonitor {
		a.monitorOn = true
	}
	a.sessMu.Unlock()
	if startMonitor {
		a.wg.Add(1)
		go a.monitor()
	}
	// A manual re-Connect after a lost session retransmits the unacked
	// tail immediately (the handshake reset unsent).
	_ = a.flushPending()
	return nil
}

// Handshake runs the v2 session handshake over an established
// connection and starts the control and heartbeat loops. Exported so
// tests can drive an agent over net.Pipe.
func (a *Agent) Handshake(conn net.Conn) error {
	return a.handshake(conn)
}

// handshake performs the hello/welcome exchange. Both directions are
// bounded by the write timeout so a stalled or silent peer fails the
// attempt instead of wedging the reconnect loop. Resume is a property
// of the agent, not the caller: any incarnation that has held a
// session before announces Resume, whether the monitor or a manual
// Connect redials — the controller must keep its dedup high-water
// mark and reconcile, not treat the node as a fresh process.
func (a *Agent) handshake(conn net.Conn) error {
	if t := a.cfg.WriteTimeout; t > 0 {
		conn.SetDeadline(time.Now().Add(t))
		defer conn.SetDeadline(time.Time{})
	}
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		return err
	}
	a.sessMu.Lock()
	gen := a.lastGen
	resume := a.everOnline
	a.sessMu.Unlock()
	a.mu.Lock()
	hello := Hello{
		Node:           a.cfg.Node,
		Streams:        append([]StreamInfo(nil), a.streams...),
		Resume:         resume,
		DeployGen:      gen,
		Deployed:       a.managedSnapshot(),
		Shadows:        a.shadowSnapshot(),
		HeartbeatEvery: a.cfg.Heartbeat,
	}
	a.mu.Unlock()
	if err := transport.WriteRecord(conn, transport.KindHello, hello); err != nil {
		return err
	}
	v, err := transport.ReadHeader(conn)
	if err != nil {
		return err
	}
	if v != transport.Version2 {
		return fmt.Errorf("fleet: controller answered %w %d", transport.ErrVersion, v)
	}
	kind, body, err := transport.ReadRecord(conn)
	if err != nil {
		return err
	}
	if kind == transport.KindRedirect {
		// The hello landed on a shard that lost (or never had) the
		// node while a re-shard was in flight. Redialing re-routes
		// under the settled placement.
		return a.redirected("hello refused for", body)
	}
	if kind != transport.KindWelcome {
		return fmt.Errorf("fleet: controller answered record kind %d, want welcome", kind)
	}
	var w Welcome
	if err := transport.DecodeRecord(body, &w); err != nil {
		return err
	}

	a.sessMu.Lock()
	if a.closed {
		a.sessMu.Unlock()
		return errors.New("fleet: agent closed")
	}
	if a.connected {
		a.sessMu.Unlock()
		return errors.New("fleet: agent already connected")
	}
	a.conn = conn
	a.sessionID = w.SessionID
	a.shard = w.Shard
	if w.DeployGen > a.lastGen {
		a.lastGen = w.DeployGen
	}
	a.connected = true
	a.everOnline = true
	if resume {
		a.reconnects++
	}
	a.runErr = nil
	// Per-connection channels: each session's loops watch their own
	// pair, so a later session never closes an earlier session's.
	done := make(chan struct{})
	hbStop := make(chan struct{})
	a.done = done
	a.hbStop = hbStop
	// A new connection means everything unacked must be rewritten —
	// whatever was in flight on the old one may be lost. The reset
	// must be atomic with publishing the connection (pmu nests inside
	// sessMu, never the reverse): were the conn visible first, a
	// concurrent sendUploads could write a high-seq record ahead of
	// the reset, advancing the controller's dedup high-water mark
	// past the unacked tail and turning its retransmit into droppable
	// "duplicates".
	a.pmu.Lock()
	a.unsent = 0
	a.pmu.Unlock()
	a.sessMu.Unlock()

	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		err := a.controlLoop(conn)
		// Close before unpublishing: once a successor connection can
		// exist (connected=false), writes to this one must fail — a
		// straggling flushPending that could still write successfully
		// would advance the resend cursor for uploads the successor
		// never carried.
		conn.Close()
		a.sessMu.Lock()
		a.runErr = err
		if a.conn == conn {
			// The session is gone; later writes queue instead of
			// hitting a dead socket, and the reconnect monitor may
			// publish a fresh connection.
			a.conn = nil
			a.connected = false
		}
		a.sessMu.Unlock()
		close(done)
	}()
	if a.cfg.Heartbeat > 0 {
		a.wg.Add(1)
		go a.heartbeatLoop(hbStop, done)
	}
	return nil
}

// managedSnapshot copies the remote-managed MC inventory for a hello.
// Callers hold a.mu.
func (a *Agent) managedSnapshot() map[string][]string {
	out := make(map[string][]string, len(a.managed))
	for stream, mcs := range a.managed {
		if len(mcs) == 0 {
			continue
		}
		names := make([]string, 0, len(mcs))
		for name := range mcs {
			names = append(names, name)
		}
		sort.Strings(names)
		out[stream] = names
	}
	return out
}

// shadowSnapshot copies the per-stream shadow (canary candidate)
// inventory for a hello, so reconciliation can withdraw candidates
// whose rollback push was lost. Callers hold a.mu.
func (a *Agent) shadowSnapshot() map[string][]string {
	var out map[string][]string
	for _, si := range a.streams {
		e := a.node.Stream(si.Name)
		if e == nil {
			continue
		}
		names := e.ShadowNames()
		if len(names) == 0 {
			continue
		}
		sort.Strings(names)
		if out == nil {
			out = make(map[string][]string, len(a.streams))
		}
		out[si.Name] = names
	}
	return out
}

// monitor is the reconnect loop: it waits for the live session to
// end, then redials with exponential backoff + jitter and resumes,
// retransmitting the unacked upload tail. It exits when the agent
// closes.
func (a *Agent) monitor() {
	defer a.wg.Done()
	seed := a.cfg.ReconnectSeed
	if seed == 0 {
		// Derive a per-agent seed so a fleet sharing a controller
		// doesn't redial in lockstep after a datacenter restart —
		// shared jitter is no jitter. Explicit seeds (tests) replay
		// deterministically.
		h := fnv.New64a()
		h.Write([]byte(a.cfg.Node))
		seed = int64(h.Sum64()) ^ time.Now().UnixNano()
	}
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-a.Done():
		case <-a.reconnectStop:
			return
		}
		backoff := a.cfg.ReconnectMin
		for {
			a.sessMu.Lock()
			closed := a.closed
			network, addr := a.network, a.addr
			a.sessMu.Unlock()
			if closed {
				return
			}
			delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-a.reconnectStop:
				timer.Stop()
				return
			}
			conn, err := a.cfg.Dial(network, addr)
			if err == nil {
				if err = a.handshake(conn); err != nil {
					conn.Close()
				}
			}
			if err == nil {
				_ = a.flushPending() // retransmit unacked; failures re-enter via Done
				break
			}
			backoff *= 2
			if backoff > a.cfg.ReconnectMax {
				backoff = a.cfg.ReconnectMax
			}
		}
	}
}

// SessionID returns the controller-assigned session ID (0 before
// Connect).
func (a *Agent) SessionID() uint64 {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.sessionID
}

// Err returns the error that ended the control loop, nil while it is
// live or after a clean goodbye.
func (a *Agent) Err() error {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.runErr
}

// Done is closed when the current connection's control loop ends
// (controller goodbye, connection loss, or Close). With Reconnect
// enabled a later session replaces the channel; poll Connected for
// liveness.
func (a *Agent) Done() <-chan struct{} {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.done
}

// Connected reports whether a session is currently live.
func (a *Agent) Connected() bool {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.connected
}

// Reconnects returns how many times the agent has resumed a lost
// session — via the reconnect monitor or a manual re-Connect.
func (a *Agent) Reconnects() int {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.reconnects
}

// Rehomes returns how many redirect records the agent has received —
// sessions ended (or hellos refused) because a shard-count change
// moved the node to a different controller shard. Every re-home also
// shows up as a reconnect once the agent resumes on the new owner.
func (a *Agent) Rehomes() int {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.rehomes
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
	a.pmu.Lock()
	defer a.pmu.Unlock()
	return len(a.pending), a.dropped
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
// run on up to that many streams at once. Uploads ship to the
// controller from the worker that produced them, in per-stream order.
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
			if r.Err != nil {
				return
			}
			if err := a.sendUploads(r.Uploads); err != nil {
				a.sendErrMu.Lock()
				if a.sendErr == nil {
					a.sendErr = err
				}
				a.sendErrMu.Unlock()
			}
		},
	})
	return a.sched, nil
}

// takeSendErr consumes the recorded send error: each failure is
// reported once, and a later healthy run does not re-report it.
func (a *Agent) takeSendErr() error {
	a.sendErrMu.Lock()
	defer a.sendErrMu.Unlock()
	err := a.sendErr
	a.sendErr = nil
	return err
}

// Submit feeds one frame of the named stream to the worker pool and
// returns without waiting; the frame's uploads ship to the controller
// when it is processed.
func (a *Agent) Submit(stream string, img *vision.Image) error {
	s, err := a.pool()
	if err != nil {
		return err
	}
	return s.Submit(stream, img)
}

// Wait blocks until every submitted frame has been processed. It
// returns the first pipeline or upload-shipping error recorded, if
// any.
func (a *Agent) Wait() error {
	s, err := a.pool()
	if err != nil {
		return err
	}
	s.Wait()
	if err := s.Err(); err != nil {
		return err
	}
	return a.takeSendErr()
}

// stopScheduler stops a closed agent's worker pool, draining in-flight
// frames, and returns the first pipeline or upload-shipping error left
// unreported.
func (a *Agent) stopScheduler() error {
	if s, _ := a.swapPool(0); s != nil {
		if err := s.Err(); err != nil {
			return err
		}
	}
	return a.takeSendErr()
}

// ProcessFrame pushes one frame of the named stream through the
// pipeline, waits for it, and ships any resulting uploads to the
// controller. The uploads are also returned for local accounting.
func (a *Agent) ProcessFrame(stream string, img *vision.Image) ([]core.Upload, error) {
	ups, err := a.withEdge(stream, func(e *core.EdgeNode) ([]core.Upload, error) { return e.ProcessFrame(img) })
	if err != nil {
		return nil, err
	}
	return ups, a.sendUploads(ups)
}

// Flush drains every stream's pipeline tail, each after its in-flight
// frames, and ships the final uploads.
func (a *Agent) Flush() ([]core.Upload, error) {
	s, err := a.pool()
	if err != nil {
		return nil, err
	}
	ups, err := s.FlushAll()
	if err != nil {
		return nil, err
	}
	return ups, a.sendUploads(ups)
}

// Close stops the worker pool (draining in-flight frames so
// their uploads still ship), stops the reconnect monitor, flushes and
// closes the per-stream archives, ships what the wire will still
// take, says goodbye, closes the connection, and waits for the loops
// to drain. Safe to call when never connected, more than once, and
// when the controller has already ended the session.
func (a *Agent) Close() error {
	a.sessMu.Lock()
	alreadyClosed := a.closed
	a.closed = true
	a.sessMu.Unlock()
	a.stopOnce.Do(func() { close(a.reconnectStop) })

	stopErr := a.stopScheduler()
	a.mu.Lock()
	stores := make([]*archive.Store, 0, len(a.stores))
	for _, st := range a.stores {
		stores = append(stores, st)
	}
	a.stores = make(map[string]*archive.Store)
	a.mu.Unlock()
	for _, st := range stores {
		if err := st.Close(); err != nil && stopErr == nil {
			stopErr = err
		}
	}
	// Best effort: drain the unacked buffer into a live connection
	// before the goodbye, so a clean shutdown loses nothing.
	_ = a.flushPending()
	a.sessMu.Lock()
	conn := a.conn
	connected := a.connected
	hbStop := a.hbStop
	a.conn = nil
	a.connected = false
	a.sessMu.Unlock()
	if !connected || alreadyClosed {
		a.wg.Wait()
		return stopErr
	}
	close(hbStop)
	a.wmu.Lock()
	err := transport.WriteRecordDeadline(conn, transport.KindBye, struct{}{}, a.cfg.WriteTimeout)
	a.wmu.Unlock()
	cerr := conn.Close()
	a.wg.Wait()
	// The controller may end the session first (its own goodbye, an
	// eviction, a shutdown): the control loop then closes conn under
	// us, and the goodbye and this second Close fail on a closed
	// connection. A session that is already gone needs no goodbye.
	if connGone(err) {
		err = nil
	}
	if connGone(cerr) {
		cerr = nil
	}
	if stopErr != nil {
		return stopErr
	}
	if err != nil {
		return err
	}
	return cerr
}

// connGone reports whether err is what I/O on a connection returns
// once either end has closed it: the session is over, not broken.
func connGone(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)
}

// sendUploads sequences a batch of uploads into the resend buffer and
// pushes it toward the controller. Offline behavior depends on the
// lifecycle mode: before any session exists the batch is dropped
// (local-only operation, as ever); once a session has existed and
// Reconnect is on, the batch buffers for retransmission and send
// failures are not errors — the wire will catch up. Without
// Reconnect, a write failure is surfaced, as there is no retry ahead.
func (a *Agent) sendUploads(ups []core.Upload) error {
	if len(ups) == 0 {
		return nil
	}
	a.sessMu.Lock()
	online := a.connected || (a.cfg.Reconnect && a.everOnline && !a.closed)
	a.sessMu.Unlock()
	if !online {
		return nil
	}
	a.pmu.Lock()
	for _, u := range ups {
		a.uploadSeq++
		rec := transport.ToRecord(u)
		rec.Seq = a.uploadSeq
		a.pending = append(a.pending, rec)
	}
	if max := a.cfg.MaxPending; max > 0 && len(a.pending) > max {
		drop := len(a.pending) - max
		a.pending = append([]transport.UploadRecord(nil), a.pending[drop:]...)
		a.dropped += drop
		if a.unsent -= drop; a.unsent < 0 {
			a.unsent = 0
		}
		// Dropped uploads will never be acked; retire their RTT
		// bookkeeping so the map stays bounded through a long outage.
		floor := a.pending[0].Seq
		for seq := range a.sentAt {
			if seq < floor {
				delete(a.sentAt, seq)
			}
		}
	}
	a.pmu.Unlock()
	if err := a.flushPending(); err != nil {
		if a.cfg.Reconnect {
			return nil // buffered; the resume path retransmits
		}
		return err
	}
	return nil
}

// flushPending writes the unsent tail of the resend buffer to the
// current connection. Records stay buffered until acked; a write
// failure poisons the connection (closing it wakes the control loop
// and, with Reconnect, the monitor).
func (a *Agent) flushPending() error {
	a.sessMu.Lock()
	conn := a.conn
	a.sessMu.Unlock()
	if conn == nil {
		return nil
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	for {
		// Stop if the connection was superseded: the resend cursor now
		// belongs to the successor session (which resets it and
		// rewrites the tail itself). The dying conn is closed before
		// being unpublished, so a write after this check cannot
		// succeed and mis-advance the cursor.
		a.sessMu.Lock()
		current := a.conn
		a.sessMu.Unlock()
		if current != conn {
			return nil
		}
		a.pmu.Lock()
		if a.unsent >= len(a.pending) {
			a.pmu.Unlock()
			return nil
		}
		rec := a.pending[a.unsent]
		a.pmu.Unlock()
		// The send time goes on record before the write: the ack can
		// come back before the write returns, and handleUploadAck must
		// find it, or the round trip is never observed.
		t0 := time.Now()
		a.pmu.Lock()
		a.sentAt[rec.Seq] = t0
		a.pmu.Unlock()
		if err := transport.WriteRecordDeadline(conn, transport.KindUpload, rec, a.cfg.WriteTimeout); err != nil {
			conn.Close()
			return fmt.Errorf("fleet: send upload: %w", err)
		}
		if o := a.cfg.Edge.Obs; o != nil {
			d := time.Since(t0)
			o.Upload.Observe(d)
			o.Trace.Record(obs.StageUpload, a.uploadStreamID(rec.MCName), int64(rec.Start), t0, d)
		}
		a.pmu.Lock()
		// Advance past what we just wrote by sequence number — a
		// concurrent ack may have trimmed the buffer under us.
		for a.unsent < len(a.pending) && a.pending[a.unsent].Seq <= rec.Seq {
			a.unsent++
		}
		a.pmu.Unlock()
	}
}

// writeRecord sends one non-upload record on the live connection,
// bounded by the write timeout. A write failure closes the
// connection: the control loop exits and the reconnect monitor (when
// enabled) takes over.
func (a *Agent) writeRecord(kind uint8, payload any) error {
	a.sessMu.Lock()
	conn := a.conn
	a.sessMu.Unlock()
	if conn == nil {
		return ErrSessionClosed
	}
	a.wmu.Lock()
	err := transport.WriteRecordDeadline(conn, kind, payload, a.cfg.WriteTimeout)
	a.wmu.Unlock()
	if err != nil {
		conn.Close()
	}
	return err
}

// controlLoop serves the controller's requests on its connection
// until goodbye or error.
func (a *Agent) controlLoop(conn net.Conn) error {
	for {
		kind, body, err := transport.ReadRecord(conn)
		if err != nil {
			if connGone(err) {
				return nil
			}
			return err
		}
		switch kind {
		case transport.KindDeploy:
			var req DeployRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return err
			}
			a.handleDeploy(req)
		case transport.KindUndeploy:
			var req UndeployRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return err
			}
			a.handleUndeploy(req)
		case transport.KindFetchRequest:
			var req FetchRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return err
			}
			a.handleFetch(req)
		case transport.KindUploadAck:
			var ua UploadAck
			if err := transport.DecodeRecord(body, &ua); err != nil {
				return err
			}
			a.handleUploadAck(ua)
		case transport.KindRedirect:
			// The node was re-homed to another shard mid-session. Treat
			// it like any lost session — the reconnect monitor redials,
			// and the resume hello reconciles on the new owner.
			return a.redirected("moved to", body)
		case transport.KindBye:
			return nil
		default:
			return fmt.Errorf("fleet: controller sent unknown record kind %d", kind)
		}
	}
}

// redirected decodes a redirect record, counts the re-home apart from
// fault-driven reconnects (so operators can see placement churn), and
// returns the ErrRedirected that ends the session or hello.
func (a *Agent) redirected(what string, body []byte) error {
	var rd Redirect
	if err := transport.DecodeRecord(body, &rd); err != nil {
		return err
	}
	a.sessMu.Lock()
	a.rehomes++
	a.sessMu.Unlock()
	return fmt.Errorf("fleet: %s shard %d (%s): %w", what, rd.Shard, rd.Reason, ErrRedirected)
}

// uploadStreamID resolves an upload's interned trace-stream ID from
// its "stream/mc" name; uploads from unprefixed (local) MCs land on a
// node-level "uplink" track.
func (a *Agent) uploadStreamID(mcName string) uint32 {
	o := a.cfg.Edge.Obs
	for i := 0; i < len(mcName); i++ {
		if mcName[i] == '/' {
			return o.Trace.StreamID(mcName[:i])
		}
	}
	return o.Trace.StreamID("uplink")
}

// handleUploadAck retires acked uploads from the resend buffer and
// feeds their send-to-ack round trips into the upload-RTT histogram.
func (a *Agent) handleUploadAck(ua UploadAck) {
	o := a.cfg.Edge.Obs
	now := time.Now()
	a.pmu.Lock()
	for seq, t0 := range a.sentAt {
		if seq <= ua.Seq {
			if o != nil {
				o.UploadRTT.Observe(now.Sub(t0))
			}
			delete(a.sentAt, seq)
		}
	}
	i := 0
	for i < len(a.pending) && a.pending[i].Seq <= ua.Seq {
		i++
	}
	if i > 0 {
		// Re-slice rather than copy: acks arrive per upload, and an
		// O(len) copy each would go quadratic while draining a big
		// buffer after an outage. The backing array is released once
		// the buffer empties.
		a.pending = a.pending[i:]
		if len(a.pending) == 0 {
			a.pending = nil
		}
		if a.unsent -= i; a.unsent < 0 {
			a.unsent = 0
		}
	}
	a.pmu.Unlock()
}

// noteGen records the highest deploy generation applied, reported in
// resume hellos.
func (a *Agent) noteGen(gen uint64) {
	if gen == 0 {
		return
	}
	a.sessMu.Lock()
	if gen > a.lastGen {
		a.lastGen = gen
	}
	a.sessMu.Unlock()
}

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
// stream after the stream's in-flight frames: live, or as a shadow
// canary candidate for Canary requests. Promote swaps an installed
// shadow into the live slot, shipping the displaced incumbent's final
// uploads before the ack, like an undeploy.
func (a *Agent) handleDeploy(req DeployRequest) {
	var mc *filter.MC
	var err error
	if !req.Promote {
		mc, err = a.loadMC(req.Stream, req.MC)
	}
	var ups []core.Upload
	if err == nil {
		ups, err = a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
			switch {
			case req.Promote:
				return e.PromoteShadow(req.MCName)
			case req.Canary:
				return nil, e.DeployShadow(mc, req.Threshold, req.Epoch)
			}
			return nil, e.DeployLive(mc, req.Threshold)
		})
	}
	if err == nil && !req.Canary {
		// Only intent-tracked deployments (gen > 0) join the managed
		// inventory reported in resume hellos: a direct Session.Deploy
		// bypasses intent by contract, and announcing it would invite
		// reconciliation to undeploy it as an intent-less extra.
		switch {
		case req.Promote:
			a.noteManaged(req.Stream, req.MCName, true)
		case req.Gen > 0:
			a.noteManaged(req.Stream, mc.Spec().Name, true)
		}
		a.noteGen(req.Gen)
		err = a.sendUploads(ups)
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

// noteManaged updates the remote-managed MC inventory.
func (a *Agent) noteManaged(stream, name string, deployed bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if deployed {
		if a.managed[stream] == nil {
			a.managed[stream] = make(map[string]bool)
		}
		a.managed[stream][name] = true
		return
	}
	delete(a.managed[stream], name)
}

// handleUndeploy removes an MC, shipping its final uploads before the
// ack so the controller sees a complete event record. A canary
// rollback discards the shadow candidate instead: shadows are never
// part of the reconciled deployment set, so there is no managed
// inventory or generation to touch.
func (a *Agent) handleUndeploy(req UndeployRequest) {
	ups, err := a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
		if req.Canary {
			return nil, e.UndeployShadow(req.MCName)
		}
		return e.Undeploy(req.MCName)
	})
	if err == nil && !req.Canary {
		a.noteManaged(req.Stream, req.MCName, false)
		a.noteGen(req.Gen)
		err = a.sendUploads(ups)
	}
	a.ack(req.Seq, err)
}

// handleFetch serves a demand-fetch from the stream's local archive,
// serialized with the stream's frames so the shared uplink accounting
// stays deterministic. When the request asks for data, the decoder-
// side reconstructions stream back as chunked FetchData records ahead
// of the response trailer.
func (a *Agent) handleFetch(req FetchRequest) {
	resp := FetchResponse{Seq: req.Seq, Stream: req.Stream, Start: req.Start, End: req.End}
	a.mu.Lock()
	src := a.archives[req.Stream]
	a.mu.Unlock()
	var recons []*vision.Image
	_, err := a.withEdge(req.Stream, func(e *core.EdgeNode) ([]core.Upload, error) {
		var err error
		recons, resp.Bits, err = e.FetchArchive(src, req.Start, req.End, req.Bitrate)
		return nil, err
	})
	if err != nil {
		resp.Err = err.Error()
	} else if req.IncludeData {
		if err := a.sendFetchData(req, recons); err != nil {
			resp.Err = err.Error()
		}
	}
	_ = a.writeRecord(transport.KindFetchResponse, resp)
}

// sendFetchData streams reconstructions back in chunks sized to stay
// well under the transport's record limit.
func (a *Agent) sendFetchData(req FetchRequest, recons []*vision.Image) error {
	perFrame := 1
	if len(recons) > 0 {
		frameBytes := len(recons[0].Pix)*4 + 64
		if perFrame = (transport.MaxRecordBytes / 4) / frameBytes; perFrame < 1 {
			perFrame = 1
		}
	}
	for lo := 0; lo < len(recons); lo += perFrame {
		hi := lo + perFrame
		if hi > len(recons) {
			hi = len(recons)
		}
		fd := FetchData{Seq: req.Seq, Stream: req.Stream, Frames: make([]FrameData, 0, hi-lo)}
		for _, img := range recons[lo:hi] {
			fd.Frames = append(fd.Frames, FrameData{W: img.W, H: img.H, Pix: img.Pix})
		}
		if err := a.writeRecord(transport.KindFetchData, fd); err != nil {
			return err
		}
	}
	return nil
}

func (a *Agent) ack(seq uint64, err error) {
	ack := Ack{Seq: seq}
	if err != nil {
		ack.Err = err.Error()
	}
	_ = a.writeRecord(transport.KindAck, ack)
}

// heartbeatLoop periodically reports per-stream pipeline stats until
// its connection's stop or done channel closes. A failed heartbeat
// write closes the connection (via writeRecord), so a one-way stalled
// uplink is detected on the edge side too.
func (a *Agent) heartbeatLoop(hbStop, done <-chan struct{}) {
	defer a.wg.Done()
	tick := time.NewTicker(a.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = a.writeRecord(transport.KindHeartbeat, a.snapshot())
		case <-hbStop:
			return
		case <-done:
			return
		}
	}
}

// snapshot collects the heartbeat payload from the pipeline.
func (a *Agent) snapshot() Heartbeat {
	a.mu.Lock()
	defer a.mu.Unlock()
	hb := Heartbeat{Streams: make(map[string]StreamStats, len(a.streams))}
	for _, si := range a.streams {
		e := a.node.Stream(si.Name)
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
		if store, ok := a.stores[si.Name]; ok {
			ast := store.Stats()
			ss.ArchiveBytes = ast.Bytes
			ss.ArchiveSegments = ast.Segments
			ss.ArchiveEvictedSegments = ast.EvictedSegments
			ss.ArchiveEvictedBytes = ast.EvictedBytes
		}
		hb.Streams[si.Name] = ss
		if sketches := e.ScoreSketches(); len(sketches) > 0 {
			if hb.Scores == nil {
				hb.Scores = make(map[string]map[string]obs.SketchSnapshot, len(a.streams))
			}
			hb.Scores[si.Name] = sketches
			if hb.ScoreVersions == nil {
				hb.ScoreVersions = make(map[string]map[string]uint64, len(a.streams))
			}
			hb.ScoreVersions[si.Name] = e.MCVersions()
		}
		if shadows := e.ShadowSketches(); len(shadows) > 0 {
			if hb.ShadowScores == nil {
				hb.ShadowScores = make(map[string]map[string]obs.SketchSnapshot, len(a.streams))
				hb.ShadowVersions = make(map[string]map[string]uint64, len(a.streams))
				hb.ShadowEpochs = make(map[string]map[string]uint64, len(a.streams))
			}
			hb.ShadowScores[si.Name] = shadows
			hb.ShadowVersions[si.Name] = e.ShadowVersions()
			hb.ShadowEpochs[si.Name] = e.ShadowEpochs()
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
