package fleet

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/vision"
)

// TestSessionDeregisteredOnExit is the session-leak regression: a
// session that ends — cleanly, by error, or by a half-finished
// handshake — must leave the controller's registry, not sit in the
// session map forever.
func TestSessionDeregisteredOnExit(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	addr, err := ctrl.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	// Clean goodbye.
	agent, err := NewAgent(AgentConfig{Node: "leak-1", Edge: edgeCfg, Heartbeat: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("tcp", addr.String()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session registered", func() bool { return len(ctrl.ListNodes()) == 1 })
	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "clean session deregistered", func() bool { return len(ctrl.ListNodes()) == 0 })

	// Abrupt connection loss (no goodbye). A hand-driven hello, because
	// an agent would resume.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	fakeHello(t, conn, "leak-2")
	waitFor(t, "session registered", func() bool { return len(ctrl.ListNodes()) == 1 })
	conn.Close() // simulate a crash: no bye record
	waitFor(t, "errored session deregistered", func() bool { return len(ctrl.ListNodes()) == 0 })

	// A protocol violation mid-session.
	conn3, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	if err := transport.WriteHeader(conn3, transport.Version2); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRecord(conn3, transport.KindHello, Hello{Node: "leak-3"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session registered", func() bool { return len(ctrl.ListNodes()) == 1 })
	if err := transport.WriteRecord(conn3, 0x7F, struct{}{}); err != nil { // unknown kind
		t.Fatal(err)
	}
	waitFor(t, "violating session deregistered", func() bool { return len(ctrl.ListNodes()) == 0 })
}

// TestControllerRestartAdoptsNode covers the restarted-datacenter
// path: a fresh controller (empty intent) that receives a resume
// hello from a node carrying controller-shipped MCs must adopt the
// node as-is — never undeploy state a predecessor controller shipped
// — and keep accepting its uploads.
func TestControllerRestartAdoptsNode(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000, MaxChunkFrames: 4}
	n := simnet.New(3)

	ln1, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl1 := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl1.Serve(ln1)

	agent, err := NewAgent(AgentConfig{
		Node: "edge-r", Edge: edgeCfg, Heartbeat: 30 * time.Millisecond,
		ReconnectMin: 20 * time.Millisecond, ReconnectMax: 200 * time.Millisecond,
		WriteTimeout: time.Second,
		Dial:         func(network, addr string) (net.Conn, error) { return n.Dial("edge-r", addr) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	mc := saveMC(t, "survivor", 5)
	if err := ctrl1.Deploy("edge-r", "cam0", mc, -1); err != nil {
		t.Fatal(err)
	}

	// The first controller dies with all its in-memory intent.
	if err := ctrl1.Close(); err != nil {
		t.Fatal(err)
	}
	ln2, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl2 := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl2.Serve(ln2)
	defer ctrl2.Close()

	waitFor(t, "resume against restarted controller", func() bool {
		_, rc := ctrl2.Lifecycle()
		return rc == 1 && connected(agent)
	})
	// Give reconciliation a beat, then check the MC survived adoption.
	time.Sleep(100 * time.Millisecond)
	if mcs := agent.DeployedMCs("cam0"); len(mcs) != 1 || mcs[0] != "survivor" {
		t.Fatalf("restarted controller stripped the node: deployed = %v", mcs)
	}
	// Uploads flow into the new controller's ledger (flush drains the
	// smoothing tail so at least one chunk definitely ships).
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	for i := 0; i < 8; i++ {
		if _, err := agent.ProcessFrame("cam0", scene.Render(nil, 1, tensor.NewRNG(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "uploads on new controller", func() bool {
		got := 0
		if err := ctrl2.WithNodeDatacenter("edge-r", func(dc *core.Datacenter) {
			got = len(dc.Uploads("cam0/survivor"))
		}); err != nil {
			return false
		}
		return got >= 1
	})
}

// TestConnectRefusedWhenConnectedOrClosed: Connect on a connected
// agent used to dial and send a resume hello, which the controller
// accepted — evicting the live session as stale and counting a
// reconnect — before the agent refused locally. A connected or closed
// agent must refuse before dialing.
func TestConnectRefusedWhenConnectedOrClosed(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000}
	n := simnet.New(7)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()

	var dials atomic.Int32
	agent, err := NewAgent(AgentConfig{Node: "edge-twice", Edge: edgeCfg, Heartbeat: -1,
		Dial: func(_, addr string) (net.Conn, error) {
			dials.Add(1)
			return n.Dial("edge-twice", addr)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session registered", func() bool { return len(ctrl.ListNodes()) == 1 })
	id := agent.SessionID()

	if err := agent.Connect("sim", "dc"); err == nil {
		t.Fatal("second Connect on a connected agent succeeded")
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("second Connect dialed: %d dials, want 1", d)
	}
	if nodes := ctrl.ListNodes(); len(nodes) != 1 || nodes[0].ID != id || !connected(agent) {
		t.Fatalf("live session %d did not survive: nodes %+v, connected %v", id, nodes, connected(agent))
	}
	if ev, rc := ctrl.Lifecycle(); ev != 0 || rc != 0 {
		t.Fatalf("lifecycle = (%d evicted, %d reconnects), want (0, 0)", ev, rc)
	}

	if err := agent.Close(); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err == nil {
		t.Fatal("Connect on a closed agent succeeded")
	}
	if d := dials.Load(); d != 1 {
		t.Fatalf("Connect on a closed agent dialed: %d dials, want 1", d)
	}
}

// fakeEdge is a hand-driven v2 edge for exercising the session's
// request paths without an Agent's machinery.
type fakeEdge struct {
	t    *testing.T
	conn net.Conn
}

// connected reports whether the agent holds a live session.
func connected(a *Agent) bool {
	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	return a.link != nil
}

func dialFakeEdge(t *testing.T, n *simnet.Network, node string) *fakeEdge {
	t.Helper()
	conn, err := n.Dial(node, "dc")
	if err != nil {
		t.Fatal(err)
	}
	fakeHello(t, conn, node)
	return &fakeEdge{t: t, conn: conn}
}

// fakeHello opens a session for node over conn by hand: header and
// hello out, header and welcome back.
func fakeHello(t *testing.T, conn net.Conn, node string) {
	t.Helper()
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRecord(conn, transport.KindHello, Hello{Node: node}); err != nil {
		t.Fatal(err)
	}
	if _, err := transport.ReadHeader(conn); err != nil {
		t.Fatal(err)
	}
	kind, _, err := transport.ReadRecord(conn)
	if err != nil || kind != transport.KindWelcome {
		t.Fatalf("welcome: kind %d, err %v", kind, err)
	}
}

// readDeploy returns the next deploy request's sequence number.
func (f *fakeEdge) readDeploy() uint64 {
	f.t.Helper()
	kind, body, err := transport.ReadRecord(f.conn)
	if err != nil {
		f.t.Fatal(err)
	}
	if kind != transport.KindDeploy {
		f.t.Fatalf("read kind %d, want deploy", kind)
	}
	var req DeployRequest
	if err := transport.DecodeRecord(body, &req); err != nil {
		f.t.Fatal(err)
	}
	return req.Seq
}

func (f *fakeEdge) writeAck(seq uint64, errStr string) {
	f.t.Helper()
	if err := transport.WriteRecord(f.conn, transport.KindAck, Ack{Seq: seq, Err: errStr}); err != nil {
		f.t.Fatal(err)
	}
}

// TestWelcomePrecedesRequests opens a session whose controller-to-edge
// direction is stalled, so the handshake reply waits on the wire, and
// starts a Deploy as soon as the session is registered. When the stall
// lifts, the edge must read the version header and the Welcome before
// the deploy request.
func TestWelcomePrecedesRequests(t *testing.T) {
	n := simnet.New(1)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()

	n.SetStall("dc", "edge-w", true) // applies to the connection dialled next
	conn, err := n.Dial("edge-w", "dc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		t.Fatal(err)
	}
	if err := transport.WriteRecord(conn, transport.KindHello, Hello{Node: "edge-w"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session registered", func() bool {
		_, err := ctrl.Session("edge-w")
		return err == nil
	})
	deployErr := make(chan error, 1)
	go func() { deployErr <- ctrl.Deploy("edge-w", "cam0", []byte("mc"), 0) }()
	time.Sleep(20 * time.Millisecond) // let the Deploy reach its write
	n.SetStall("dc", "edge-w", false)

	if _, err := transport.ReadHeader(conn); err != nil {
		t.Fatalf("first bytes from the controller are not the header: %v", err)
	}
	if kind, _, err := transport.ReadRecord(conn); err != nil || kind != transport.KindWelcome {
		t.Fatalf("first record: kind %d, err %v; want the Welcome", kind, err)
	}
	f := &fakeEdge{t: t, conn: conn}
	f.writeAck(f.readDeploy(), "")
	select {
	case err := <-deployErr:
		if err != nil {
			t.Fatalf("Deploy: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Deploy never returned")
	}
}

// TestSessionRequestTimeouts covers the round-trip timer branches:
// responses landing after the timeout, sessions closing mid-request,
// and the session surviving both.
func TestSessionRequestTimeouts(t *testing.T) {
	cases := []struct {
		name string
		// drive runs the edge side of the scenario after the deploy
		// request is in flight. deployDone closes when the
		// controller-side Deploy call has returned.
		drive   func(t *testing.T, f *fakeEdge, seq uint64, deployDone <-chan struct{})
		wantErr func(error) bool
		errDesc string
		// after, when true, proves the session is still usable by
		// running one more round trip that the edge answers promptly.
		after bool
	}{
		{
			name: "response after timeout is dropped",
			drive: func(t *testing.T, f *fakeEdge, seq uint64, deployDone <-chan struct{}) {
				<-deployDone // let the round trip time out first
				f.writeAck(seq, "")
			},
			wantErr: func(err error) bool {
				return err != nil && !errors.Is(err, errSessionClosed) && !errors.Is(err, errRejected)
			},
			errDesc: "timeout",
			after:   true,
		},
		{
			name: "edge closes during pending request",
			drive: func(t *testing.T, f *fakeEdge, seq uint64, deployDone <-chan struct{}) {
				f.conn.Close()
			},
			wantErr: func(err error) bool { return errors.Is(err, errSessionClosed) },
			errDesc: "errSessionClosed",
		},
		{
			name: "stray ack for an unknown sequence",
			drive: func(t *testing.T, f *fakeEdge, seq uint64, deployDone <-chan struct{}) {
				f.writeAck(seq+1000, "") // never requested
				f.writeAck(seq, "")      // then the real answer
			},
			wantErr: func(err error) bool { return err == nil },
			errDesc: "success",
			after:   true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := simnet.New(1)
			ln, err := n.Listen("dc")
			if err != nil {
				t.Fatal(err)
			}
			ctrl := NewController(ControllerConfig{Timeout: 150 * time.Millisecond})
			ctrl.Serve(ln)
			defer ctrl.Close()

			f := dialFakeEdge(t, n, "edge-t")
			defer f.conn.Close()
			sess, err := ctrl.Session("edge-t")
			if err != nil {
				t.Fatal(err)
			}

			deployDone := make(chan struct{})
			errCh := make(chan error, 1)
			go func() {
				errCh <- ctrl.Deploy("edge-t", "cam0", []byte("mc"), 0)
				close(deployDone)
			}()
			seq := f.readDeploy()
			driveDone := make(chan struct{})
			go func() {
				defer close(driveDone)
				tc.drive(t, f, seq, deployDone)
			}()
			select {
			case err := <-errCh:
				if !tc.wantErr(err) {
					t.Fatalf("Deploy error = %v, want %s", err, tc.errDesc)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Deploy never returned")
			}
			// Join the drive goroutine before going on: the edge side of
			// a fakeEdge is two unsynchronized test goroutines sharing one
			// conn (real agents serialize writes), so letting a starved
			// drive's late ack overlap the follow-up round trip — or the
			// deferred conn close — corrupts the stream or hits a closed
			// pipe and fails the test spuriously.
			select {
			case <-driveDone:
			case <-time.After(10 * time.Second):
				t.Fatal("drive never finished")
			}

			if tc.after {
				// The session survived: a fresh round trip completes,
				// and the stale/late ack above was not delivered to it.
				errCh2 := make(chan error, 1)
				go func() { errCh2 <- ctrl.Deploy("edge-t", "cam0", []byte("mc"), 0) }()
				seq2 := f.readDeploy()
				f.writeAck(seq2, "nope")
				select {
				case err := <-errCh2:
					if !errors.Is(err, errRejected) {
						t.Fatalf("follow-up Deploy error = %v, want errRejected", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("follow-up Deploy never returned")
				}
				select {
				case <-sess.Done():
					t.Fatalf("session died during scenario: %v", sess.Err())
				default:
				}
			}
		})
	}
}

// heldConn gives a simnet connection TCP's close semantics (I/O after
// Close and a second Close fail with net.ErrClosed, where simnet's own
// Close is idempotent) and can hold a write until the test releases
// it, so the test decides which side closes first.
type heldConn struct {
	net.Conn
	hold    chan struct{} // non-nil: a Write announces itself on writing, then waits here
	writing chan struct{}
	wrote   func() // non-nil: called after a Write's bytes are on the wire, before it returns
	once    sync.Once
	closed  chan struct{}
}

func (c *heldConn) Write(b []byte) (int, error) {
	if c.hold != nil {
		c.writing <- struct{}{}
		<-c.hold
	}
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	n, err := c.Conn.Write(b)
	if c.wrote != nil {
		c.wrote()
	}
	return n, err
}

func (c *heldConn) Close() error {
	err := net.ErrClosed
	c.once.Do(func() {
		close(c.closed)
		err = c.Conn.Close()
	})
	return err
}

// TestAgentCloseAfterControllerClosedFirst is the close-race
// regression: Agent.Close has found a live session and is writing its
// goodbye when the controller ends the session, so the agent's control
// loop closes the connection under it. Both the goodbye and Close's
// own conn.Close then fail with "use of closed network connection";
// that is a clean close, not an error.
func TestAgentCloseAfterControllerClosedFirst(t *testing.T) {
	base := testBase()
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000}
	n := simnet.New(5)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()

	hc := &heldConn{writing: make(chan struct{}), closed: make(chan struct{})}
	agent, err := NewAgent(AgentConfig{Node: "edge-c", Edge: edgeCfg, Heartbeat: -1,
		Dial: func(network, addr string) (net.Conn, error) {
			c, err := n.Dial("edge-c", addr)
			hc.Conn = c
			return hc, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.AddStream("cam0", 48, 27, nil); err != nil {
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session registered", func() bool { return len(ctrl.ListNodes()) == 1 })

	// Heartbeats are off and nothing is pending, so the agent's next
	// write is the goodbye.
	hc.hold = make(chan struct{})
	closeErr := make(chan error, 1)
	go func() { closeErr <- agent.Close() }()
	<-hc.writing // Close is committed to the live session
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}
	<-hc.closed // the control loop saw the controller's EOF and closed the connection
	close(hc.hold)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close after the controller closed first: %v", err)
	}
	if err := agent.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestUploadRTTObservedWhenAckBeatsWrite: the controller's ack can
// reach the agent's control loop before the upload's Write has
// returned to the sender (a loaded box does this to loopback TCP).
// The round trip must still be observed: the send time has to be on
// record before the bytes leave, or the ack finds nothing to retire,
// the upload-RTT histogram stays empty and heartbeats never carry it.
func TestUploadRTTObservedWhenAckBeatsWrite(t *testing.T) {
	base := testBase()
	observer := obs.NewObserver(obs.Options{})
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000, Obs: observer}
	n := simnet.New(6)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()

	hc := &heldConn{closed: make(chan struct{})}
	agent, err := NewAgent(AgentConfig{Node: "edge-rtt", Edge: edgeCfg, Heartbeat: -1,
		Dial: func(network, addr string) (net.Conn, error) {
			c, err := n.Dial("edge-rtt", addr)
			hc.Conn = c
			return hc, err
		}})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := agent.AddStream("cam0", 48, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := filter.NewMC(filter.Spec{Name: "rtt-mc", Arch: filter.LocalizedBinary, Hidden: 8, Seed: 3}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.Deploy(mc, -1); err != nil { // every frame matches: uploads flow
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// Every write now lingers after its bytes are out until an ack has
	// been retired (or, for the writes that complete no record, 50 ms).
	hc.wrote = func() {
		for deadline := time.Now().Add(50 * time.Millisecond); observer.UploadRTT.Count() == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	for i := 0; i < 12; i++ {
		if _, err := agent.ProcessFrame("cam0", scene.Render(nil, 1, tensor.NewRNG(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	ups, err := agent.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if agent.Stats().Uploads == 0 && len(ups) == 0 {
		t.Fatal("no uploads were sent (vacuous)")
	}
	// The writer ships uploads after the frames return: every one of
	// them retired by an ack has had its round trip observed.
	waitFor(t, "every upload acked", func() bool {
		pending, _ := agent.PendingUploads()
		return pending == 0
	})
	if observer.UploadRTT.Count() == 0 {
		t.Fatal("uploads were acked while their writes were still returning, and no round trip was observed")
	}
}

// TestStalledUplinkDoesNotStallFrames: with the uplink stalled, the
// connection's writer waits on its write while the workers keep
// processing frames, their uploads waiting in the resend log. Frames
// must finish well inside the write timeout, not wait it out. Once the
// link is cut and healed, the resumed session retransmits the log and
// the ledger holds every upload exactly once.
func TestStalledUplinkDoesNotStallFrames(t *testing.T) {
	base := testBase()
	// One-frame chunks: an open event uploads on every frame.
	edgeCfg := core.Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 30_000, MaxChunkFrames: 1}
	n := simnet.New(7)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second})
	ctrl.Serve(ln)
	defer ctrl.Close()

	const writeTimeout = 5 * time.Second
	agent, err := NewAgent(AgentConfig{Node: "edge-s", Edge: edgeCfg, Heartbeat: -1, WriteTimeout: writeTimeout,
		Dial: func(_, addr string) (net.Conn, error) { return n.Dial("edge-s", addr) }})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := agent.AddStream("cam0", 48, 27, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := filter.NewMC(filter.Spec{Name: "stall-mc", Arch: filter.LocalizedBinary, Hidden: 8, Seed: 3}, base, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	if err := edge.Deploy(mc, -1); err != nil { // every frame matches
		t.Fatal(err)
	}
	if err := agent.Connect("sim", "dc"); err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	bg := vision.Background(48, 27, nil, 2)
	scene := &vision.Scene{Background: bg, NoiseStd: 0.01}
	n.SetStall("edge-s", "dc", true)
	start := time.Now()
	for i := 0; i < 40; i++ {
		if err := agent.Submit("cam0", scene.Render(nil, 1, tensor.NewRNG(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := agent.Wait(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > writeTimeout/2 {
		t.Fatalf("40 frames took %v behind a stalled uplink (write timeout %v): the frame path waited on the wire", took, writeTimeout)
	}
	if pending, _ := agent.PendingUploads(); pending == 0 {
		t.Fatal("no upload waited behind the stall (vacuous)")
	}
	if !connected(agent) || agent.Reconnects() != 0 {
		t.Fatalf("session lost during the stall: connected %v, reconnects %d", connected(agent), agent.Reconnects())
	}

	// Cut the stalled connection and heal the link: the agent resumes
	// and retransmits what was never acked.
	n.Partition("edge-s", "dc")
	n.SetStall("edge-s", "dc", false)
	n.Heal("edge-s", "dc")
	waitFor(t, "resumed session", func() bool { return agent.Reconnects() == 1 && connected(agent) })
	waitFor(t, "every upload acked", func() bool {
		pending, _ := agent.PendingUploads()
		return pending == 0
	})
	if _, dropped := agent.PendingUploads(); dropped != 0 {
		t.Fatalf("%d uploads dropped", dropped)
	}
	ups := nodeUploads(t, ctrl, "edge-s", "cam0/stall-mc")
	starts := make(map[int]bool, len(ups))
	for _, u := range ups {
		starts[u.Start] = true
	}
	if want := agent.Stats().Uploads; len(ups) != want || len(starts) != want {
		t.Fatalf("ledger holds %d uploads over %d start frames, the edge sent %d: not exactly once", len(ups), len(starts), want)
	}
}
