package fleet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"time"

	"repro/internal/transport"
)

// Connect dials a controller, runs the v2 handshake, and starts the
// agent's connection loop, which owns the session from then on: when
// it dies (connection loss, corruption, eviction) the loop
// redials the same address with exponential backoff + jitter and
// resumes, until Close. Connect returns the first attempt's error; it
// refuses, without dialing, on a closed agent or one whose loop is
// already running.
func (a *Agent) Connect(network, addr string) error {
	a.sessMu.Lock()
	var err error
	switch {
	case a.closed:
		err = errors.New("fleet: agent closed")
	case a.started:
		err = errors.New("fleet: agent already connected; it redials on its own")
	default:
		a.started = true
		a.wg.Add(1)
	}
	a.sessMu.Unlock()
	if err != nil {
		return err
	}
	first := make(chan error, 1)
	go a.run(network, addr, first)
	return <-first
}

// run is the connection loop: dial → handshake → serve the session →
// backoff → redial, until Close. The first attempt's outcome goes to
// Connect; when it fails the loop ends and Connect may be retried.
func (a *Agent) run(network, addr string, first chan<- error) {
	defer a.wg.Done()
	conn, err := a.dial(network, addr)
	if err != nil {
		a.sessMu.Lock()
		a.started = false
		a.sessMu.Unlock()
		first <- err
		return
	}
	first <- nil
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
	for conn != nil {
		a.serve(conn)
		conn = a.redial(network, addr, rng)
	}
}

// redial retries dial with exponential backoff + jitter until it
// yields a session, or returns nil once the agent closes.
func (a *Agent) redial(network, addr string, rng *rand.Rand) net.Conn {
	for backoff := a.cfg.ReconnectMin; ; backoff = min(2*backoff, a.cfg.ReconnectMax) {
		timer := time.NewTimer(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1)))
		select {
		case <-timer.C:
		case <-a.stop:
			timer.Stop()
			return nil
		}
		if conn, err := a.dial(network, addr); err == nil {
			return conn
		}
	}
}

// dial connects and runs the handshake, which publishes the session.
func (a *Agent) dial(network, addr string) (net.Conn, error) {
	conn, err := a.cfg.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	if err := a.handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake performs the hello/welcome exchange and publishes the
// connection. Both directions are bounded by the write timeout so a
// stalled or silent peer fails the attempt instead of wedging the
// connection loop. Any incarnation that has held a session before
// announces Resume — the controller must keep its dedup high-water
// mark and reconcile, not treat the node as a fresh process.
// Publishing starts a new resend-log epoch in the same critical
// section, so everything unacked is offered again on this connection
// and no write on an earlier one can move its cursor.
func (a *Agent) handshake(conn net.Conn) error {
	if t := a.cfg.WriteTimeout; t > 0 {
		conn.SetDeadline(time.Now().Add(t))
		defer conn.SetDeadline(time.Time{})
	}
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		return err
	}
	a.sessMu.Lock()
	gen, resume := a.lastGen, a.everOnline
	a.sessMu.Unlock()
	if err := transport.WriteRecord(conn, transport.KindHello, a.hello(gen, resume)); err != nil {
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
	if kind != transport.KindWelcome {
		return fmt.Errorf("fleet: controller answered record kind %d, want welcome", kind)
	}
	var w Welcome
	if err := transport.DecodeRecord(body, &w); err != nil {
		return err
	}

	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	if a.closed {
		return errors.New("fleet: agent closed")
	}
	a.conn = conn
	a.sessionID = w.SessionID
	a.shard = w.Shard
	a.lastGen = max(a.lastGen, w.DeployGen)
	if resume {
		a.reconnects++
	}
	a.everOnline = true
	a.log.rewind()
	return nil
}

// hello builds the session hello: the stream inventory, and for a
// resume the deploy generation and the remote-managed MCs per stream,
// so reconciliation can re-push what is missing.
func (a *Agent) hello(gen uint64, resume bool) Hello {
	a.mu.Lock()
	defer a.mu.Unlock()
	h := Hello{
		Node:           a.cfg.Node,
		Resume:         resume,
		DeployGen:      gen,
		Deployed:       make(map[string][]string),
		HeartbeatEvery: a.cfg.Heartbeat,
	}
	for _, s := range a.streams {
		h.Streams = append(h.Streams, s.info)
		if len(s.managed) > 0 {
			names := make([]string, 0, len(s.managed))
			for name := range s.managed {
				names = append(names, name)
			}
			sort.Strings(names)
			h.Deployed[s.info.Name] = names
		}
	}
	return h
}

// serve runs one session until its connection ends: a companion
// goroutine retransmits the unacked tail and sends heartbeats while
// this one serves the controller's requests.
func (a *Agent) serve(conn net.Conn) {
	done := make(chan struct{})
	a.wg.Add(1)
	go a.tend(done)
	// Why the session ended does not matter: the loop redials either
	// way.
	_ = a.controlLoop(conn)
	conn.Close()
	a.sessMu.Lock()
	a.conn = nil
	a.sessMu.Unlock()
	close(done)
}

// tend is a session's writer-side companion: it offers the resend log
// to the fresh connection, then reports per-stream stats every
// heartbeat interval until the session ends or the agent closes. A
// failed heartbeat write closes the connection (via writeRecord), so a
// one-way stalled uplink is detected on the edge side too.
func (a *Agent) tend(done <-chan struct{}) {
	defer a.wg.Done()
	a.flushPending()
	if a.cfg.Heartbeat <= 0 {
		return
	}
	tick := time.NewTicker(a.cfg.Heartbeat)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			_ = a.writeRecord(transport.KindHeartbeat, a.snapshot())
		case <-done:
			return
		case <-a.stop:
			return
		}
	}
}

// controlLoop serves the controller's requests on its connection
// until goodbye or error. Records are read into one reused buffer;
// each is decoded (its decoder copies out) before the next read.
func (a *Agent) controlLoop(conn net.Conn) error {
	rd := transport.NewReader(conn, 0)
	for {
		kind, body, err := rd.Read()
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
		case transport.KindBye:
			return nil
		default:
			return fmt.Errorf("fleet: controller sent unknown record kind %d", kind)
		}
	}
}

// writeRecord sends one non-upload record on the live connection,
// bounded by the write timeout. The record is encoded before wmu is
// taken, so a large one (a fetch's frames) never holds up the uploads
// the scheduler's workers ship. A write failure closes the connection:
// the control loop exits and the connection loop redials.
func (a *Agent) writeRecord(kind uint8, payload any) error {
	rec, err := transport.EncodeRecord(kind, payload)
	if err != nil {
		return err
	}
	a.wmu.Lock()
	defer a.wmu.Unlock()
	a.sessMu.Lock()
	conn := a.conn
	a.sessMu.Unlock()
	if conn == nil {
		return ErrSessionClosed
	}
	if err := transport.WriteDeadline(conn, rec, a.cfg.WriteTimeout); err != nil {
		conn.Close()
		return err
	}
	return nil
}
