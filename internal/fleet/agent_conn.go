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
	"repro/internal/walog"
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
	l, err := a.dial(network, addr)
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
	for l != nil {
		a.serve(l)
		l = a.redial(network, addr, rng)
	}
}

// redial retries dial with exponential backoff + jitter until it
// yields a session, or returns nil once the agent closes.
func (a *Agent) redial(network, addr string, rng *rand.Rand) *link {
	for backoff := a.cfg.ReconnectMin; ; backoff = min(2*backoff, a.cfg.ReconnectMax) {
		timer := time.NewTimer(backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1)))
		select {
		case <-timer.C:
		case <-a.stop:
			timer.Stop()
			return nil
		}
		if l, err := a.dial(network, addr); err == nil {
			return l
		}
	}
}

// dial connects and runs the handshake, which publishes the session.
func (a *Agent) dial(network, addr string) (*link, error) {
	conn, err := a.cfg.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	l, err := a.handshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return l, nil
}

// handshake performs the hello/welcome exchange and publishes the
// connection as a link for its writer. Both directions are bounded by
// the write timeout so a stalled or silent peer fails the attempt
// instead of wedging the connection loop. Any incarnation that has
// held a session before announces Resume — the controller must keep
// its dedup high-water mark and reconcile, not treat the node as a
// fresh process. Publishing starts a new resend-log epoch in the same
// critical section, so everything unacked is offered again on this
// connection and no write on an earlier one can move its cursor.
func (a *Agent) handshake(conn net.Conn) (*link, error) {
	if t := a.cfg.WriteTimeout; t > 0 {
		conn.SetDeadline(time.Now().Add(t))
		defer conn.SetDeadline(time.Time{})
	}
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		return nil, err
	}
	a.sessMu.Lock()
	gen, resume := a.lastGen, a.everOnline
	a.sessMu.Unlock()
	if err := transport.WriteRecord(conn, transport.KindHello, a.hello(gen, resume)); err != nil {
		return nil, err
	}
	v, err := transport.ReadHeader(conn)
	if err != nil {
		return nil, err
	}
	if v != transport.Version2 {
		return nil, fmt.Errorf("fleet: controller answered %w %d", transport.ErrVersion, v)
	}
	kind, body, err := transport.ReadRecord(conn)
	if err != nil {
		return nil, err
	}
	if kind != transport.KindWelcome {
		return nil, fmt.Errorf("fleet: controller answered record kind %d, want welcome", kind)
	}
	var w Welcome
	if err := transport.DecodeRecord(body, &w); err != nil {
		return nil, err
	}

	a.sessMu.Lock()
	defer a.sessMu.Unlock()
	if a.closed {
		return nil, errors.New("fleet: agent closed")
	}
	a.sessionID = w.SessionID
	a.shard = w.Shard
	a.lastGen = max(a.lastGen, w.DeployGen)
	if resume {
		a.reconnects++
	}
	a.everOnline = true
	a.log.rewind()
	a.link = &link{
		conn:  conn,
		epoch: a.log.epoch,
		ctl:   make(chan []byte),
		res:   make(chan error),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		buf:   make([]byte, 0, 256),
	}
	return a.link, nil
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

// serve runs one session until its connection ends: the link's writer
// sends while this goroutine serves the controller's requests. The
// writer has exited before the next connection is dialed, so one
// connection never has two.
func (a *Agent) serve(l *link) {
	go a.write(l)
	// Why the session ended does not matter: the loop redials either
	// way.
	_ = a.controlLoop(l.conn)
	l.conn.Close()
	close(l.quit)
	<-l.done
	a.sessMu.Lock()
	a.link = nil
	a.sessMu.Unlock()
}

// link is one live connection and its writer: after the handshake the
// writer goroutine is the only code that writes to conn. The writer
// takes one control record at a time from ctl and answers on res
// before it takes the next, so each sender reads its own result.
type link struct {
	conn  net.Conn
	epoch uint64        // the resend-log epoch the handshake started
	ctl   chan []byte   // framed control records handed to the writer
	res   chan error    // the result of each one's write
	quit  chan struct{} // closed once the control loop has ended the session
	done  chan struct{} // closed when the writer exits
	buf   []byte        // the writer's framing buffer for uploads and heartbeats
}

// write is the link's writer. It offers the resend log to the fresh
// connection and again whenever a new upload wakes it, sends a
// heartbeat every interval, and writes each control record a sender
// hands it after every upload the log holds. A failed write closes
// the connection, so the control loop ends and the connection loop
// redials; a one-way stalled uplink is detected on the edge side by
// the write timeout.
func (a *Agent) write(l *link) {
	defer close(l.done)
	var tick <-chan time.Time
	if a.cfg.Heartbeat > 0 {
		t := time.NewTicker(a.cfg.Heartbeat)
		defer t.Stop()
		tick = t.C
	}
	err := a.drain(l)
	for err == nil {
		select {
		case <-a.wake:
			err = a.drain(l)
		case rec := <-l.ctl:
			if err = a.drain(l); err == nil {
				err = transport.WriteDeadline(l.conn, rec, a.cfg.WriteTimeout)
			}
			l.res <- err
		case <-tick:
			b, _ := a.snapshot().AppendBinary(l.buf[:walog.RecordHeaderLen]) // the heartbeat layout never fails
			err = l.put(transport.KindHeartbeat, b, a.cfg.WriteTimeout)
		case <-l.quit:
			return
		}
	}
	l.conn.Close()
}

// put frames b, a payload appended after RecordHeaderLen bytes of
// room, as one record of kind and writes it, keeping b's storage as
// the writer's buffer for the next record.
func (l *link) put(kind uint8, b []byte, timeout time.Duration) error {
	l.buf = b
	if err := walog.Frame(b, kind, b[walog.RecordHeaderLen:]); err != nil {
		return err
	}
	return transport.WriteDeadline(l.conn, b, timeout)
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
			err = serveRecord(body, a.handleDeploy)
		case transport.KindUndeploy:
			err = serveRecord(body, a.handleUndeploy)
		case transport.KindFetchRequest:
			err = serveRecord(body, a.handleFetch)
		case transport.KindUploadAck:
			err = serveRecord(body, a.handleUploadAck)
		case transport.KindBye:
			return nil
		default:
			return fmt.Errorf("fleet: controller sent unknown record kind %d", kind)
		}
		if err != nil {
			return err
		}
	}
}

// serveRecord decodes one request payload and hands it to its handler.
func serveRecord[T any](body []byte, handle func(T)) error {
	var req T
	if err := transport.DecodeRecord(body, &req); err != nil {
		return err
	}
	handle(req)
	return nil
}

// reply frames payload as one record of kind into ctlBuf, which the
// next reply reuses since the writer is done with a record once hand
// returns, and hands it to the live connection's writer.
func (a *Agent) reply(kind uint8, payload any) error {
	rec, err := transport.FrameRecord(a.ctlBuf, kind, payload)
	if err != nil {
		return err
	}
	if cap(rec) <= walog.MaxKeptBytes {
		a.ctlBuf = rec
	}
	return a.hand(rec)
}

// hand gives one framed record to the live connection's writer and
// returns the result of its write: errSessionClosed when there is no
// session or its writer has exited.
func (a *Agent) hand(rec []byte) error {
	a.sessMu.Lock()
	l := a.link
	a.sessMu.Unlock()
	if l == nil {
		return errSessionClosed
	}
	select {
	case l.ctl <- rec:
		return <-l.res
	case <-l.done:
		return errSessionClosed
	}
}
