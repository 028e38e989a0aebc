// Package simnet is an in-memory network with scriptable, deterministic
// faults — the repo's harness for testing the fleet control plane
// against the link conditions the paper's deployment story implies
// (cellular/wifi backhaul that drops, stalls, corrupts, and
// partitions). Every failure mode becomes a unit test instead of a
// flake: connections are plain net.Conn/net.Listener values, faults are
// injected per direction by address, and all randomness (which bit a
// corruption flips) flows from one seed, so a scripted scenario
// replays byte-identically.
//
// A Network is a namespace of named endpoints. Servers Listen on a
// name; clients Dial from their own name to a listener's name. Each
// established connection is a pair of directional pipes; faults are
// addressed by (from, to) direction:
//
//	n := simnet.New(42)
//	ln, _ := n.Listen("dc")
//	conn, _ := n.Dial("edge-1", "dc")
//	n.SetStall("edge-1", "dc", true)     // one-way stall: writes block
//	n.Partition("edge-1", "dc")          // both directions sever, dials refused
//	n.Heal("edge-1", "dc")               // dials work again (severed conns stay dead)
//	n.CorruptNext("edge-1", "dc", 12)    // flip one bit 12 bytes ahead in the stream
//
// Conns support read/write deadlines (errors satisfy
// errors.Is(err, os.ErrDeadlineExceeded)), so transport-level liveness
// timeouts are testable without real sockets. A deadline costs nothing
// until an operation blocks: setting one only records it, and a timer
// is armed only while a read or write waits. A write appends to the
// pipe's buffer in place, so the simulated wire costs about what a
// socket's send and receive do per message, and like a socket's send
// it blocks while the peer has more than a socket buffer's worth
// unread, so a sender that outruns its reader waits rather than grows
// the buffer.
package simnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// errSevered is returned by reads and writes on a partitioned
// connection — the simnet analogue of a reset TCP connection.
var errSevered = errors.New("simnet: connection severed by partition")

// errRefused is returned by Dial when the target is not listening or
// the address pair is partitioned.
var errRefused = errors.New("simnet: connection refused")

// simAddr is a simnet endpoint address.
type simAddr struct{ name string }

// Network implements net.Addr.
func (a simAddr) Network() string { return "sim" }

// String implements net.Addr.
func (a simAddr) String() string { return a.name }

// Network is an in-memory network namespace. All methods are safe for
// concurrent use.
type Network struct {
	seed int64

	mu        sync.Mutex
	listeners map[string]*Listener
	pipes     map[string][]*pipe // direction key -> live pipes
	cut       map[string]bool    // partitioned address pairs
	stalled   map[string]bool    // direction key -> stalled, for future conns
}

// New constructs a network whose injected randomness (corruption bit
// choice) derives deterministically from seed.
func New(seed int64) *Network {
	return &Network{
		seed:      seed,
		listeners: make(map[string]*Listener),
		pipes:     make(map[string][]*pipe),
		cut:       make(map[string]bool),
		stalled:   make(map[string]bool),
	}
}

func dirKey(from, to string) string { return from + "\x00" + to }

// pairKey is direction-agnostic, for partitions.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\x00" + b
}

// rngFor derives a direction's deterministic RNG.
func (n *Network) rngFor(from, to string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(dirKey(from, to)))
	return rand.New(rand.NewSource(n.seed ^ int64(h.Sum64())))
}

// Listen binds a listener to the given endpoint name.
func (n *Network) Listen(addr string) (*Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, busy := n.listeners[addr]; busy {
		return nil, fmt.Errorf("simnet: address %q already in use", addr)
	}
	l := &Listener{net: n, addr: addr, backlog: make(chan net.Conn, 64), closed: make(chan struct{})}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects the named client endpoint to a listener. The returned
// conn's LocalAddr is from; the accepted conn's LocalAddr is to.
func (n *Network) Dial(from, to string) (net.Conn, error) {
	n.mu.Lock()
	if n.cut[pairKey(from, to)] {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s->%s: %w (partitioned)", from, to, errRefused)
	}
	l := n.listeners[to]
	if l == nil {
		n.mu.Unlock()
		return nil, fmt.Errorf("simnet: dial %s->%s: %w", from, to, errRefused)
	}
	c2s := newPipe(from, to, n.rngFor(from, to), n.stalled[dirKey(from, to)])
	s2c := newPipe(to, from, n.rngFor(to, from), n.stalled[dirKey(to, from)])
	n.pipes[dirKey(from, to)] = append(n.pipes[dirKey(from, to)], c2s)
	n.pipes[dirKey(to, from)] = append(n.pipes[dirKey(to, from)], s2c)
	client := &conn{local: simAddr{from}, remote: simAddr{to}, rd: s2c, wr: c2s}
	server := &conn{local: simAddr{to}, remote: simAddr{from}, rd: c2s, wr: s2c}
	n.mu.Unlock()

	select {
	case l.backlog <- server:
		return client, nil
	case <-l.closed:
		return nil, fmt.Errorf("simnet: dial %s->%s: %w", from, to, errRefused)
	}
}

// live returns the open pipes for one direction, compacting dead ones
// out of the registry as it goes — a long chaos soak reconnects
// thousands of times, and without pruning every dead pipe would pin
// its buffers until the network is garbage. Callers hold n.mu; pipe
// methods never take n.mu, so calling p.dead() here is safe.
func (n *Network) live(from, to string) []*pipe {
	key := dirKey(from, to)
	kept := n.pipes[key][:0]
	for _, p := range n.pipes[key] {
		if !p.dead() {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		delete(n.pipes, key)
		return nil
	}
	n.pipes[key] = kept
	return kept
}

// SetStall stalls (or releases) the direction: while stalled, writes
// block — a one-way dead link whose reverse path still flows. Applies
// to existing and future connections.
func (n *Network) SetStall(from, to string, stalled bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stalled[dirKey(from, to)] = stalled
	for _, p := range n.live(from, to) {
		p.setStalled(stalled)
	}
}

// CorruptNext flips one bit of the byte `skip` bytes ahead of the
// direction's current stream position (skip 0 corrupts the next byte
// written). Which bit flips is drawn from the network's seeded RNG, so
// the damage is deterministic. Returns an error when no live
// connection matches the direction.
func (n *Network) CorruptNext(from, to string, skip int) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	live := n.live(from, to)
	if len(live) == 0 {
		return fmt.Errorf("simnet: corrupt %s->%s: no live connection", from, to)
	}
	for _, p := range live {
		p.corruptAhead(skip)
	}
	return nil
}

// Partition severs every live connection between a and b (reads and
// writes on both ends fail with errSevered) and refuses new dials
// between them until Heal.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cut[pairKey(a, b)] = true
	for _, p := range n.pipes[dirKey(a, b)] {
		p.sever()
	}
	for _, p := range n.pipes[dirKey(b, a)] {
		p.sever()
	}
	// Severed pipes are dead for good (Heal does not revive them); the
	// endpoints hold their own references, so the registry entries are
	// pure bookkeeping and can go now.
	delete(n.pipes, dirKey(a, b))
	delete(n.pipes, dirKey(b, a))
}

// Heal lifts a partition: new dials between a and b succeed again.
// Connections severed while partitioned stay dead — like real TCP,
// the endpoints must reconnect.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.cut, pairKey(a, b))
}

// Listener accepts simnet connections for one endpoint name.
type Listener struct {
	net     *Network
	addr    string
	backlog chan net.Conn

	once   sync.Once
	closed chan struct{}
}

// Accept waits for the next inbound connection.
func (l *Listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

// Close stops the listener; blocked Accepts return net.ErrClosed.
func (l *Listener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	})
	return nil
}

// Addr returns the listener's simnet address.
func (l *Listener) Addr() net.Addr { return simAddr{l.addr} }

// conn is one endpoint of a simnet connection. It implements net.Conn,
// including deadlines.
type conn struct {
	local, remote simAddr
	rd, wr        *pipe // rd: peer->me, wr: me->peer

	closeOnce sync.Once
}

// Read implements net.Conn.
func (c *conn) Read(b []byte) (int, error) { return c.rd.read(b) }

// Write implements net.Conn.
func (c *conn) Write(b []byte) (int, error) { return c.wr.write(b) }

// Close closes both directions: the peer drains buffered bytes then
// sees io.EOF; this end's pending and future operations fail.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.wr.closeWrite()
		c.rd.closeRead()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *conn) SetDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	c.wr.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.rd.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *conn) SetWriteDeadline(t time.Time) error {
	c.wr.setWriteDeadline(t)
	return nil
}

// maxKeptBuf bounds the buffer a drained pipe keeps for its next
// write, so one large transfer does not pin its size for the
// connection's life. It is walog.MaxKeptBytes, the bound on every
// record buffer kept above the wire.
const maxKeptBuf = 1 << 20

// sockBuf is a pipe's socket-buffer bound: a write waits while the
// reader has more than sockBuf bytes unread, as a send on a socket
// whose buffers are full does. The wait honours the write deadline,
// Close and a sever. A write into a pipe with at most sockBuf unread
// goes through whole, however large, so one record larger than the
// bound still crosses an idle pipe.
//
// sockBuf is half of maxKeptBuf, so the bound plus one write of up to
// the other half fits the storage a pipe keeps: a stream of records
// each within walog.ChunkBytes (a quarter of it), such as a demand
// fetch's chunks, slides through that storage and never regrows it.
// Two peers that each write before they read can wedge on any such
// bound, as they can on a socket's. A fleet controller writes each
// upload ack inline, while an agent's control loop, busy sending a
// fetch, reads none; the acks that pile up are those of the uploads
// the agent's writer sends during that one fetch. The resend log does
// not bound them, since it drops its oldest record when full and goes
// on taking new ones. An ack takes about 12 bytes, so the bound holds
// some 40,000: a fetch during which more uploads than that go out
// blocks the controller's ack write, then the agent's data write,
// until the write deadline ends the session.
const sockBuf = maxKeptBuf / 2

// pipe is one direction of a connection: a buffer bounded like a
// socket's (sockBuf), with fault hooks. Stream offsets (for
// corruption) count bytes as written.
type pipe struct {
	from, to string
	rng      *rand.Rand

	mu   sync.Mutex
	cond *sync.Cond

	buf     []byte // unread bytes are buf[roff:]
	roff    int
	written int64 // stream position
	wclosed bool  // write end closed: reader drains then EOF
	rclosed bool  // read end closed
	severed bool
	stalled bool // writes block until released

	corruptAt []int64

	rDeadline, wDeadline time.Time
	rTimer, wTimer       *time.Timer
}

func newPipe(from, to string, rng *rand.Rand, stalled bool) *pipe {
	p := &pipe{from: from, to: to, rng: rng, stalled: stalled}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pipe) dead() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.severed || p.wclosed || p.rclosed
}

func (p *pipe) setStalled(stalled bool) {
	p.mu.Lock()
	p.stalled = stalled
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pipe) corruptAhead(skip int) {
	p.mu.Lock()
	p.corruptAt = append(p.corruptAt, p.written+int64(skip))
	p.mu.Unlock()
}

func (p *pipe) sever() {
	p.mu.Lock()
	p.severed = true
	p.stopTimers()
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pipe) closeWrite() {
	p.mu.Lock()
	p.wclosed = true
	p.stopTimers()
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pipe) closeRead() {
	p.mu.Lock()
	p.rclosed = true
	p.stopTimers()
	p.mu.Unlock()
	p.cond.Broadcast()
}

// stopTimers stops both deadline timers. Callers hold p.mu.
func (p *pipe) stopTimers() {
	if p.rTimer != nil {
		p.rTimer.Stop()
	}
	if p.wTimer != nil {
		p.wTimer.Stop()
	}
}

// setReadDeadline and setWriteDeadline only record the deadline and
// wake blocked operations to re-check it: a timer is armed by wait,
// only while an operation blocks, so a deadline set and cleared around
// every record costs nothing.
func (p *pipe) setReadDeadline(t time.Time) {
	p.mu.Lock()
	p.rDeadline = t
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pipe) setWriteDeadline(t time.Time) {
	p.mu.Lock()
	p.wDeadline = t
	p.mu.Unlock()
	p.cond.Broadcast()
}

// wait blocks until the pipe's state changes. With a deadline set it
// first arms the direction's timer (*tm, reused across waits) to wake
// the pipe then. Reader and writer keep separate timers, so a stalled
// writer's short deadline and a reader's long one both fire on time.
// Callers hold p.mu and have checked the deadline has not passed;
// every waiter re-checks its condition on waking, so a stale timer
// firing is harmless.
func (p *pipe) wait(deadline time.Time, tm **time.Timer) {
	if !deadline.IsZero() {
		if d := time.Until(deadline); *tm == nil {
			*tm = time.AfterFunc(d, p.wake)
		} else {
			(*tm).Reset(d)
		}
	}
	p.cond.Wait()
}

// wake is the deadline timers' callback. It broadcasts under p.mu: a
// waiter holds p.mu from its deadline check until cond.Wait releases
// it, so the wakeup cannot fall between the two and be lost.
func (p *pipe) wake() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

func expired(t time.Time) bool { return !t.IsZero() && !time.Now().Before(t) }

// write waits out stalls and the socket-buffer bound, then delivers b
// through the fault transforms into the buffer. The reported count is
// always len(b): from the sender's view the bytes left the host —
// corruption happens on the wire.
func (p *pipe) write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.severed {
			return 0, errSevered
		}
		if p.wclosed || p.rclosed {
			return 0, io.ErrClosedPipe
		}
		if !p.stalled && len(p.buf)-p.roff <= sockBuf {
			break
		}
		if expired(p.wDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		p.wait(p.wDeadline, &p.wTimer)
	}
	// Append in place; armed faults transform the appended span. An
	// append that does not fit first drops the bytes already read, as
	// bytes.Buffer does: it slides the unread bytes down when they and
	// b fit in half the buffer, and otherwise moves them to a buffer of
	// twice the capacity, so a growing backlog is copied O(1) times
	// per byte. Growth stops at maxKeptBuf while the bytes fit it, and
	// a buffer of that size slides whenever they fit: with at most
	// sockBuf unread, the slide leaves room for what a write brings.
	if len(p.buf)+len(b) > cap(p.buf) {
		unread := p.buf[p.roff:]
		need := len(unread) + len(b)
		if need <= cap(p.buf)/2 || cap(p.buf) >= maxKeptBuf && need <= cap(p.buf) {
			p.buf = p.buf[:copy(p.buf, unread)]
		} else {
			size := 2*cap(p.buf) + len(b)
			if need <= maxKeptBuf {
				size = min(size, maxKeptBuf)
			}
			p.buf = append(make([]byte, 0, size), unread...)
		}
		p.roff = 0
	}
	start, n := p.written, len(p.buf)
	p.written += int64(len(b))
	p.buf = append(p.buf, b...)
	p.applyCorruption(start, p.buf[n:])
	p.cond.Broadcast()
	return len(b), nil
}

// applyCorruption flips one seeded-random bit at every armed stream
// offset covered by this write. Callers hold p.mu.
func (p *pipe) applyCorruption(start int64, data []byte) {
	if len(p.corruptAt) == 0 {
		return
	}
	var left []int64
	for _, off := range p.corruptAt {
		if off >= start && off < start+int64(len(data)) {
			data[off-start] ^= 1 << uint(p.rng.Intn(8))
		} else if off >= start+int64(len(data)) {
			left = append(left, off)
		} // offsets already behind the stream are dropped
	}
	p.corruptAt = left
}

func (p *pipe) read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.severed {
			return 0, errSevered
		}
		if p.rclosed {
			return 0, io.ErrClosedPipe
		}
		if p.roff < len(p.buf) {
			break
		}
		if p.wclosed {
			return 0, io.EOF
		}
		if expired(p.rDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		p.wait(p.rDeadline, &p.rTimer)
	}
	unread := len(p.buf) - p.roff
	n := copy(b, p.buf[p.roff:])
	p.roff += n
	if unread > sockBuf && unread-n <= sockBuf {
		p.cond.Broadcast() // a writer waiting on the bound may go on
	}
	if p.roff == len(p.buf) { // drained: keep the storage for the next write
		p.roff = 0
		p.buf = p.buf[:0]
		if cap(p.buf) > maxKeptBuf {
			p.buf = nil
		}
	}
	return n, nil
}
