package fleet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/vision"
)

// ErrSessionClosed is returned by session operations after the edge
// disconnected.
var ErrSessionClosed = errors.New("fleet: session closed")

// ErrLiveness terminates a session whose edge went silent for the
// liveness window (HeartbeatMiss consecutive heartbeat intervals) —
// the controller's eviction of a node that stalled or vanished
// without closing its connection.
var ErrLiveness = errors.New("fleet: heartbeat liveness timeout")

// ErrEvicted terminates a session the controller force-closed because
// the node reconnected: the resumed session replaces the stale one.
var ErrEvicted = errors.New("fleet: session replaced by reconnect")

// ErrRedirected terminates a session whose node was re-homed to
// another controller shard (a shard-count change moved it on the
// consistent-hash ring). The edge reconnects and resumes on the new
// owner; the agent surfaces the count via Rehomes.
var ErrRedirected = errors.New("fleet: session re-homed to another shard")

// Session is the controller's view of one connected edge node. Its
// uploads land in the node's ledger on the owning shard
// (Controller.WithNodeDatacenter reads it, and Controller.Datacenter
// merges every node's); the session itself only counts them. All methods are safe for concurrent use.
type Session struct {
	id      uint64
	node    string
	streams []StreamInfo
	conn    net.Conn
	timeout time.Duration
	// liveness is the read deadline per record (0 disables): the
	// heartbeat interval announced in the hello times the controller's
	// HeartbeatMiss budget.
	liveness time.Duration
	resumed  bool

	// wmu serializes record writes to the connection.
	wmu sync.Mutex

	mu          sync.Mutex
	nextSeq     uint64
	pending     map[uint64]chan any
	fetchFrames map[uint64][]*vision.Image // data chunks awaiting their trailer
	received    int
	heartbeat   Heartbeat
	heartbeatAt time.Time
	runErr      error

	done      chan struct{}
	closeOnce sync.Once

	// hbGap, when non-nil, observes the gap between consecutive
	// heartbeats, and hbHandle the time from reading a heartbeat record
	// to the return of onHeartbeat — the owning shard's heartbeat
	// histograms.
	hbGap, hbHandle *obs.Histogram
	// onHeartbeat, when non-nil, runs in the reader goroutine for
	// every heartbeat after it is stored — the shard's drift-detector
	// hook. Called outside s.mu; it may take shard locks.
	onHeartbeat func(*Session, Heartbeat)
}

func newSession(id uint64, hello Hello, conn net.Conn, timeout, liveness time.Duration, hbGap, hbHandle *obs.Histogram, onHeartbeat func(*Session, Heartbeat)) *Session {
	return &Session{
		id:          id,
		node:        hello.Node,
		streams:     append([]StreamInfo(nil), hello.Streams...),
		conn:        conn,
		timeout:     timeout,
		liveness:    liveness,
		resumed:     hello.Resume,
		pending:     make(map[uint64]chan any),
		fetchFrames: make(map[uint64][]*vision.Image),
		done:        make(chan struct{}),
		hbGap:       hbGap,
		hbHandle:    hbHandle,
		onHeartbeat: onHeartbeat,
	}
}

// ID returns the controller-assigned session identifier.
func (s *Session) ID() uint64 { return s.id }

// Node returns the edge node's self-reported name.
func (s *Session) Node() string { return s.node }

// Resumed reports whether this session is a reconnect of a previously
// connected node (the hello carried Resume).
func (s *Session) Resumed() bool { return s.resumed }

// Streams returns the stream inventory announced in the hello.
func (s *Session) Streams() []StreamInfo {
	return append([]StreamInfo(nil), s.streams...)
}

// Received returns the number of uploads accepted from this edge.
func (s *Session) Received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// LastHeartbeat returns the most recent heartbeat and its arrival
// time (zero time if none arrived yet).
func (s *Session) LastHeartbeat() (Heartbeat, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heartbeat, s.heartbeatAt
}

// Err returns the error that ended the session, nil while it is live
// or after a clean goodbye.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runErr
}

// Done is closed when the session ends.
func (s *Session) Done() <-chan struct{} { return s.done }

// Deploy ships a serialized microclassifier (a filter.(*MC).Save
// stream) to the named stream and waits for the edge's ack. Direct
// session deploys bypass the controller's intent tracking — prefer
// Controller.Deploy for deployments that should survive reconnects.
func (s *Session) Deploy(stream string, mc []byte, threshold float32) error {
	return s.deploy(stream, mc, threshold, 0, 0)
}

func (s *Session) deploy(stream string, mc []byte, threshold float32, gen, version uint64) error {
	resp, err := s.roundTrip(transport.KindDeploy, func(seq uint64) any {
		return DeployRequest{Seq: seq, Stream: stream, MC: mc, Threshold: threshold, Gen: gen, Version: version}
	})
	if err != nil {
		return err
	}
	return ackErr(resp)
}

// deployCanary ships a candidate MC as a shadow deployment: it scores
// alongside the same-named incumbent without affecting uploads until
// the controller promotes or rolls it back. epoch is the controller's
// install counter for the shadow slot, echoed back in heartbeats.
func (s *Session) deployCanary(stream string, mc []byte, threshold float32, version, epoch uint64) error {
	resp, err := s.roundTrip(transport.KindDeploy, func(seq uint64) any {
		return DeployRequest{Seq: seq, Stream: stream, MC: mc, Threshold: threshold, Version: version, Canary: true, Epoch: epoch}
	})
	if err != nil {
		return err
	}
	return ackErr(resp)
}

// promoteCanary atomically swaps the named shadow candidate into the
// live slot on the edge. The candidate bytes are already on the node;
// only the name crosses the wire.
func (s *Session) promoteCanary(stream, mcName string, gen, version uint64) error {
	resp, err := s.roundTrip(transport.KindDeploy, func(seq uint64) any {
		return DeployRequest{Seq: seq, Stream: stream, MCName: mcName, Gen: gen, Version: version, Promote: true}
	})
	if err != nil {
		return err
	}
	return ackErr(resp)
}

// undeployCanary removes the named shadow candidate — the rollback
// path. The live deployment is untouched.
func (s *Session) undeployCanary(stream, mcName string) error {
	resp, err := s.roundTrip(transport.KindUndeploy, func(seq uint64) any {
		return UndeployRequest{Seq: seq, Stream: stream, MCName: mcName, Canary: true}
	})
	if err != nil {
		return err
	}
	return ackErr(resp)
}

// Undeploy removes a microclassifier from the named stream and waits
// for the edge's ack. The MC's final uploads arrive through the normal
// upload path before the ack.
func (s *Session) Undeploy(stream, mcName string) error {
	return s.undeploy(stream, mcName, 0)
}

func (s *Session) undeploy(stream, mcName string, gen uint64) error {
	resp, err := s.roundTrip(transport.KindUndeploy, func(seq uint64) any {
		return UndeployRequest{Seq: seq, Stream: stream, MCName: mcName, Gen: gen}
	})
	if err != nil {
		return err
	}
	return ackErr(resp)
}

// Fetch demand-fetches frames [start, end) of a stream's archive,
// re-encoded at bitrate, and returns the edge's accounting. No pixel
// data crosses the wire; use FetchFrames for that.
func (s *Session) Fetch(stream string, start, end int, bitrate float64) (FetchResponse, error) {
	_, fr, err := s.fetch(stream, start, end, bitrate, false)
	return fr, err
}

// FetchFrames demand-fetches frames [start, end) of a stream's
// archive and streams the decoder-side reconstructions back through
// the v2 transport (chunked FetchData records ahead of the response
// trailer), returning the frames alongside the edge's accounting.
func (s *Session) FetchFrames(stream string, start, end int, bitrate float64) ([]*vision.Image, FetchResponse, error) {
	return s.fetch(stream, start, end, bitrate, true)
}

func (s *Session) fetch(stream string, start, end int, bitrate float64, includeData bool) ([]*vision.Image, FetchResponse, error) {
	resp, err := s.roundTrip(transport.KindFetchRequest, func(seq uint64) any {
		return FetchRequest{Seq: seq, Stream: stream, Start: start, End: end, Bitrate: bitrate, IncludeData: includeData}
	})
	if err != nil {
		return nil, FetchResponse{}, err
	}
	fr, ok := resp.(fetchReply)
	if !ok {
		return nil, FetchResponse{}, fmt.Errorf("fleet: unexpected response %T to fetch", resp)
	}
	if fr.resp.Err != "" {
		return nil, fr.resp, fmt.Errorf("fleet: edge %q fetch: %w: %s", s.node, ErrRejected, fr.resp.Err)
	}
	if includeData && len(fr.frames) != end-start {
		return fr.frames, fr.resp, fmt.Errorf("fleet: edge %q fetch returned %d frames, want %d", s.node, len(fr.frames), end-start)
	}
	return fr.frames, fr.resp, nil
}

// fetchReply pairs a fetch's response trailer with the frame data
// records that preceded it (empty for accounting-only fetches).
type fetchReply struct {
	resp   FetchResponse
	frames []*vision.Image
}

// ErrRejected is wrapped by request errors where the edge itself
// refused the request (unknown stream, bad MC bytes, duplicate
// deploy). The request reached the node and was answered — as opposed
// to transport failures, where the node's state is unknown and the
// controller keeps its intent for reconciliation.
var ErrRejected = errors.New("fleet: edge rejected request")

func ackErr(resp any) error {
	ack, ok := resp.(Ack)
	if !ok {
		return fmt.Errorf("fleet: unexpected response %T to request", resp)
	}
	if ack.Err != "" {
		return fmt.Errorf("%w: %s", ErrRejected, ack.Err)
	}
	return nil
}

// roundTrip sends one request and waits for its paired response,
// matched by sequence number.
func (s *Session) roundTrip(kind uint8, build func(seq uint64) any) (any, error) {
	s.mu.Lock()
	select {
	case <-s.done:
		s.mu.Unlock()
		return nil, ErrSessionClosed
	default:
	}
	s.nextSeq++
	seq := s.nextSeq
	ch := make(chan any, 1)
	s.pending[seq] = ch
	s.mu.Unlock()

	if err := s.write(kind, build(seq)); err != nil {
		s.dropPending(seq)
		return nil, err
	}
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-s.done:
		s.dropPending(seq)
		return nil, ErrSessionClosed
	case <-timer.C:
		s.dropPending(seq)
		return nil, fmt.Errorf("fleet: edge %q: no response within %v", s.node, s.timeout)
	}
}

func (s *Session) dropPending(seq uint64) {
	s.mu.Lock()
	delete(s.pending, seq)
	delete(s.fetchFrames, seq)
	s.mu.Unlock()
}

// write sends one record, bounded by the session timeout so a stalled
// edge cannot hang the controller's writers.
func (s *Session) write(kind uint8, payload any) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return transport.WriteRecordDeadline(s.conn, kind, payload, s.timeout)
}

// run is the session's reader loop; the controller drives it in the
// connection's goroutine. It returns after a clean goodbye, a read
// error, a liveness eviction, or the connection closing. onUpload
// decides whether an upload is fresh (accepted → counted by Received)
// and whether to ack it. The two are distinct: a dedup-dropped
// retransmission is refused but still acked so the edge retires it,
// while an upload refused because this shard no longer owns the node
// must NOT be acked — the edge keeps it buffered and resends to the
// node's new owner, or exactly-once would silently become at-most-once
// across a re-home.
func (s *Session) run(onUpload func(*Session, transport.UploadRecord) (accept, ack bool)) error {
	err := s.readLoop(onUpload)
	s.markDone(err)
	return err
}

// markDone records the session's terminal error and wakes every
// in-flight round trip (graceful drain). Safe to call more than once;
// the first call wins.
func (s *Session) markDone(err error) {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.runErr = err
		s.mu.Unlock()
		close(s.done)
	})
}

// evict force-closes the session (stale-session replacement on
// resume). Closing the connection unblocks the reader loop, whose
// exit deregisters the session.
func (s *Session) evict() {
	s.markDone(ErrEvicted)
	s.conn.Close()
}

func (s *Session) readLoop(onUpload func(*Session, transport.UploadRecord) (accept, ack bool)) error {
	// Acks are best-effort: they only trim the edge's resend buffer
	// (dedup makes retransmissions harmless), so a failed ack write —
	// typical when an edge says goodbye and closes while its final
	// uploads are still buffered here — must not abort the drain.
	// Ordering, however, is load-bearing: the ack is written only
	// after onUpload returns, and on a durable controller acceptUpload
	// logs the record to the shard wal before returning ack=true — an
	// acked upload is on disk, so a controller crash can neither lose
	// it nor (thanks to the recovered high-water mark) double-count
	// its retransmission.
	ackBroken := false
	for {
		kind, body, err := transport.ReadRecordDeadline(s.conn, s.liveness)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("fleet: edge %q silent for %v: %w", s.node, s.liveness, ErrLiveness)
			}
			return err
		}
		switch kind {
		case transport.KindUpload:
			var rec transport.UploadRecord
			if err := transport.DecodeRecord(body, &rec); err != nil {
				return err
			}
			accept, ack := true, true
			if onUpload != nil {
				accept, ack = onUpload(s, rec)
			}
			if accept {
				s.mu.Lock()
				s.received++
				s.mu.Unlock()
			}
			if ack && rec.Seq != 0 && !ackBroken {
				if err := s.write(transport.KindUploadAck, UploadAck{Seq: rec.Seq}); err != nil {
					// A write timeout means the live peer's downlink is
					// stalled: end the session so the edge reconnects
					// and ack flow resumes (retransmits dedup cleanly).
					// Any other failure is the peer-already-gone
					// goodbye drain — keep reading, stop acking.
					if errors.Is(err, os.ErrDeadlineExceeded) {
						return fmt.Errorf("fleet: ack upload %d: %w", rec.Seq, err)
					}
					ackBroken = true
				}
			}
		case transport.KindAck:
			var ack Ack
			if err := transport.DecodeRecord(body, &ack); err != nil {
				return err
			}
			s.deliver(ack.Seq, ack)
		case transport.KindFetchData:
			var fd FetchData
			if err := transport.DecodeRecord(body, &fd); err != nil {
				return err
			}
			for _, f := range fd.Frames {
				// A malformed pixel payload is a protocol violation;
				// letting it through would hand consumers an image
				// whose Pix disagrees with its dimensions.
				if f.W <= 0 || f.H <= 0 || len(f.Pix) != f.W*f.H*3 {
					return fmt.Errorf("fleet: edge %q sent a %dx%d fetch frame with %d samples", s.node, f.W, f.H, len(f.Pix))
				}
			}
			s.mu.Lock()
			if _, waiting := s.pending[fd.Seq]; waiting {
				for _, f := range fd.Frames {
					img := &vision.Image{W: f.W, H: f.H, Pix: f.Pix}
					s.fetchFrames[fd.Seq] = append(s.fetchFrames[fd.Seq], img)
				}
			}
			s.mu.Unlock()
		case transport.KindFetchResponse:
			var fr FetchResponse
			if err := transport.DecodeRecord(body, &fr); err != nil {
				return err
			}
			s.mu.Lock()
			frames := s.fetchFrames[fr.Seq]
			delete(s.fetchFrames, fr.Seq)
			s.mu.Unlock()
			s.deliver(fr.Seq, fetchReply{resp: fr, frames: frames})
		case transport.KindHeartbeat:
			if err := s.handleHeartbeat(body); err != nil {
				return err
			}
		case transport.KindBye:
			return nil
		default:
			return fmt.Errorf("fleet: edge %q sent unknown record kind %d", s.node, kind)
		}
	}
}

// handleHeartbeat decodes and stores one heartbeat record's payload,
// observes the gap since the previous one, runs onHeartbeat, and
// observes how long all of that took.
func (s *Session) handleHeartbeat(body []byte) error {
	now := time.Now()
	var hb Heartbeat
	if err := transport.DecodeRecord(body, &hb); err != nil {
		return err
	}
	s.mu.Lock()
	prev := s.heartbeatAt
	s.heartbeat = hb
	s.heartbeatAt = now
	s.mu.Unlock()
	if s.hbGap != nil && !prev.IsZero() {
		s.hbGap.Observe(now.Sub(prev))
	}
	if s.onHeartbeat != nil {
		s.onHeartbeat(s, hb)
	}
	if s.hbHandle != nil {
		s.hbHandle.Observe(time.Since(now))
	}
	return nil
}

// deliver hands a response to the waiter registered for seq; late or
// unknown responses are dropped.
func (s *Session) deliver(seq uint64, resp any) {
	s.mu.Lock()
	ch, ok := s.pending[seq]
	if ok {
		delete(s.pending, seq)
	}
	s.mu.Unlock()
	if ok {
		ch <- resp
	}
}
