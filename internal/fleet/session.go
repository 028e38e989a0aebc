package fleet

import (
	"bytes"
	"encoding/binary"
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
	"repro/internal/walog"
)

// errSessionClosed is returned by session operations after the edge
// disconnected.
var errSessionClosed = errors.New("fleet: session closed")

// errLiveness terminates a session whose edge went silent for the
// liveness window (HeartbeatMiss consecutive heartbeat intervals) —
// the controller's eviction of a node that stalled or vanished
// without closing its connection.
var errLiveness = errors.New("fleet: heartbeat liveness timeout")

// errEvicted terminates a session the controller force-closed because
// the node reconnected: the resumed session replaces the stale one.
var errEvicted = errors.New("fleet: session replaced by reconnect")

// ErrRedirected once terminated a session whose node a live
// shard-count change moved to another controller shard.
//
// Deprecated: the shard count is fixed for the life of a controller,
// so nothing returns or sends it; re-sharding is a restart.
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
	nReceived   int
	heartbeat   *hbRecord // the latest; not written again until it is the spare
	heartbeatAt time.Time
	runErr      error

	// spare is the heartbeat record the reader goroutine decodes the
	// next heartbeat into, reusing its map, its score table and hbDec's
	// names and pairs; the two swap under mu. Owned by the reader
	// goroutine, as are ackBuf, the reused upload-ack record, and hbDec.
	spare  *hbRecord
	hbDec  hbDecoder
	ackBuf []byte

	done      chan struct{}
	closeOnce sync.Once

	// hbGap, when non-nil, observes the gap between consecutive
	// heartbeats, and hbHandle the time from reading a heartbeat record
	// to the return of onHeartbeat — the owning shard's heartbeat
	// histograms.
	hbGap, hbHandle *obs.Histogram
	// onHeartbeat, when non-nil, runs in the reader goroutine for
	// every heartbeat after it is stored, with the heartbeat's score
	// table — the shard's drift-detector hook. Called outside s.mu; it
	// may take shard locks. The table is the latest heartbeat's, which
	// readers holding s.mu read meanwhile, so the hook only reads it
	// (and the fields of its pairs the reader goroutine owns); it is
	// valid only during the call, since a later decode reuses it.
	onHeartbeat func(*Session, *scoreTable)
}

func newSession(id uint64, hello Hello, conn net.Conn, timeout, liveness time.Duration, hbGap, hbHandle *obs.Histogram, onHeartbeat func(*Session, *scoreTable)) *Session {
	return &Session{
		id:          id,
		node:        hello.Node,
		streams:     append([]StreamInfo(nil), hello.Streams...),
		conn:        conn,
		timeout:     timeout,
		liveness:    liveness,
		resumed:     hello.Resume,
		pending:     make(map[uint64]chan any),
		heartbeat:   new(hbRecord),
		spare:       new(hbRecord),
		fetchFrames: make(map[uint64][]*vision.Image),
		done:        make(chan struct{}),
		hbGap:       hbGap,
		hbHandle:    hbHandle,
		onHeartbeat: onHeartbeat,
		ackBuf:      make([]byte, walog.RecordHeaderLen, walog.RecordHeaderLen+binary.MaxVarintLen64),
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

// received returns the number of uploads accepted from this edge.
func (s *Session) received() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nReceived
}

// lastHeartbeat returns a copy of the most recent heartbeat, sharing
// no map with the session, and its arrival time (zero time if none
// arrived yet). The caller may keep and modify it.
func (s *Session) lastHeartbeat() (Heartbeat, time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heartbeat.heartbeat(), s.heartbeatAt
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

// deploy ships a serialized microclassifier (a filter.(*MC).Save
// stream) to the named stream at deploy generation gen and waits for
// the edge's ack; Controller.Deploy and reconciliation call it.
func (s *Session) deploy(stream string, mc []byte, threshold float32, gen, version uint64) error {
	return s.request(transport.KindDeploy, func(seq uint64) any {
		return DeployRequest{Seq: seq, Stream: stream, MC: mc, Threshold: threshold, Gen: gen, Version: version}
	})
}

// Undeploy removes a microclassifier from the named stream and waits
// for the edge's ack. The MC's final uploads arrive through the normal
// upload path before the ack.
func (s *Session) Undeploy(stream, mcName string) error {
	return s.undeploy(stream, mcName, 0)
}

func (s *Session) undeploy(stream, mcName string, gen uint64) error {
	return s.request(transport.KindUndeploy, func(seq uint64) any {
		return UndeployRequest{Seq: seq, Stream: stream, MCName: mcName, Gen: gen}
	})
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
// the v2 transport (chunked fetchData records ahead of the response
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
		return nil, fr.resp, fmt.Errorf("fleet: edge %q fetch: %w: %s", s.node, errRejected, fr.resp.Err)
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

// errRejected is wrapped by request errors where the edge itself
// refused the request (unknown stream, bad MC bytes, duplicate
// deploy). The request reached the node and was answered — as opposed
// to transport failures, where the node's state is unknown and the
// controller keeps its intent for reconciliation.
var errRejected = errors.New("fleet: edge rejected request")

// request sends one deploy or undeploy request and waits for the
// edge's ack, failing with errRejected when the edge refused it.
func (s *Session) request(kind uint8, build func(seq uint64) any) error {
	resp, err := s.roundTrip(kind, build)
	if err != nil {
		return err
	}
	ack, ok := resp.(Ack)
	if !ok {
		return fmt.Errorf("fleet: unexpected response %T to request", resp)
	}
	if ack.Err != "" {
		return fmt.Errorf("%w: %s", errRejected, ack.Err)
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
		return nil, errSessionClosed
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
		return nil, errSessionClosed
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

// writeAck acknowledges one upload, encoding the record into the
// reader goroutine's reused buffer: acks are written only from there.
func (s *Session) writeAck(seq uint64) error {
	b, _ := UploadAck{Seq: seq}.AppendBinary(s.ackBuf[:walog.RecordHeaderLen]) // the ack layout never fails
	if err := walog.Frame(b, transport.KindUploadAck, b[walog.RecordHeaderLen:]); err != nil {
		return err
	}
	s.ackBuf = b
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return transport.WriteDeadline(s.conn, b, s.timeout)
}

// write sends one record, bounded by the session timeout so a stalled
// edge cannot hang the controller's writers. It encodes before taking
// wmu, so the lock covers only the write.
func (s *Session) write(kind uint8, payload any) error {
	rec, err := transport.EncodeRecord(kind, payload)
	if err != nil {
		return err
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return transport.WriteDeadline(s.conn, rec, s.timeout)
}

// welcome writes the version header and the Welcome in one write
// bounded by the session timeout, then releases wmu, which
// serveSession takes before it registers the session.
func (s *Session) welcome(w Welcome) error {
	defer s.wmu.Unlock()
	rec, err := transport.EncodeRecord(transport.KindWelcome, w)
	if err != nil {
		return err
	}
	var hs bytes.Buffer
	transport.WriteHeader(&hs, transport.Version2) // a bytes.Buffer write does not fail
	hs.Write(rec)
	return transport.WriteDeadline(s.conn, hs.Bytes(), s.timeout)
}

// run is the session's reader loop; the controller drives it in the
// connection's goroutine. It returns after a clean goodbye, a read
// error, a liveness eviction, or the connection closing. onUpload
// decides whether an upload is fresh (accepted → counted by Received)
// and whether to ack it. The two are distinct: a dedup-dropped
// retransmission is refused but still acked so the edge retires it,
// while an upload refused because the session is done or its record
// did not reach the wal must NOT be acked — the edge keeps it buffered
// and resends it, or exactly-once would silently become at-most-once.
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
	s.markDone(errEvicted)
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
	//
	// Every record is read into one buffer, valid until the next read:
	// each case below decodes its payload, copying out what it keeps,
	// before the loop reads again.
	ackBroken := false
	rd := transport.NewReader(s.conn, s.liveness)
	for {
		kind, body, err := rd.Read()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return fmt.Errorf("fleet: edge %q silent for %v: %w", s.node, s.liveness, errLiveness)
			}
			return err
		}
		switch kind {
		case transport.KindUpload:
			var rec transport.UploadRecord
			if err := rec.UnmarshalBinary(body); err != nil {
				return fmt.Errorf("transport: decode: %w", err)
			}
			accept, ack := true, true
			if onUpload != nil {
				accept, ack = onUpload(s, rec)
			}
			if accept {
				s.mu.Lock()
				s.nReceived++
				s.mu.Unlock()
			}
			if ack && rec.Seq != 0 && !ackBroken {
				if err := s.writeAck(rec.Seq); err != nil {
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
			var fd fetchData
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

// handleHeartbeat decodes one heartbeat record's payload into the
// spare record and swaps it in as the latest, observes the gap since
// the previous one, runs onHeartbeat, and observes how long all of that
// took. Decoding in place, a heartbeat like the last one allocates
// nothing. A refused payload leaves the latest heartbeat as it was.
func (s *Session) handleHeartbeat(body []byte) error {
	now := time.Now()
	hb := s.spare
	if err := hb.decode(body, &s.hbDec); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	s.mu.Lock()
	prev := s.heartbeatAt
	s.heartbeat, s.spare = hb, s.heartbeat
	s.heartbeatAt = now
	s.mu.Unlock()
	if s.hbGap != nil && !prev.IsZero() {
		s.hbGap.Observe(now.Sub(prev))
	}
	if s.onHeartbeat != nil {
		s.onHeartbeat(s, &hb.scores)
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
