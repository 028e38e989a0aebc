// Package synthedge is a minimal edge node built only from the fleet
// protocol's exported wire vocabulary: it says hello, streams upload
// records with a bounded number in flight, sends heartbeats, answers
// the controller's deploy/undeploy requests, and says goodbye. It runs
// no pipeline, so a benchmark that drives a controller with it
// measures the control plane alone.
package synthedge

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/fleet"
	"repro/internal/transport"
)

// Edge is one session to a controller. It is driven by a single
// goroutine: every method both writes and reads the connection.
type Edge struct {
	conn    net.Conn
	Welcome fleet.Welcome

	// sentAt holds the write time of every first-time upload still
	// awaiting its ack, by Seq.
	sentAt map[uint64]time.Time
	// dupSent counts re-sent uploads whose (second) ack is still due.
	dupSent map[uint64]int

	// Deploys and Undeploys count the controller requests answered.
	Deploys, Undeploys int
}

// Ack is one upload acknowledgement read off the wire.
type Ack struct {
	Seq uint64
	// RTT is write-to-ack for a first-time upload, zero for the ack of
	// a duplicate re-send.
	RTT time.Duration
	// Duplicate marks the ack of a re-sent upload.
	Duplicate bool
}

// Handshake runs the v2 hello/welcome exchange over conn.
func Handshake(conn net.Conn, hello fleet.Hello, timeout time.Duration) (*Edge, error) {
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
		defer conn.SetDeadline(time.Time{})
	}
	if err := transport.WriteHeader(conn, transport.Version2); err != nil {
		return nil, err
	}
	if err := transport.WriteRecord(conn, transport.KindHello, hello); err != nil {
		return nil, err
	}
	v, err := transport.ReadHeader(conn)
	if err != nil {
		return nil, err
	}
	if v != transport.Version2 {
		return nil, fmt.Errorf("synthedge: controller answered version %d", v)
	}
	kind, body, err := transport.ReadRecord(conn)
	if err != nil {
		return nil, err
	}
	if kind != transport.KindWelcome {
		return nil, fmt.Errorf("synthedge: controller answered record kind %d, want welcome", kind)
	}
	e := &Edge{conn: conn, sentAt: make(map[uint64]time.Time), dupSent: make(map[uint64]int)}
	if err := transport.DecodeRecord(body, &e.Welcome); err != nil {
		return nil, err
	}
	return e, nil
}

// InFlight is the number of first-time uploads awaiting their ack.
func (e *Edge) InFlight() int { return len(e.sentAt) }

// Pending is the number of acks still due: first-time uploads in
// flight plus re-sends.
func (e *Edge) Pending() int {
	n := len(e.sentAt)
	for _, k := range e.dupSent {
		n += k
	}
	return n
}

// SendUpload writes one first-time upload record; rec.Seq must be
// larger than every Seq sent before.
func (e *Edge) SendUpload(rec transport.UploadRecord) error {
	if rec.Seq == 0 {
		return errors.New("synthedge: upload needs a sequence number")
	}
	if _, dup := e.sentAt[rec.Seq]; dup {
		return fmt.Errorf("synthedge: upload %d already in flight", rec.Seq)
	}
	e.sentAt[rec.Seq] = time.Now()
	return transport.WriteRecord(e.conn, transport.KindUpload, rec)
}

// ResendUpload writes rec again after SendUpload, as an edge does
// when it retransmits an unacked tail. The controller acks it without
// counting it.
func (e *Edge) ResendUpload(rec transport.UploadRecord) error {
	e.dupSent[rec.Seq]++
	return transport.WriteRecord(e.conn, transport.KindUpload, rec)
}

// SendHeartbeat writes one heartbeat record.
func (e *Edge) SendHeartbeat(hb fleet.Heartbeat) error {
	return transport.WriteRecord(e.conn, transport.KindHeartbeat, hb)
}

// ReadAck reads records until an upload ack arrives, answering
// controller requests met on the way: deploys and undeploys are
// acknowledged as applied, fetches are refused (there is no archive).
// An ack whose Seq matches no upload in flight is an error.
func (e *Edge) ReadAck(timeout time.Duration) (Ack, error) {
	for {
		kind, body, err := transport.ReadRecordDeadline(e.conn, timeout)
		if err != nil {
			return Ack{}, err
		}
		switch kind {
		case transport.KindUploadAck:
			var ua fleet.UploadAck
			if err := transport.DecodeRecord(body, &ua); err != nil {
				return Ack{}, err
			}
			now := time.Now()
			// The wire is FIFO and a re-send follows its original, so
			// the first ack of a Seq belongs to the first-time upload.
			if at, ok := e.sentAt[ua.Seq]; ok {
				delete(e.sentAt, ua.Seq)
				return Ack{Seq: ua.Seq, RTT: now.Sub(at)}, nil
			}
			if e.dupSent[ua.Seq] > 0 {
				e.dupSent[ua.Seq]--
				if e.dupSent[ua.Seq] == 0 {
					delete(e.dupSent, ua.Seq)
				}
				return Ack{Seq: ua.Seq, Duplicate: true}, nil
			}
			return Ack{}, fmt.Errorf("synthedge: ack for upload %d, which is not in flight", ua.Seq)
		case transport.KindDeploy:
			var req fleet.DeployRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return Ack{}, err
			}
			e.Deploys++
			if err := transport.WriteRecord(e.conn, transport.KindAck, fleet.Ack{Seq: req.Seq}); err != nil {
				return Ack{}, err
			}
		case transport.KindUndeploy:
			var req fleet.UndeployRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return Ack{}, err
			}
			e.Undeploys++
			if err := transport.WriteRecord(e.conn, transport.KindAck, fleet.Ack{Seq: req.Seq}); err != nil {
				return Ack{}, err
			}
		case transport.KindFetchRequest:
			var req fleet.FetchRequest
			if err := transport.DecodeRecord(body, &req); err != nil {
				return Ack{}, err
			}
			resp := fleet.FetchResponse{Seq: req.Seq, Stream: req.Stream, Start: req.Start, End: req.End, Err: "synthedge: no archive"}
			if err := transport.WriteRecord(e.conn, transport.KindFetchResponse, resp); err != nil {
				return Ack{}, err
			}
		case transport.KindRedirect:
			return Ack{}, fleet.ErrRedirected
		default:
			return Ack{}, fmt.Errorf("synthedge: controller sent unexpected record kind %d", kind)
		}
	}
}

// Bye says goodbye and closes the connection.
func (e *Edge) Bye() error {
	err := transport.WriteRecord(e.conn, transport.KindBye, struct{}{})
	if cerr := e.conn.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close drops the connection without a goodbye, as a crashed edge
// does.
func (e *Edge) Close() error { return e.conn.Close() }
