// Package transport carries FilterForward traffic between an edge node
// and a datacenter over a real network connection. The paper's
// evaluation models the uplink as a bandwidth constraint
// (internal/core's token bucket); this package provides the wire layer
// a deployment needs: length-prefixed gob frames over any net.Conn —
// the framing primitives internal/fleet layers its bidirectional
// control plane on.
//
// The protocol is deliberately simple and version-tagged:
//
//	uint32 magic | uint16 version | stream of records
//	record: uint8 kind | uint32 length | uint32 crc32(payload) | gob payload
//
// The per-record CRC turns wire damage (bit flips, mid-record byte
// loss) into a typed ErrCorrupt at the reader instead of a gob decode
// error — or worse, a silent desync that hangs the session. Readers
// never trust the length prefix for allocation: payloads are read in
// bounded chunks, so a hostile or damaged header cannot force a large
// up-front allocation.
//
// Version 2 is the only version served: the connection is
// bidirectional — after the client header the server answers with its
// own header, and both sides exchange the fleet record kinds (session
// hello, microclassifier deploy/undeploy, demand-fetch
// request/response, heartbeats). Payload schemas live in
// internal/fleet; this package only fixes the kind numbers and the
// framing. Version 1, a one-way upload pipe with no node identity and
// no acks, is no longer spoken: a peer announcing it gets ErrVersion.
//
// Reconstructed frames are not shipped (the receiver decodes uploads
// from the coded bits in a real deployment); metadata, ranges, event
// IDs, and coded sizes are.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"repro/internal/core"
)

// magic identifies the wire format, including the record framing
// revision. It was bumped (…04 → …05) when records gained the CRC
// field: a pre-CRC build pairs with a CRC build only up to the
// handshake, where the stale magic is rejected cleanly — without the
// bump the handshake would succeed and every record would desync.
const magic = 0xFF00FF05

// Protocol versions. A client announces the version it speaks in its
// header; the server echoes the version it accepts back.
const (
	// Version2 is the bidirectional fleet control plane, and the oldest
	// version this build speaks.
	Version2 = 2
	// MaxVersion is the newest version this build speaks.
	MaxVersion = Version2
)

// Record kinds. The numbers are wire format: append only, never
// renumber.
const (
	// KindUpload carries one UploadRecord (edge → datacenter).
	KindUpload uint8 = 1
	// KindBye closes the session cleanly (either direction).
	KindBye uint8 = 2
	// KindHello announces an edge node and its stream inventory
	// (edge → datacenter, first record of a session).
	KindHello uint8 = 3
	// KindWelcome acknowledges a hello with a session ID
	// (datacenter → edge, first record after the server header).
	KindWelcome uint8 = 4
	// KindDeploy ships a serialized microclassifier to a stream
	// (datacenter → edge).
	KindDeploy uint8 = 5
	// KindUndeploy removes a deployed microclassifier
	// (datacenter → edge).
	KindUndeploy uint8 = 6
	// KindFetchRequest asks the edge archive for context video
	// (datacenter → edge).
	KindFetchRequest uint8 = 7
	// KindFetchResponse answers a fetch request with coded-segment
	// accounting (edge → datacenter).
	KindFetchResponse uint8 = 8
	// KindHeartbeat carries periodic per-stream pipeline stats
	// (edge → datacenter).
	KindHeartbeat uint8 = 9
	// KindAck acknowledges a deploy/undeploy request, carrying an
	// error string on failure (edge → datacenter).
	KindAck uint8 = 10
	// KindFetchData streams a chunk of demand-fetched frame pixels
	// from the edge's on-disk archive (edge → datacenter). Zero or
	// more data records precede the KindFetchResponse trailer of the
	// same sequence number; they are only sent when the fetch request
	// set IncludeData.
	KindFetchData uint8 = 11
	// KindUploadAck acknowledges receipt of an upload by its
	// edge-assigned sequence number (datacenter → edge). The edge
	// retires the upload from its resend buffer; unacked uploads are
	// retransmitted after a reconnect, and the receiver deduplicates
	// by sequence number — together, exactly-once upload accounting.
	KindUploadAck uint8 = 12
	// KindRedirect tells an edge its node is owned by a different
	// controller shard (datacenter → edge). Sent instead of a welcome
	// when a hello lands on the wrong shard of a sharded control
	// plane, or mid-session when a shard-count change re-homes the
	// node; the edge reconnects and its resume hello reconciles on the
	// new owner exactly like any other reconnect.
	KindRedirect uint8 = 13
)

// MaxRecordBytes bounds a single record payload, keeping a
// misbehaving peer from forcing unbounded allocation.
const MaxRecordBytes = 16 << 20

// readChunk bounds how much ReadRecord allocates ahead of the bytes
// actually arriving, so a length prefix claiming MaxRecordBytes on a
// truncated stream costs one chunk, not 16 MB.
const readChunk = 64 << 10

// recHeaderLen is the record frame header: kind + length + crc32.
const recHeaderLen = 9

// ErrVersion is wrapped by handshake errors caused by a version this
// build does not speak.
var ErrVersion = errors.New("unsupported version")

// ErrCorrupt is wrapped by record-read errors caused by wire damage —
// a length prefix beyond the record limit or a payload failing its
// CRC. Sessions treat it as a broken connection and reconnect rather
// than trying to resync the stream.
var ErrCorrupt = errors.New("corrupt record")

// WriteHeader writes the protocol header (magic + version) to w.
func WriteHeader(w io.Writer, version uint16) error {
	var hdr [6]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], version)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: handshake: %w", err)
	}
	return nil
}

// ReadHeader reads and validates a protocol header, returning the
// peer's announced version. Versions below Version2 or above
// MaxVersion fail with an error wrapping ErrVersion.
func ReadHeader(r io.Reader) (uint16, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("transport: read handshake: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return 0, errors.New("transport: bad magic")
	}
	v := binary.BigEndian.Uint16(hdr[4:6])
	if v < Version2 || v > MaxVersion {
		return 0, fmt.Errorf("transport: %w %d", ErrVersion, v)
	}
	return v, nil
}

// WriteRecord gob-encodes payload and writes one framed record to w.
// The caller is responsible for serializing concurrent writers.
func WriteRecord(w io.Writer, kind uint8, payload any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("transport: encode: %w", err)
	}
	if buf.Len() > MaxRecordBytes {
		return fmt.Errorf("transport: record of %d bytes exceeds limit", buf.Len())
	}
	var hdr [recHeaderLen]byte
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(buf.Len()))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(buf.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// WriteRecordDeadline is WriteRecord with the write bounded by a
// deadline, so a stalled peer cannot hang the writer forever. A
// non-positive timeout writes without a deadline.
func WriteRecordDeadline(conn net.Conn, kind uint8, payload any, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	return WriteRecord(conn, kind, payload)
}

// ReadRecord reads one framed record, returning its kind and raw
// payload bytes. A clean end of stream at a record boundary returns
// io.EOF; truncation mid-record returns io.ErrUnexpectedEOF; a length
// prefix beyond the limit or a payload failing its CRC returns an
// error wrapping ErrCorrupt. The payload buffer grows in bounded
// chunks as bytes arrive, never from the length prefix alone.
func ReadRecord(r io.Reader) (uint8, []byte, error) {
	var rhdr [recHeaderLen]byte
	if _, err := io.ReadFull(r, rhdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(rhdr[1:5])
	sum := binary.BigEndian.Uint32(rhdr[5:9])
	if size > MaxRecordBytes {
		return 0, nil, fmt.Errorf("transport: %w: length prefix claims %d bytes (limit %d)", ErrCorrupt, size, MaxRecordBytes)
	}
	cap0 := int(size)
	if cap0 > readChunk {
		cap0 = readChunk
	}
	body := make([]byte, 0, cap0)
	for len(body) < int(size) {
		n := int(size) - len(body)
		if n > readChunk {
			n = readChunk
		}
		off := len(body)
		body = append(body, zeroChunk[:n]...)
		if _, err := io.ReadFull(r, body[off:]); err != nil {
			if errors.Is(err, io.EOF) {
				err = io.ErrUnexpectedEOF
			}
			return 0, nil, err
		}
	}
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("transport: %w: payload checksum mismatch (kind %d, %d bytes)", ErrCorrupt, rhdr[0], size)
	}
	return rhdr[0], body, nil
}

// ReadRecordDeadline is ReadRecord with every read bounded by a
// silence deadline — the heartbeat-liveness primitive: a peer that
// goes quiet for the window surfaces as os.ErrDeadlineExceeded
// instead of a hang. The deadline re-arms on every read, so it
// bounds the gap between arrivals, not total record transfer time: a
// large record trickling over a slow link stays alive as long as
// bytes keep flowing. A non-positive timeout reads without one.
func ReadRecordDeadline(conn net.Conn, timeout time.Duration) (uint8, []byte, error) {
	if timeout <= 0 {
		return ReadRecord(conn)
	}
	defer conn.SetReadDeadline(time.Time{})
	return ReadRecord(progressReader{conn: conn, timeout: timeout})
}

// progressReader re-arms the connection's read deadline before each
// read, turning an absolute deadline into a max-silence window.
type progressReader struct {
	conn    net.Conn
	timeout time.Duration
}

func (r progressReader) Read(p []byte) (int, error) {
	if err := r.conn.SetReadDeadline(time.Now().Add(r.timeout)); err != nil {
		return 0, err
	}
	return r.conn.Read(p)
}

// zeroChunk is the shared zero source ReadRecord grows buffers from.
var zeroChunk [readChunk]byte

// DecodeRecord gob-decodes a record payload read by ReadRecord.
func DecodeRecord(body []byte, into any) error {
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(into); err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

// UploadRecord is the wire form of core.Upload (without pixel data).
type UploadRecord struct {
	MCName  string
	EventID uint64
	Start   int
	End     int
	Bits    int64
	Final   bool
	// Seq is the sender-assigned upload sequence number, strictly
	// increasing per edge node across reconnects. Receivers
	// deduplicate retransmissions by it and acknowledge it with
	// KindUploadAck; zero means unsequenced, which is never deduplicated
	// or acked (the fleet agent sequences every upload it sends).
	Seq uint64
}

// ToRecord strips the non-wire fields from an upload.
func ToRecord(u core.Upload) UploadRecord {
	return UploadRecord{MCName: u.MCName, EventID: u.EventID, Start: u.Start, End: u.End, Bits: u.Bits, Final: u.Final}
}

// ToUpload converts a received record back to a core.Upload.
func (r UploadRecord) ToUpload() core.Upload {
	return core.Upload{MCName: r.MCName, EventID: r.EventID, Start: r.Start, End: r.End, Bits: r.Bits, Final: r.Final}
}
