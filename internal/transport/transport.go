// Package transport carries FilterForward traffic between an edge node
// and a datacenter over a real network connection. The paper's
// evaluation models the uplink as a bandwidth constraint
// (internal/core's token bucket); this package provides the wire layer
// a deployment needs: length-prefixed, checksummed records over any
// net.Conn — the framing primitives internal/fleet layers its
// bidirectional control plane on.
//
// The protocol is deliberately simple and version-tagged:
//
//	uint32 magic | uint16 version | stream of records
//	record:  uint8 kind | uint32 length | uint32 crc32(payload) | payload
//	payload: the fixed binary layout of KindUpload (UploadRecord),
//	         KindUploadAck, KindHeartbeat and KindFetchData
//	         (internal/fleet's UploadAck, Heartbeat and FetchData); gob
//	         for the rest: hello, welcome, deploy, undeploy, ack, fetch
//	         request, fetch response and bye
//
// The records every upload costs, the heartbeat every node sends each
// interval, and the demand-fetched pixels have a binary layout: a gob
// stream spends more on its type descriptor than on a small record,
// compiles a decoder per record, and walks a large float32 slice one
// value at a time. The remaining kinds are rare and small enough for
// gob's self-description to be worth it. Every layout decodes through
// one LayoutReader.
//
// The record framing is internal/walog's (walog.Frame and
// walog.ReadRecord): a wire record and a logged record are the same
// bytes, and an edge archive segment (internal/archive) is a run of the
// same records, so the wire, the controller's durable state store and
// the edge's frame store share one framing implementation. The per-record CRC turns wire damage
// (bit flips, mid-record byte loss) into a typed ErrCorrupt at the
// reader instead of a gob decode error — or worse, a silent desync
// that hangs the session. Readers never trust the length prefix for
// allocation: payloads are read in bounded chunks, so a hostile or
// damaged header cannot force a large up-front allocation.
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
// Uploads carry metadata, ranges, event IDs and coded sizes, not
// reconstructed frames: the receiver would decode those from the coded
// bits in a real deployment. The one record that ships reconstructed
// pixels is a demand fetch's KindFetchData, which the datacenter asks
// for explicitly.
package transport

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/walog"
)

// magic identifies the wire format, including the record framing
// revision and payload layouts. It was bumped (…04 → …05) when records
// gained the CRC field, again (…05 → …06) when upload and upload-ack
// payloads left gob for their binary layout, again (…06 → …07) when
// heartbeats did, again (…07 → …08) when the hello, deploy, undeploy
// and heartbeat payloads lost their canary and shadow fields, and
// again (…08 → …09) when fetch data left gob for its binary layout: an
// older build pairs with this one only up to the handshake, where the
// stale magic is rejected cleanly — without the bump the handshake
// would succeed and the session would fail mid-stream on its first
// upload, deploy, heartbeat or fetch.
const magic = 0xFF00FF09

// Protocol versions. A client announces the version it speaks in its
// header; the server echoes the version it accepts back.
const (
	// Version2 is the bidirectional fleet control plane, and the oldest
	// version this build speaks.
	Version2 = 2
	// maxVersion is the newest version this build speaks.
	maxVersion = Version2
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
	// KindRedirect is reserved: it once told an edge that a live
	// shard-count change had moved its node to another controller
	// shard. Never reuse the number.
	//
	// Deprecated: the controller's shard count is fixed for its life,
	// so nothing sends it; an agent receiving it treats it as an
	// unknown kind and redials.
	KindRedirect uint8 = 13
)

// ErrVersion is wrapped by handshake errors caused by a version this
// build does not speak.
var ErrVersion = errors.New("unsupported version")

// ErrCorrupt is wrapped by record-read errors caused by wire damage —
// a length prefix beyond the record limit or a payload failing its
// CRC. Sessions treat it as a broken connection and reconnect rather
// than trying to resync the stream. It is walog.ErrCorrupt: the
// framing is shared.
var ErrCorrupt = walog.ErrCorrupt

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
// maxVersion fail with an error wrapping ErrVersion.
func ReadHeader(r io.Reader) (uint16, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("transport: read handshake: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return 0, errors.New("transport: bad magic")
	}
	v := binary.BigEndian.Uint16(hdr[4:6])
	if v < Version2 || v > maxVersion {
		return 0, fmt.Errorf("transport: %w %d", ErrVersion, v)
	}
	return v, nil
}

// AppendPayload appends payload's record encoding to b: its
// AppendBinary when it has one (the upload, upload-ack, heartbeat,
// fetch-data and move-in layouts), a self-describing gob stream
// otherwise. DecodeRecord reverses it.
func AppendPayload(b []byte, payload any) ([]byte, error) {
	if ba, ok := payload.(encoding.BinaryAppender); ok {
		return ba.AppendBinary(b)
	}
	out := bytes.NewBuffer(b)
	err := gob.NewEncoder(out).Encode(payload)
	return out.Bytes(), err
}

// EncodeRecord encodes payload with AppendPayload as one framed record
// of kind, ready for a single Write. Senders encode before they hand
// the record to whatever serializes their connection's writes (a lock,
// or a writer goroutine), so that covers only the write. The caller
// owns the returned bytes.
func EncodeRecord(kind uint8, payload any) ([]byte, error) {
	return FrameRecord(make([]byte, 0, walog.RecordHeaderLen+64), kind, payload)
}

// FrameRecord is EncodeRecord into buf's storage, growing it only when
// the record does not fit: a sender that frames record after record
// into the buffer it got back allocates nothing once the buffer is
// large enough.
func FrameRecord(buf []byte, kind uint8, payload any) ([]byte, error) {
	buf, err := AppendPayload(append(buf[:0], make([]byte, walog.RecordHeaderLen)...), payload)
	if err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	if err := walog.Frame(buf, kind, buf[walog.RecordHeaderLen:]); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return buf, nil
}

// recordBufs holds WriteRecord's framing buffers, each up to
// walog.MaxKeptBytes. An io.Writer must not retain what it is given,
// so a buffer is reusable once Write returns.
var recordBufs = sync.Pool{New: func() any { return new([]byte) }}

// WriteRecord writes payload to w as one framed record (EncodeRecord)
// in a single Write, framed into a pooled buffer. The caller is
// responsible for serializing concurrent writers.
func WriteRecord(w io.Writer, kind uint8, payload any) error {
	bp := recordBufs.Get().(*[]byte)
	rec, err := FrameRecord(*bp, kind, payload)
	if err == nil {
		_, err = w.Write(rec)
		if cap(rec) <= walog.MaxKeptBytes {
			*bp = rec
		}
	}
	recordBufs.Put(bp)
	return err
}

// WriteDeadline writes one record EncodeRecord framed, bounded by a
// deadline so a stalled peer cannot hang the writer forever. A
// non-positive timeout writes without a deadline.
func WriteDeadline(conn net.Conn, rec []byte, timeout time.Duration) error {
	if timeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(timeout)); err != nil {
			return err
		}
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(rec)
	return err
}

// ReadRecord reads one framed record, returning its kind and raw
// payload bytes, which the caller owns, with walog.ReadRecord: a clean
// end of stream at a record boundary returns io.EOF; truncation
// mid-record returns io.ErrUnexpectedEOF; a length prefix beyond the
// limit or a payload failing its CRC returns an error wrapping
// ErrCorrupt. A loop reading one connection should use a Reader, which
// reuses one buffer.
func ReadRecord(r io.Reader) (uint8, []byte, error) { return walog.ReadRecord(r) }

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

// Reader reads one connection's records through a buffer it reuses:
// one conn Read takes whatever the peer has sent, so a burst of records
// costs one read, and a steady stream of them costs no allocation.
// Before each conn Read it re-arms the silence deadline, as
// ReadRecordDeadline does. A payload aliases the buffer and is valid
// only until the next Read: every decoder copies what it keeps out of
// the payload (LayoutReader's String and Float32s, gob), so decode
// before reading again. Buffered reports whether the next Read can
// return a whole record without a conn Read.
//
// The buffer starts at 4 KiB. A record that does not fit grows it by at
// most readerStep past the bytes that have arrived, never from the
// length prefix alone, so a forged prefix costs one step, not
// walog.MaxRecordBytes. A buffer grown to readerStep or less is kept;
// a larger one, grown by a demand fetch's chunks, is kept while such
// records keep coming and gives way to the 4 KiB start once a record of
// at most readerStep has been read and nothing more is buffered, so one
// fetch does not pin its chunk size for the connection's life. One
// goroutine reads a Reader.
type Reader struct {
	conn    net.Conn
	timeout time.Duration
	start   []byte // the buffer every Reader starts with
	buf     []byte // start or a grown buffer, at its full length
	r, w    int    // buf[r:w] arrived and is not yet returned
}

// readerStep bounds how far a Reader grows its buffer past the bytes
// that have arrived, and the buffer it keeps whatever records follow:
// walog's read chunk.
const readerStep = 64 << 10

// NewReader returns a Reader over conn. A positive timeout bounds
// every conn Read as ReadRecordDeadline does; otherwise reads wait.
func NewReader(conn net.Conn, timeout time.Duration) *Reader {
	start := make([]byte, 4<<10)
	return &Reader{conn: conn, timeout: timeout, start: start, buf: start}
}

// Read returns the next record, with ReadRecord's errors: io.EOF only
// when the stream ends at a record boundary, io.ErrUnexpectedEOF when
// it ends inside one, an error wrapping ErrCorrupt for a length prefix
// over walog.MaxRecordBytes or a payload failing its CRC, and the
// connection's own error (os.ErrDeadlineExceeded after a silent
// timeout) otherwise. The payload aliases the Reader's buffer until the
// next Read.
func (rd *Reader) Read() (uint8, []byte, error) {
	if err := rd.fill(walog.RecordHeaderLen); err != nil {
		if errors.Is(err, io.EOF) && rd.w > rd.r {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	size := binary.BigEndian.Uint32(rd.buf[rd.r+1:])
	if size > walog.MaxRecordBytes {
		return 0, nil, fmt.Errorf("%w: length prefix claims %d bytes (limit %d)", ErrCorrupt, size, walog.MaxRecordBytes)
	}
	n := walog.RecordHeaderLen + int(size)
	if err := rd.fill(n); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	kind, body, err := walog.CheckRecord(rd.buf[rd.r : rd.r+n])
	rd.r += n
	if rd.r == rd.w {
		rd.r, rd.w = 0, 0
		if len(rd.buf) > readerStep && (n <= readerStep || len(rd.buf) > walog.MaxKeptBytes) {
			rd.buf = rd.start
		}
	}
	return kind, body, err
}

// Buffered reports whether a whole record has arrived that no Read has
// returned yet: the next Read then returns without a conn Read.
func (rd *Reader) Buffered() bool {
	have := rd.w - rd.r
	return have >= walog.RecordHeaderLen &&
		have-walog.RecordHeaderLen >= int(binary.BigEndian.Uint32(rd.buf[rd.r+1:]))
}

// fill reads from the connection until n bytes of the record at r have
// arrived, moving them to the front of the buffer or growing it when
// they do not fit. Bytes that arrive with an error still count; the
// error is returned only when they fall short.
func (rd *Reader) fill(n int) error {
	if rd.w-rd.r >= n {
		return nil
	}
	if rd.r+n > len(rd.buf) && n <= len(rd.buf) {
		rd.w = copy(rd.buf, rd.buf[rd.r:rd.w])
		rd.r = 0
	}
	for rd.w-rd.r < n {
		if rd.w == len(rd.buf) {
			have := rd.w - rd.r
			grown := make([]byte, min(n, have+readerStep))
			rd.r, rd.w, rd.buf = 0, copy(grown, rd.buf[rd.r:rd.w]), grown
		}
		if rd.timeout > 0 {
			if err := rd.conn.SetReadDeadline(time.Now().Add(rd.timeout)); err != nil {
				return err
			}
		}
		k, err := rd.conn.Read(rd.buf[rd.w:])
		rd.w += k
		if err != nil && rd.w-rd.r < n {
			return err
		}
	}
	return nil
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

// DecodeRecord decodes a payload AppendPayload encoded — a record read
// by ReadRecord — into into: with its UnmarshalBinary when it has one
// (the upload, upload-ack, heartbeat, fetch-data and move-in layouts),
// gob otherwise.
func DecodeRecord(body []byte, into any) error {
	var err error
	if bu, ok := into.(encoding.BinaryUnmarshaler); ok {
		err = bu.UnmarshalBinary(body)
	} else {
		err = gob.NewDecoder(bytes.NewReader(body)).Decode(into)
	}
	if err != nil {
		return fmt.Errorf("transport: decode: %w", err)
	}
	return nil
}

// UploadRecord is the wire form of core.Upload (without pixel data).
// Its payload is a fixed binary layout, the fields in declaration
// order:
//
//	uvarint len(MCName) | MCName | uvarint EventID | varint Start |
//	varint End | varint Bits | uint8 Final (0 or 1) | uvarint Seq
//
// A record with a 13-byte name and frame-scale numbers takes 25 bytes,
// 34 framed; the gob stream of the same record took 135. Decoding
// refuses truncated input, trailing bytes and a Final byte other than
// 0 or 1, and leaves the record untouched when it does.
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

// AppendBinary appends the record's binary layout to b.
func (r UploadRecord) AppendBinary(b []byte) ([]byte, error) {
	b = AppendString(b, r.MCName)
	b = binary.AppendUvarint(b, r.EventID)
	b = binary.AppendVarint(b, int64(r.Start))
	b = binary.AppendVarint(b, int64(r.End))
	b = binary.AppendVarint(b, r.Bits)
	b = AppendBool(b, r.Final)
	return binary.AppendUvarint(b, r.Seq), nil
}

// UnmarshalBinary decodes exactly one record's binary layout.
func (r *UploadRecord) UnmarshalBinary(data []byte) error {
	d := NewLayoutReader(data)
	rec := UploadRecord{
		MCName:  d.String(),
		EventID: d.Uvarint(),
		Start:   d.Int(),
		End:     d.Int(),
		Bits:    d.Varint(),
		Final:   d.Bool(),
		Seq:     d.Uvarint(),
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("upload record: %w", err)
	}
	*r = rec
	return nil
}

// AppendString appends s as a binary layout string: its uvarint byte
// length, then its bytes. LayoutReader.String reads it back.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as a flag byte, 0 or 1. LayoutReader.Bool
// reads it back.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends v as its 8 IEEE 754 bytes, little-endian.
// LayoutReader.Float64 reads it back.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendFloat32 appends v as its 4 IEEE 754 bytes, little-endian.
// LayoutReader.Float32 reads it back.
func AppendFloat32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// AppendFloat32s appends v as its uvarint length, then each value as
// its 4 IEEE 754 bytes, little-endian. LayoutReader.Float32s reads it
// back.
func AppendFloat32s(b []byte, v []float32) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	n := len(b)
	b = slices.Grow(b, 4*len(v))[:n+4*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[n+4*i:], math.Float32bits(x))
	}
	return b
}

// LayoutReader reads a binary record layout field by field — the one
// decoder every fixed-layout payload (uploads, upload acks, heartbeats,
// fetch data, the fleet controller's move-ins) goes through. The first
// malformed field records an error and every later read returns zero,
// so a decoder reads all its fields and checks once, in Finish.
type LayoutReader struct {
	buf []byte
	err error
}

// NewLayoutReader returns a reader over one payload.
func NewLayoutReader(data []byte) LayoutReader { return LayoutReader{buf: data} }

// Fail records err as the layout's error (the first one wins) and
// drops the unread bytes, so every later read returns zero. Decoders
// call it for checks of their own, such as a duplicate map key.
func (d *LayoutReader) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

// Uvarint reads an unsigned varint.
func (d *LayoutReader) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.Fail(errors.New("truncated or overlong uvarint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (d *LayoutReader) Varint() int64 {
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.Fail(errors.New("truncated or overlong varint"))
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// Int reads a signed varint that must fit an int.
func (d *LayoutReader) Int() int {
	v := d.Varint()
	if int64(int(v)) != v {
		d.Fail(fmt.Errorf("%d overflows int", v))
		return 0
	}
	return int(v)
}

// Bool reads a flag byte, refusing anything but 0 or 1.
func (d *LayoutReader) Bool() bool {
	if len(d.buf) == 0 {
		d.Fail(errors.New("truncated flag"))
		return false
	}
	v := d.buf[0]
	if v > 1 {
		d.Fail(fmt.Errorf("flag byte %d, want 0 or 1", v))
		return false
	}
	d.buf = d.buf[1:]
	return v == 1
}

// Float64 reads a float64 as its 8 IEEE 754 bytes, little-endian, so
// every value (NaN payloads included) crosses the wire bit for bit.
func (d *LayoutReader) Float64() float64 {
	if len(d.buf) < 8 {
		d.Fail(fmt.Errorf("float64 of 8 bytes, %d left", len(d.buf)))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf))
	d.buf = d.buf[8:]
	return v
}

// Float32 reads a float32 as its 4 IEEE 754 bytes, little-endian, bit
// for bit.
func (d *LayoutReader) Float32() float32 {
	if len(d.buf) < 4 {
		d.Fail(fmt.Errorf("float32 of 4 bytes, %d left", len(d.buf)))
		return 0
	}
	v := math.Float32frombits(binary.LittleEndian.Uint32(d.buf))
	d.buf = d.buf[4:]
	return v
}

// Float32s reads a slice AppendFloat32s wrote, bit for bit (NaN
// payloads included). A length the remaining bytes could not hold is
// refused before anything is allocated.
func (d *LayoutReader) Float32s() []float32 {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/4) {
		d.Fail(fmt.Errorf("%d float32s, %d bytes left", n, len(d.buf)))
		return nil
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[4*i:]))
	}
	d.buf = d.buf[4*n:]
	return v
}

// Uvarints reads len(dst) unsigned varints into dst, as that many
// Uvarint calls would, with fast paths for values of up to three
// bytes. After a malformed one, it and every later entry read zero.
func (d *LayoutReader) Uvarints(dst []uint64) {
	buf := d.buf
	for i := range dst {
		if len(buf) > 0 && buf[0] < 0x80 {
			dst[i], buf = uint64(buf[0]), buf[1:]
			continue
		}
		if len(buf) > 1 && buf[1] < 0x80 {
			dst[i], buf = uint64(buf[0]&0x7f)|uint64(buf[1])<<7, buf[2:]
			continue
		}
		if len(buf) > 2 && buf[2] < 0x80 {
			dst[i], buf = uint64(buf[0]&0x7f)|uint64(buf[1]&0x7f)<<7|uint64(buf[2])<<14, buf[3:]
			continue
		}
		v, n := binary.Uvarint(buf)
		if n <= 0 {
			clear(dst[i:])
			d.Fail(errors.New("truncated or overlong uvarint"))
			return
		}
		dst[i], buf = v, buf[n:]
	}
	d.buf = buf
}

// String reads a string AppendString wrote.
func (d *LayoutReader) String() string { return string(d.Bytes()) }

// Bytes reads a string AppendString wrote without copying it: the
// result aliases the payload, so a decoder that keeps it must copy it
// (String, or an intern table).
func (d *LayoutReader) Bytes() []byte {
	n := d.Uvarint()
	if n > uint64(len(d.buf)) {
		d.Fail(fmt.Errorf("string of %d bytes, %d left", n, len(d.buf)))
		return nil
	}
	b := d.buf[:n:n]
	d.buf = d.buf[n:]
	return b
}

// Count reads an entry count (a uvarint) for a sequence whose entries
// take at least minBytes each, refusing a count the remaining bytes
// could not hold — so a hostile prefix cannot make the decoder
// allocate for entries that are not there.
func (d *LayoutReader) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)/minBytes) {
		d.Fail(fmt.Errorf("%d entries of at least %d bytes, %d bytes left", n, minBytes, len(d.buf)))
		return 0
	}
	return int(n)
}

// Finish reports the first malformed field, or bytes left over after
// the last one.
func (d *LayoutReader) Finish() error {
	if d.err == nil && len(d.buf) > 0 {
		return fmt.Errorf("%d trailing bytes", len(d.buf))
	}
	return d.err
}
