package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/walog"
)

// TestReadHeaderRejects pins every way a handshake is refused: each
// version this build does not speak (zero, the retired one-way v1, and
// anything above maxVersion) wraps ErrVersion; a wrong magic and a
// handshake cut short are errors of their own.
func TestReadHeaderRejects(t *testing.T) {
	for _, v := range []uint16{0, 1, maxVersion + 1, 99} {
		var buf bytes.Buffer
		if err := WriteHeader(&buf, v); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHeader(&buf); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d error = %v, want ErrVersion", v, err)
		}
	}
	if _, err := ReadHeader(bytes.NewReader([]byte{0, 1, 2, 3, 0, 2})); err == nil || errors.Is(err, ErrVersion) {
		t.Errorf("bad magic error = %v, want a non-version error", err)
	}
	if _, err := ReadHeader(bytes.NewReader([]byte{0xFF, 0x00})); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated handshake error = %v, want io.ErrUnexpectedEOF", err)
	}
	var ok bytes.Buffer
	if err := WriteHeader(&ok, Version2); err != nil {
		t.Fatal(err)
	}
	if v, err := ReadHeader(&ok); err != nil || v != Version2 {
		t.Errorf("version 2 handshake = %d, %v", v, err)
	}
}

// TestReadHeaderRefusesGobUploadMagic pins the magic bump that came
// with the binary upload layout: a peer still speaking gob uploads
// announces the previous magic and is refused at the handshake, before
// any record could be misread.
func TestReadHeaderRefusesGobUploadMagic(t *testing.T) {
	refusesMagic(t, 0xFF00FF05)
}

// TestReadHeaderRefusesGobHeartbeatMagic pins the magic bump that came
// with the binary heartbeat layout: an agent still sending gob
// heartbeats announces the previous magic and is refused at the
// handshake, before its first heartbeat could be misread.
func TestReadHeaderRefusesGobHeartbeatMagic(t *testing.T) {
	refusesMagic(t, 0xFF00FF06)
}

// TestReadHeaderRefusesCanaryLayoutMagic pins the magic bump that came
// with the removal of the canary fields from the hello, deploy,
// undeploy and heartbeat payloads: a peer still laying them out
// announces the previous magic and is refused at the handshake, before
// its first deploy or heartbeat could be misread.
func TestReadHeaderRefusesCanaryLayoutMagic(t *testing.T) {
	refusesMagic(t, 0xFF00FF07)
}

// TestReadHeaderRefusesGobFetchDataMagic pins the magic bump that
// came with the binary fetch-data layout: an agent still sending gob
// fetch data announces the previous magic and is refused at the
// handshake, before its first fetch could be misread.
func TestReadHeaderRefusesGobFetchDataMagic(t *testing.T) {
	refusesMagic(t, 0xFF00FF08)
}

// refusesMagic checks a version-2 header carrying a retired magic is
// refused as a bad magic, not a version mismatch.
func refusesMagic(t *testing.T, stale uint32) {
	t.Helper()
	hdr := binary.BigEndian.AppendUint32(nil, stale)
	hdr = binary.BigEndian.AppendUint16(hdr, Version2)
	_, err := ReadHeader(bytes.NewReader(hdr))
	if err == nil || errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("magic %#x handshake error = %v, want bad magic", stale, err)
	}
}

// TestUploadLayout pins the upload record's wire bytes field by field,
// and that WriteRecord and DecodeRecord go through the layout rather
// than gob.
func TestUploadLayout(t *testing.T) {
	rec := UploadRecord{MCName: "cam0/loc-crop", EventID: 41, Start: 1200, End: 1248, Bits: 187_344, Final: true, Seq: 977}
	want := []byte{13}
	want = append(want, "cam0/loc-crop"...)
	want = append(want,
		41,         // EventID
		0xE0, 0x12, // Start 1200, zigzag
		0xC0, 0x13, // End 1248, zigzag
		0xA0, 0xEF, 0x16, // Bits 187344, zigzag
		1,          // Final
		0xD1, 0x07, // Seq 977
	)
	got, err := rec.AppendBinary(nil)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("layout %x (err %v), want %x", got, err, want)
	}
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, rec); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != walog.RecordHeaderLen+len(want) || buf.Len() != 34 {
		t.Fatalf("framed upload is %d bytes, want 34", buf.Len())
	}
	_, body, err := ReadRecord(&buf)
	if err != nil || !bytes.Equal(body, want) {
		t.Fatalf("record body %x (err %v), want the layout %x", body, err, want)
	}
	var back UploadRecord
	if err := DecodeRecord(body, &back); err != nil || back != rec {
		t.Fatalf("decoded %+v (err %v), want %+v", back, err, rec)
	}
}

// TestUploadLayoutRefusesMalformed: every strict prefix of a record,
// a trailing byte, and a Final byte other than 0 or 1 are errors that
// leave the target record as it was, never a half-filled one.
func TestUploadLayoutRefusesMalformed(t *testing.T) {
	valid, err := UploadRecord{MCName: "mc", EventID: 300, Start: -5, End: 70_000, Bits: 1 << 40, Final: true, Seq: 1 << 30}.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{append(valid[:len(valid):len(valid)], 0)}
	for n := range valid {
		bad = append(bad, valid[:n])
	}
	for final := byte(2); final != 0; final++ {
		b := append([]byte(nil), valid...)
		b[len(b)-6] = final // the Final byte precedes a 5-byte Seq
		bad = append(bad, b)
	}
	sentinel := UploadRecord{MCName: "untouched", Seq: 7}
	for _, b := range bad {
		rec := sentinel
		if err := DecodeRecord(b, &rec); err == nil {
			t.Fatalf("%x decoded to %+v, want an error", b, rec)
		}
		if rec != sentinel {
			t.Fatalf("refused %x changed the record to %+v", b, rec)
		}
	}
}

// TestRecordRoundTrip writes records of shrinking and growing sizes
// back to back, so WriteRecord's reused framing buffer is exercised.
func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recs := []UploadRecord{
		{MCName: "rt", EventID: 9, Start: 4, End: 8, Bits: 321, Final: true},
		{MCName: strings.Repeat("long-", 2000), EventID: 10, Seq: 7},
		{MCName: "s", Start: 1, End: 2},
	}
	for _, want := range recs {
		if err := WriteRecord(&buf, KindUpload, want); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range recs {
		kind, body, err := ReadRecord(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if kind != KindUpload {
			t.Fatalf("kind = %d, want %d", kind, KindUpload)
		}
		var got UploadRecord
		if err := DecodeRecord(body, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("round trip changed record: %+v vs %+v", got, want)
		}
	}
	// A clean end of stream at a record boundary is io.EOF.
	if _, _, err := ReadRecord(&buf); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream error = %v, want io.EOF", err)
	}
}

func TestReadRecordTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "x"}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Cut mid-payload: io.ErrUnexpectedEOF, not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:len(whole)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-payload truncation error = %v, want io.ErrUnexpectedEOF", err)
	}
	// Cut mid-header: also not a clean EOF.
	if _, _, err := ReadRecord(bytes.NewReader(whole[:3])); errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatal("mid-header truncation reported a clean EOF")
	}
}

// TestReadRecordDeadlineProgress pins the liveness semantics: the
// timeout bounds silence between arrivals, not total record transfer
// time. A record trickling in slowly must survive as long as each gap
// stays under the window; a silent peer must still time out.
func TestReadRecordDeadlineProgress(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRecord(&buf, KindUpload, UploadRecord{MCName: "slow", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go func() {
		// Trickle the record in 4 parts with 30ms gaps: total transfer
		// ~90ms, well past the 60ms silence window below.
		step := len(whole)/4 + 1
		for lo := 0; lo < len(whole); lo += step {
			hi := lo + step
			if hi > len(whole) {
				hi = len(whole)
			}
			cConn.Write(whole[lo:hi])
			time.Sleep(30 * time.Millisecond)
		}
	}()
	kind, body, err := ReadRecordDeadline(sConn, 60*time.Millisecond)
	if err != nil {
		t.Fatalf("trickled record timed out despite steady progress: %v", err)
	}
	var rec UploadRecord
	if kind != KindUpload || DecodeRecord(body, &rec) != nil || rec.MCName != "slow" {
		t.Fatalf("trickled record mangled: kind %d, rec %+v", kind, rec)
	}

	// Silence still times out.
	if _, _, err := ReadRecordDeadline(sConn, 50*time.Millisecond); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent peer error = %v, want os.ErrDeadlineExceeded", err)
	}
}

// loopConn is a net.Conn whose reads replay data over and over and
// whose deadlines are no-ops: a connection that allocates nothing, so
// a test can count what a Reader allocates.
type loopConn struct {
	net.Conn
	data []byte
	off  int
}

func (c *loopConn) Read(p []byte) (int, error) {
	n := copy(p, c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

func (c *loopConn) SetReadDeadline(time.Time) error { return nil }

// TestReaderReusesBuffer: a Reader serves records of every size, keeps
// the buffer a large record grew, and once warm reads without
// allocating, with a silence deadline and without one.
func TestReaderReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	sizes := []int{0, 10, 5000, 300, 20_000, 1}
	for i, n := range sizes {
		payload := bytes.Repeat([]byte{byte(i + 1)}, n)
		rec := make([]byte, walog.RecordHeaderLen, walog.RecordHeaderLen+n)
		if err := walog.Frame(rec, uint8(i+1), payload); err != nil {
			t.Fatal(err)
		}
		stream.Write(append(rec, payload...))
	}
	for _, timeout := range []time.Duration{0, time.Second} {
		rd := NewReader(&loopConn{data: stream.Bytes()}, timeout)
		readAll := func() {
			for i, n := range sizes {
				kind, body, err := rd.Read()
				if err != nil || kind != uint8(i+1) || len(body) != n || (n > 0 && body[n-1] != byte(i+1)) {
					t.Fatalf("record %d: kind %d, %d bytes, err %v", i, kind, len(body), err)
				}
			}
		}
		readAll()
		if allocs := testing.AllocsPerRun(50, readAll); allocs != 0 {
			t.Fatalf("timeout %v: %v allocations per %d records, want 0", timeout, allocs, len(sizes))
		}
	}
}

// TestReaderKeepsChunkRecords: a stream of records that carry one
// walog.ChunkBytes chunk each (plus a layout header) reads without
// allocating once the Reader is warm, where records just under
// walog.MaxKeptBytes do not: ReadRecordBuf grows the buffer by append,
// overshooting past the bound, and the Reader drops what it grew, so
// every such record is read into a fresh buffer. That is why a
// streamed record keeps to a quarter of the bound.
func TestReaderKeepsChunkRecords(t *testing.T) {
	stream := func(payload, records int) []byte {
		var b []byte
		for i := 0; i < records; i++ {
			rec := make([]byte, walog.RecordHeaderLen, walog.RecordHeaderLen+payload)
			body := bytes.Repeat([]byte{byte(i + 1)}, payload)
			if err := walog.Frame(rec, KindFetchData, body); err != nil {
				t.Fatal(err)
			}
			b = append(b, append(rec, body...)...)
		}
		return b
	}
	for _, tc := range []struct {
		payload int
		kept    bool
	}{
		{walog.ChunkBytes + 64, true},
		{walog.MaxKeptBytes - 1024, false},
	} {
		const records = 3
		rd := NewReader(&loopConn{data: stream(tc.payload, records)}, 0)
		read := func() {
			if _, body, err := rd.Read(); err != nil || len(body) != tc.payload {
				t.Fatalf("%d-byte record: %d bytes, err %v", tc.payload, len(body), err)
			}
		}
		read()
		allocs := testing.AllocsPerRun(records*4, read)
		if kept := allocs == 0; kept != tc.kept {
			t.Fatalf("a warm Reader allocates %v times per %d-byte record; want none: %v", allocs, tc.payload, tc.kept)
		}
	}
}

// TestReaderDeadline: a Reader with a timeout surfaces a silent peer as
// os.ErrDeadlineExceeded, as ReadRecordDeadline does.
func TestReaderDeadline(t *testing.T) {
	cConn, sConn := net.Pipe()
	defer cConn.Close()
	go WriteRecord(cConn, KindBye, struct{}{})
	rd := NewReader(sConn, 50*time.Millisecond)
	if kind, _, err := rd.Read(); err != nil || kind != KindBye {
		t.Fatalf("kind %d, err %v", kind, err)
	}
	if _, _, err := rd.Read(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("silent peer error = %v, want os.ErrDeadlineExceeded", err)
	}
}

// TestUvarintsMatchesUvarint: Uvarints reads what that many Uvarint
// calls read, and fails where they fail, over values of every width and
// inputs cut short or overlong.
func TestUvarintsMatchesUvarint(t *testing.T) {
	var inputs [][]byte
	var all []byte
	for shift := 0; shift < 64; shift += 3 {
		all = binary.AppendUvarint(all, 1<<shift|uint64(shift))
	}
	for n := 0; n <= len(all); n++ {
		inputs = append(inputs, all[:n])
	}
	inputs = append(inputs,
		[]byte{0x80, 0x00, 0x05},                 // a two-byte zero, then 5
		[]byte{0xFF, 0x80, 0x00, 0x05},           // a three-byte 127, then 5
		bytes.Repeat([]byte{0xFF}, 11),           // overflows 64 bits
		append(bytes.Repeat([]byte{0x80}, 9), 2), // overflows in the tenth byte
	)
	for _, in := range inputs {
		for count := 0; count <= 24; count++ {
			one := NewLayoutReader(in)
			want := make([]uint64, count)
			for i := range want {
				want[i] = one.Uvarint()
			}
			many := NewLayoutReader(in)
			got := make([]uint64, count)
			for i := range got {
				got[i] = 7 // dirt Uvarints must overwrite
			}
			many.Uvarints(got)
			if !slices.Equal(got, want) || (one.err == nil) != (many.err == nil) || len(one.buf) != len(many.buf) {
				t.Fatalf("%x, %d values: Uvarints %v (err %v, %d left), Uvarint %v (err %v, %d left)", in, count, got, many.err, len(many.buf), want, one.err, len(one.buf))
			}
		}
	}
}

func TestUploadRecordConversion(t *testing.T) {
	u := core.Upload{MCName: "x", EventID: 7, Start: 1, End: 9, Bits: 55, Final: true}
	back := ToRecord(u).ToUpload()
	if back.MCName != u.MCName || back.EventID != u.EventID || back.Start != u.Start ||
		back.End != u.End || back.Bits != u.Bits || back.Final != u.Final {
		t.Fatalf("round trip changed upload: %+v vs %+v", back, u)
	}
}

// TestFloat32sRoundTrip: AppendFloat32s and LayoutReader.Float32s, and
// AppendFloat32 and LayoutReader.Float32 one value at a time, carry
// every value bit for bit, NaN payloads and -0 included.
func TestFloat32sRoundTrip(t *testing.T) {
	in := []float32{1, float32(math.Copysign(0, -1)), math.Float32frombits(0x7FC0_0001), math.Float32frombits(0xFF80_0002), float32(math.Inf(-1))}
	d := NewLayoutReader(AppendFloat32s(nil, in))
	out := d.Float32s()
	if err := d.Finish(); err != nil || len(out) != len(in) {
		t.Fatalf("read %d values (err %v), want %d", len(out), err, len(in))
	}
	for i := range in {
		if math.Float32bits(out[i]) != math.Float32bits(in[i]) {
			t.Fatalf("value %d: %#x, want %#x", i, math.Float32bits(out[i]), math.Float32bits(in[i]))
		}
		one := NewLayoutReader(AppendFloat32(nil, in[i]))
		if v := one.Float32(); one.Finish() != nil || math.Float32bits(v) != math.Float32bits(in[i]) {
			t.Fatalf("value %d alone: %#x (err %v), want %#x", i, math.Float32bits(v), one.Finish(), math.Float32bits(in[i]))
		}
	}
	short := NewLayoutReader([]byte{1, 2, 3})
	if v := short.Float32(); v != 0 || short.Finish() == nil {
		t.Fatalf("3 bytes read as float32 %v, err %v", v, short.Finish())
	}
}

// TestFloat32sBoundedAllocation: a length prefix the remaining bytes
// cannot hold is refused before the slice is made, so a hostile
// count costs the reader nothing.
func TestFloat32sBoundedAllocation(t *testing.T) {
	data := append(binary.AppendUvarint(nil, 1<<22), make([]byte, 8)...) // claims 16 MB, holds 8 bytes
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := NewLayoutReader(data)
	v := d.Float32s()
	runtime.ReadMemStats(&after)
	if v != nil || d.Finish() == nil {
		t.Fatalf("a %d-value claim over 8 bytes read %d values, err %v", 1<<22, len(v), d.Finish())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("refusing the claim allocated %d bytes", grew)
	}
}
