package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/walog"
)

// validRecordBytes frames one upload record.
func validRecordBytes(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	rec := UploadRecord{MCName: "fuzz-mc", EventID: 3, Start: 10, End: 20, Bits: 4096, Final: true, Seq: 7}
	if err := WriteRecord(&buf, KindUpload, rec); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzReadHeader(f *testing.F) {
	var ok bytes.Buffer
	WriteHeader(&ok, Version2)
	f.Add(ok.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x09, 0x00, 0x63}) // bad version
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x09, 0x00, 0x01}) // retired version 1
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x09, 0x00, 0x00}) // version 0
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x05, 0x00, 0x02}) // gob upload layout magic
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05}) // bad magic
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x06, 0x00, 0x02}) // gob heartbeat layout magic
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x07, 0x00, 0x02}) // canary layout magic
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x08, 0x00, 0x02}) // gob fetch-data layout magic
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ReadHeader(bytes.NewReader(data))
		if err != nil {
			return
		}
		if v < Version2 || v > maxVersion {
			t.Fatalf("ReadHeader accepted version %d", v)
		}
	})
}

func FuzzReadRecord(f *testing.F) {
	whole := validRecordBytes(f)
	f.Add(whole)
	f.Add(whole[:len(whole)-2]) // truncated payload
	f.Add(whole[:3])            // truncated header
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x40 // payload corruption
	f.Add(flipped)
	huge := []byte{KindUpload, 0x7F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0} // 2 GB length claim
	f.Add(huge)
	maxed := []byte{KindUpload, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0, 'x'} // in-limit claim, short body
	f.Add(maxed)
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := ReadRecord(bytes.NewReader(data))
		if err != nil {
			// Errors must be diagnosable, never a desync: corruption
			// and oversize claims wrap ErrCorrupt; truncation is an
			// EOF variant.
			return
		}
		// On success the framing must be internally consistent.
		if len(body) > len(data)-walog.RecordHeaderLen {
			t.Fatalf("body of %d bytes from %d input bytes", len(body), len(data))
		}
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[5:9]) {
			t.Fatalf("accepted record whose CRC does not match")
		}
		// Decoding an arbitrary accepted payload must not panic.
		var rec UploadRecord
		_ = DecodeRecord(body, &rec)
		_ = kind
	})
}

// FuzzDecodeUpload feeds arbitrary payloads to the upload layout's
// decoder: nothing panics, a refused input leaves the record untouched,
// and an accepted one re-encodes to bytes that decode back to the same
// record.
func FuzzDecodeUpload(f *testing.F) {
	valid, err := UploadRecord{MCName: "cam0/loc-crop", EventID: 41, Start: 1200, End: 1248, Bits: 187_344, Final: true, Seq: 977}.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	extremes, err := UploadRecord{EventID: 1<<64 - 1, Start: -1 << 62, End: 1<<62 - 1, Bits: -1, Seq: 1<<64 - 1}.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	badFinal := append([]byte(nil), valid...)
	badFinal[len(badFinal)-3] = 2 // the Final byte precedes a 2-byte Seq
	f.Add(valid)
	f.Add(extremes)
	f.Add(valid[:len(valid)-1])                     // truncated Seq
	f.Add(append(valid[:len(valid):len(valid)], 0)) // trailing byte
	f.Add(badFinal)
	f.Add([]byte{0xFF, 0x01, 'x'}) // name longer than the input
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec UploadRecord
		if err := DecodeRecord(data, &rec); err != nil {
			if rec != (UploadRecord{}) {
				t.Fatalf("refused input %x still set fields: %+v", data, rec)
			}
			return
		}
		again, err := rec.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		var back UploadRecord
		if err := DecodeRecord(again, &back); err != nil || back != rec {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x and decodes to %+v (err %v)", data, rec, again, back, err)
		}
	})
}

// TestReadRecordCorruption pins the typed-error contract: any wire
// damage surfaces as ErrCorrupt, not a gob error or a hang.
func TestReadRecordCorruption(t *testing.T) {
	whole := validRecordBytes(t)
	t.Run("payload bit flip", func(t *testing.T) {
		bad := append([]byte(nil), whole...)
		bad[walog.RecordHeaderLen+4] ^= 0x01
		if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("crc field flip", func(t *testing.T) {
		bad := append([]byte(nil), whole...)
		bad[6] ^= 0x80
		if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("length beyond limit", func(t *testing.T) {
		bad := []byte{KindUpload, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
		if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("mid-record byte drop", func(t *testing.T) {
		bad := append([]byte(nil), whole[:walog.RecordHeaderLen+3]...)
		bad = append(bad, whole[walog.RecordHeaderLen+5:]...)
		bad = append(bad, whole...) // next record supplies the missing length
		if _, _, err := ReadRecord(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("clean record still reads", func(t *testing.T) {
		kind, body, err := ReadRecord(bytes.NewReader(whole))
		if err != nil || kind != KindUpload {
			t.Fatalf("kind %d, err %v", kind, err)
		}
		var rec UploadRecord
		if err := DecodeRecord(body, &rec); err != nil || rec.Seq != 7 {
			t.Fatalf("rec %+v, err %v", rec, err)
		}
	})
}

// readChunk is the most ReadRecord asks of its reader in one call
// (walog's read chunk).
const readChunk = 64 << 10

// TestReadRecordBoundedAllocation checks a huge length claim on a
// truncated stream fails after at most one chunk of buffer growth —
// the reader never allocates from the length prefix alone.
func TestReadRecordBoundedAllocation(t *testing.T) {
	hdr := []byte{KindUpload, 0x00, 0xF0, 0x00, 0x00, 0, 0, 0, 0} // claims ~15 MB
	input := append(hdr, make([]byte, 32)...)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ReadRecord(bytes.NewReader(input)); err == nil {
			t.Fatal("truncated 15 MB claim accepted")
		}
	})
	// One buffer chunk + reader + error wrapping: a 15 MB up-front
	// make would not change the alloc count, so also bound bytes via
	// a custom reader that counts what was ever requested.
	if allocs > 16 {
		t.Fatalf("ReadRecord made %.0f allocations on a truncated claim", allocs)
	}
	cr := &countingReader{data: input}
	_, _, err := ReadRecord(cr)
	if err == nil {
		t.Fatal("truncated claim accepted")
	}
	if cr.maxReq > readChunk {
		t.Fatalf("reader requested %d bytes in one call, chunk limit is %d", cr.maxReq, readChunk)
	}
}

type countingReader struct {
	data   []byte
	off    int
	maxReq int
}

func (r *countingReader) Read(p []byte) (int, error) {
	if len(p) > r.maxReq {
		r.maxReq = len(p)
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// shortConn is a net.Conn over a fixed stream whose reads return short:
// each Read takes its size from the next cut byte (1 to 64 bytes, or up
// to the whole request for a cut byte's high values), and the read that
// reaches the end returns io.EOF along with its bytes when the cut
// byte's low bit is set, alone on the next Read otherwise. It counts
// its reads.
type shortConn struct {
	net.Conn
	data, cuts []byte
	reads      int
}

func (c *shortConn) Read(p []byte) (int, error) {
	c.reads++
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	cut := byte(0xFF)
	if len(c.cuts) > 0 {
		cut, c.cuts = c.cuts[0], c.cuts[1:]
	}
	n := min(len(p), len(c.data))
	if cut < 0xC0 {
		n = min(n, int(cut%64)+1)
	}
	copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && cut&1 == 1 {
		return n, io.EOF
	}
	return n, nil
}

func (c *shortConn) SetReadDeadline(time.Time) error { return nil }

// errClass names the part of ReadRecord's error contract an error
// falls in.
func errClass(err error) string {
	switch {
	case err == nil:
		return "none"
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "unexpected EOF"
	case errors.Is(err, ErrCorrupt):
		return "corrupt"
	}
	return "other: " + err.Error()
}

// readerStream frames n upload records of growing names back to back.
func readerStream(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	for i := range n {
		rec := UploadRecord{MCName: strings.Repeat("m", 7*i), EventID: uint64(i), Start: i, End: i + 3, Bits: 100, Seq: uint64(i + 1)}
		if err := WriteRecord(&buf, KindUpload, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzReader feeds a stream of records, cut short or damaged, through a
// Reader over a connection that returns random short reads: every
// record it returns is the one ReadRecord returns from the same bytes,
// the error it stops at falls in the same class (io.EOF only at a
// record boundary, io.ErrUnexpectedEOF inside a record, ErrCorrupt for
// a bad length or CRC), a Read after Buffered reported a whole record
// makes no conn Read, and the buffer never grows more than a step past
// the bytes that arrived.
func FuzzReader(f *testing.F) {
	stream := readerStream(f, 6)
	f.Add(stream, []byte{})
	f.Add(stream, []byte{0, 1, 2, 3, 62, 63, 0xFF, 5})
	f.Add(stream[:len(stream)-4], []byte{8, 9, 0xC1}) // cut inside the last record
	f.Add(stream[:len(stream)-40], []byte{3})         // cut inside a header
	f.Add(stream[:0], []byte{1})                      // nothing at all
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 0x10 // a payload or header bit flip
	f.Add(flipped, []byte{17, 0xC3, 2})
	forged := append([]byte{KindUpload, 0x00, 0xF0, 0x00, 0x00, 0, 0, 0, 0}, make([]byte, 300)...)
	f.Add(forged, []byte{0xFE})
	f.Add(append(stream[:len(stream):len(stream)], KindUpload, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0), []byte{0xFF})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		ref := bytes.NewReader(data)
		conn := &shortConn{data: data, cuts: cuts}
		rd := NewReader(conn, time.Hour)
		for i := 0; ; i++ {
			wantKind, wantBody, wantErr := ReadRecord(ref)
			buffered, reads := rd.Buffered(), conn.reads
			kind, body, err := rd.Read()
			if buffered && conn.reads != reads {
				t.Fatalf("record %d: Buffered reported a whole record, and Read read the conn", i)
			}
			if errClass(err) != errClass(wantErr) {
				t.Fatalf("record %d: Reader error %v, ReadRecord error %v", i, err, wantErr)
			}
			if len(rd.buf) > max(4<<10, len(data)+readerStep) {
				t.Fatalf("record %d: a %d-byte buffer for %d bytes of stream", i, len(rd.buf), len(data))
			}
			if wantErr != nil {
				return
			}
			if kind != wantKind || !bytes.Equal(body, wantBody) {
				t.Fatalf("record %d: Reader kind %d, %d bytes; ReadRecord kind %d, %d bytes", i, kind, len(body), wantKind, len(wantBody))
			}
		}
	})
}
