package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// frameRecord frames one record the way Append does.
func frameRecord(kind uint8, payload []byte) []byte {
	buf := make([]byte, RecordHeaderLen+len(payload))
	buf[0] = kind
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[5:9], crc32.ChecksumIEEE(payload))
	copy(buf[RecordHeaderLen:], payload)
	return buf
}

func fileHeaderBytes(ftype uint8, id, gen uint64) []byte {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], formatVersion)
	hdr[6] = ftype
	binary.BigEndian.PutUint64(hdr[8:16], id)
	binary.BigEndian.PutUint64(hdr[16:24], gen)
	return hdr[:]
}

func FuzzWALReadRecord(f *testing.F) {
	whole := frameRecord(3, []byte("wal-fuzz-payload"))
	f.Add(whole)
	f.Add(whole[:len(whole)-2]) // torn payload
	f.Add(whole[:4])            // torn header
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)-1] ^= 0x40 // payload corruption
	f.Add(flipped)
	crcFlip := append([]byte(nil), whole...)
	crcFlip[6] ^= 0x80 // crc field corruption
	f.Add(crcFlip)
	huge := []byte{1, 0x7F, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0} // 2 GB length claim
	f.Add(huge)
	maxed := []byte{1, 0x01, 0x00, 0x00, 0x00, 0, 0, 0, 0, 'x'} // in-limit claim, short body
	f.Add(maxed)
	f.Add(frameRecord(0, nil)) // empty payload
	f.Add(append(append([]byte(nil), whole...), whole...))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, body, err := ReadRecord(bytes.NewReader(data))
		// The buffer-taking read gives the same record or error, into
		// a dirty buffer too small for it or one with room to spare.
		dirty := bytes.Repeat([]byte{0xA5}, RecordHeaderLen+1)
		for _, buf := range [][]byte{dirty, make([]byte, 0, len(data)+64)} {
			k, b, e := ReadRecordBuf(bytes.NewReader(data), buf)
			if k != kind || !bytes.Equal(b, body) || (b == nil) != (body == nil) || fmt.Sprint(e) != fmt.Sprint(err) || errors.Is(e, ErrCorrupt) != errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadRecordBuf with a buffer of %d: kind %d, body %x, err %v; ReadRecord: kind %d, body %x, err %v", cap(buf), k, b, e, kind, body, err)
			}
		}
		if err != nil {
			// Errors must be diagnosable, never a desync: damage and
			// oversize claims wrap ErrCorrupt; truncation is an EOF
			// variant. Nothing here may panic or over-allocate.
			return
		}
		// On success the framing must be internally consistent.
		if len(body) > len(data)-RecordHeaderLen {
			t.Fatalf("body of %d bytes from %d input bytes", len(body), len(data))
		}
		if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[5:9]) {
			t.Fatalf("accepted record whose CRC does not match")
		}
		if kind != data[0] {
			t.Fatalf("kind %d from input byte %d", kind, data[0])
		}
	})
}

func FuzzWALParseSnapshot(f *testing.F) {
	good := append(fileHeaderBytes(typeSnapshot, 0x1234, 2), frameRecord(typeSnapshot, []byte("snapshot-state"))...)
	f.Add(good)
	f.Add(good[:headerLen])   // header only, no record
	f.Add(good[:len(good)-3]) // torn record
	f.Add(good[:5])           // torn header
	f.Add([]byte{})           // empty file
	badMagic := append([]byte(nil), good...)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	walType := append(fileHeaderBytes(typeWAL, 0x1234, 2), frameRecord(typeSnapshot, []byte("x"))...)
	f.Add(walType) // wrong file type
	f.Fuzz(func(t *testing.T, data []byte) {
		id, gen, payload, err := ParseSnapshot(data)
		if err != nil {
			return
		}
		if len(payload) > len(data) {
			t.Fatalf("payload of %d bytes from %d input bytes", len(payload), len(data))
		}
		_ = id
		_ = gen
	})
}

// FuzzWALOpen drops arbitrary bytes behind a valid wal prefix and
// checks Open always recovers the intact records, truncates the rest,
// and leaves a log that accepts appends — the torn-tail contract under
// adversarial tails.
func FuzzWALOpen(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(frameRecord(7, []byte("a whole third record")))
	f.Add(frameRecord(7, []byte("torn"))[:6])
	f.Add([]byte{9, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // oversize claim
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("fresh Open: %v", err)
		}
		if err := l.Append(1, []byte("first")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(2, []byte("second")); err != nil {
			t.Fatal(err)
		}
		gen := l.Gen()
		l.Abandon()
		wf, err := os.OpenFile(filepath.Join(dir, walName(gen)), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		wf.Write(tail)
		wf.Close()

		l2, err := Open(dir)
		if err != nil {
			t.Fatalf("Open after tail injection: %v", err)
		}
		recs := l2.Records()
		if len(recs) < 2 {
			t.Fatalf("lost intact records: %d replayed", len(recs))
		}
		if recs[0].Kind != 1 || !bytes.Equal(recs[0].Payload, []byte("first")) ||
			recs[1].Kind != 2 || !bytes.Equal(recs[1].Payload, []byte("second")) {
			t.Fatalf("intact records damaged: %v", recs[:2])
		}
		if err := l2.Append(3, []byte("post")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l2.Close()
		l3, err := Open(dir)
		if err != nil {
			t.Fatalf("third Open: %v", err)
		}
		last := l3.Records()[len(l3.Records())-1]
		if last.Kind != 3 || !bytes.Equal(last.Payload, []byte("post")) {
			t.Fatalf("post-recovery append lost: %v", last)
		}
		l3.Close()
	})
}
