package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// frameRecords frames each record in turn: a compacted prefix.
func frameRecords(recs ...Record) []byte {
	var out []byte
	for _, r := range recs {
		out = append(out, frameRecord(r.Kind, r.Payload)...)
	}
	return out
}

// genFile is a generation file image: the header naming prefix's
// length, prefix, then tail.
func genFile(prefix, tail []byte) []byte {
	hdr := make([]byte, headerLen)
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], formatVersion)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(len(prefix)))
	return append(append(hdr, prefix...), tail...)
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
		// The in-place check accepts exactly one whole record, the one
		// ReadRecord reads.
		if k, b, e := CheckRecord(data); (e == nil) != (err == nil && RecordHeaderLen+len(body) == len(data)) || e == nil && (k != kind || !bytes.Equal(b, body)) {
			t.Fatalf("CheckRecord: kind %d, body %x, err %v; ReadRecord: kind %d, body %x of %d input bytes, err %v", k, b, e, kind, body, len(data), err)
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

// FuzzWALParseSnapshot hands arbitrary bytes to WriteSnapshot as the
// compacted state and reopens the log, which parses them back as the
// new generation's prefix. Bytes that scan as whole framed records
// must reopen as exactly those records, with no records after them;
// anything else is refused with ErrCorrupt, leaving the directory as
// WriteSnapshot left it.
func FuzzWALParseSnapshot(f *testing.F) {
	good := frameRecord(2, []byte("snapshot-state"))
	f.Add(good)
	f.Add([]byte{})           // empty state
	f.Add(good[:len(good)-3]) // torn record
	f.Add(good[:5])           // torn record header
	f.Add(append(slices.Clone(good), frameRecord(3, []byte("second node"))...))
	damaged := slices.Clone(good)
	damaged[len(damaged)-1] ^= 0x40
	f.Add(damaged)
	f.Add([]byte{2, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}) // oversize claim
	f.Fuzz(func(t *testing.T, data []byte) {
		want, _, wantErr := scanRecords(data)
		dir := t.TempDir()
		l, err := Open(dir)
		if err != nil {
			t.Fatalf("fresh Open: %v", err)
		}
		l.Append(1, []byte("before the snapshot"))
		if err := l.WriteSnapshot(data); err != nil {
			t.Fatal(err)
		}
		l.Close()
		written := readDir(t, dir)

		l, err = Open(dir)
		if wantErr != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open of a snapshot that does not scan (%v): %v, want ErrCorrupt", wantErr, err)
			}
			if !reflect.DeepEqual(readDir(t, dir), written) {
				t.Fatalf("refused Open (%v) changed the directory", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open of a snapshot of %d whole records: %v", len(want), err)
		}
		defer l.Close()
		if !sameRecords(l.Snapshot(), want) || len(l.Records()) != 0 {
			t.Fatalf("snapshot of records %v reopened as prefix %v and records %v", want, l.Snapshot(), l.Records())
		}
		if l.SnapshotSize() != headerLen+int64(len(data)) {
			t.Fatalf("snapshot size %d for a %d-byte snapshot", l.SnapshotSize(), len(data))
		}
	})
}

// scanRecords reads b as framed records, returning the whole records,
// the bytes they take, and the error that stopped the scan (nil when b
// is whole records).
func scanRecords(b []byte) ([]Record, int64, error) {
	var recs []Record
	n, err := Scan(bytes.NewReader(b), nil, func(kind uint8, payload []byte) error {
		recs = append(recs, Record{Kind: kind, Payload: payload})
		return nil
	})
	return recs, n, err
}

// sameRecords compares kinds and payload bytes; a nil and an empty
// payload are the same record.
func sameRecords(a, b []Record) bool {
	return slices.EqualFunc(a, b, func(x, y Record) bool {
		return x.Kind == y.Kind && bytes.Equal(x.Payload, y.Payload)
	})
}

// FuzzWALOpen opens arbitrary bytes as a log's one generation file and
// checks the result against what the bytes hold. A bad header (short,
// wrong magic or version, a prefix length past the end of the file) or
// a compacted prefix that does not scan as whole records is refused,
// and the file is left as it was. Anything else opens: the prefix's
// records come back as Snapshot, the whole records after it as
// Records, and the file is cut to exactly the header, the prefix and
// those records — the torn tail and nothing more. The recovered log
// then accepts an append that the next Open replays.
func FuzzWALOpen(f *testing.F) {
	records := frameRecords(Record{Kind: 1, Payload: []byte("first")}, Record{Kind: 2, Payload: []byte("second")})
	// Whole records, then an adversarial tail.
	f.Add(genFile(nil, records))
	f.Add(genFile(nil, append(slices.Clone(records), 1, 2, 3)))
	f.Add(genFile(nil, append(slices.Clone(records), frameRecord(7, []byte("a whole third record"))...)))
	f.Add(genFile(nil, append(slices.Clone(records), frameRecord(7, []byte("torn"))[:6]...)))
	f.Add(genFile(nil, append(slices.Clone(records), 9, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0))) // oversize claim
	// Compacted files, whole and damaged.
	compacted := genFile(frameRecord(14, []byte("snapshot-state")), records)
	f.Add(compacted)
	f.Add(compacted[:headerLen])   // the prefix it names is missing
	f.Add(compacted[:headerLen+5]) // torn inside the prefix
	f.Add(compacted[:5])           // torn header
	f.Add([]byte{})
	badMagic := slices.Clone(compacted)
	badMagic[0] ^= 0xFF
	f.Add(badMagic)
	version1 := slices.Clone(compacted)
	version1[5] = 1
	f.Add(version1)
	f.Fuzz(func(t *testing.T, data []byte) {
		// The expected outcome, from the image alone.
		var prefix []Record
		var prefixLen int64
		refuse := len(data) < headerLen ||
			binary.BigEndian.Uint32(data[0:4]) != magic ||
			binary.BigEndian.Uint16(data[4:6]) != formatVersion
		if !refuse {
			n := binary.BigEndian.Uint64(data[6:14])
			refuse = n > uint64(len(data)-headerLen)
			if !refuse {
				prefixLen = int64(n)
				var err error
				prefix, _, err = scanRecords(data[headerLen : headerLen+prefixLen])
				refuse = err != nil
			}
		}

		dir := t.TempDir()
		path := filepath.Join(dir, walName(3))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir)
		if refuse {
			if err == nil {
				l.Close()
				t.Fatalf("Open accepted a bad header or prefix")
			}
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused Open (%v) changed the file", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open of a valid header and prefix: %v", err)
		}
		tail, good, _ := scanRecords(data[headerLen+prefixLen:])
		keep := headerLen + prefixLen + good
		left, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(left, data[:keep]) || l.TornBytes() != int64(len(data))-keep {
			t.Fatalf("Open left %d of %d bytes and reports %d torn; want %d left", len(left), len(data), l.TornBytes(), keep)
		}
		if !sameRecords(l.Snapshot(), prefix) || !sameRecords(l.Records(), tail) {
			t.Fatalf("Open recovered prefix %v and records %v; the image holds %v and %v", l.Snapshot(), l.Records(), prefix, tail)
		}
		if err := l.Append(3, []byte("post")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		l2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if want := append(slices.Clone(tail), Record{Kind: 3, Payload: []byte("post")}); !sameRecords(l2.Records(), want) {
			t.Fatalf("after the append, records %v; want %v", l2.Records(), want)
		}
	})
}
