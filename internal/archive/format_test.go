package archive

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/vision"
)

// oldEncodeRecord is the record encoder from before appendRecord, one
// fresh buffer per record: the on-disk bytes appendRecord must keep.
func oldEncodeRecord(index int, codedBits int64, img *vision.Image) []byte {
	payload := len(img.Pix) * 4
	buf := make([]byte, recHeaderSize+payload+recTrailerSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(index))
	binary.BigEndian.PutUint64(buf[8:16], uint64(codedBits))
	binary.BigEndian.PutUint32(buf[16:20], uint32(payload))
	off := recHeaderSize
	for _, v := range img.Pix {
		binary.LittleEndian.PutUint32(buf[off:off+4], math.Float32bits(v))
		off += 4
	}
	binary.BigEndian.PutUint32(buf[off:off+4], crc32.ChecksumIEEE(buf[:off]))
	return buf
}

// TestAppendRecordKeepsTheOnDiskBytes: appendRecord writes exactly the
// old encoding, whether it appends to an empty buffer, to one holding
// other bytes (which it keeps), or to the writer's reused buffer; and
// reusing the buffer does not allocate.
func TestAppendRecordKeepsTheOnDiskBytes(t *testing.T) {
	frames := []*vision.Image{fuzzFrame(0.1), fuzzFrame(-3), vision.NewImage(1, 1)}
	frames[1].Pix[5] = float32(math.Copysign(0, -1))
	frames[1].Pix[7] = float32(math.NaN())
	var reused []byte
	for i, img := range frames {
		want := oldEncodeRecord(i*9+1, int64(1000*i-7), img)
		if got := appendRecord(nil, i*9+1, int64(1000*i-7), img); !bytes.Equal(got, want) {
			t.Fatalf("frame %d: appendRecord(nil) differs from the old encoding", i)
		}
		prefix := []byte("segment header")
		got := appendRecord(prefix, i*9+1, int64(1000*i-7), img)
		if !bytes.Equal(got[:len(prefix)], []byte("segment header")) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("frame %d: appendRecord after a prefix differs from prefix + the old encoding", i)
		}
		reused = appendRecord(reused[:0], i*9+1, int64(1000*i-7), img)
		if !bytes.Equal(reused, want) {
			t.Fatalf("frame %d: appendRecord into the reused buffer differs from the old encoding", i)
		}
		if _, _, back, err := decodeRecord(reused, img.W, img.H); err != nil || len(back.Pix) != len(img.Pix) {
			t.Fatalf("frame %d: decodeRecord: %v", i, err)
		}
	}
	img := fuzzFrame(0.5)
	buf := appendRecord(nil, 0, 0, img)
	if n := testing.AllocsPerRun(20, func() { buf = appendRecord(buf[:0], 3, 4, img) }); n != 0 {
		t.Fatalf("appendRecord into a reused buffer allocates %v times, want 0", n)
	}
}
