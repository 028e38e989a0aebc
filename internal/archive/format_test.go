package archive

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/vision"
)

// TestAppendRecordKeepsTheOnDiskBytes pins one frame record's bytes —
// a 1x1 frame (0.5, -0, NaN) at index 3 with -7 coded bits — whether
// appendRecord appends it to an empty buffer, to one holding other
// bytes (which it keeps), or to the writer's reused buffer; decodeFrame
// and decodePixels read it back, and reusing the buffer does not
// allocate.
func TestAppendRecordKeepsTheOnDiskBytes(t *testing.T) {
	want, _ := hex.DecodeString("02" + "0000001c" + "f3cbfe7d" + // kind, length, crc32(payload)
		"0000000000000003" + "fffffffffffffff9" + // frame index, coded bits
		"0000003f" + "00000080" + "0000c07f") // 0.5, -0, NaN, little-endian
	img := vision.NewImage(1, 1)
	img.Pix[0], img.Pix[1], img.Pix[2] = 0.5, float32(math.Copysign(0, -1)), float32(math.NaN())
	if got := appendRecord(nil, 3, -7, img); !bytes.Equal(got, want) {
		t.Fatalf("appendRecord wrote %x, want %x", got, want)
	}
	prefix := []byte("segment header")
	if got := appendRecord(prefix, 3, -7, img); !bytes.Equal(got[:len(prefix)], []byte("segment header")) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("appendRecord after a prefix wrote %x", got)
	}
	reused := appendRecord(nil, 0, 0, fuzzFrame(0.1))
	if reused = appendRecord(reused[:0], 3, -7, img); !bytes.Equal(reused, want) {
		t.Fatalf("appendRecord into the reused buffer wrote %x", reused)
	}
	idx, bits, err := decodeFrame(want[0], want[9:], 12)
	back := vision.NewImage(1, 1)
	decodePixels(want[9:], back)
	if err != nil || idx != 3 || bits != -7 || math.Float32bits(back.Pix[1]) != math.Float32bits(img.Pix[1]) || !math.IsNaN(float64(back.Pix[2])) {
		t.Fatalf("decoded index %d, bits %d, pixels %v, err %v", idx, bits, back.Pix, err)
	}

	frame := fuzzFrame(0.5)
	buf := appendRecord(nil, 0, 0, frame)
	if n := testing.AllocsPerRun(20, func() { buf = appendRecord(buf[:0], 3, 4, frame) }); n != 0 {
		t.Fatalf("appendRecord into a reused buffer allocates %v times, want 0", n)
	}
}
