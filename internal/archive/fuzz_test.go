package archive

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vision"
)

// fuzzFrame builds a deterministic 4x3 frame.
func fuzzFrame(seed float32) *vision.Image {
	img := vision.NewImage(4, 3)
	for i := range img.Pix {
		img.Pix[i] = seed + float32(i)*0.25
	}
	return img
}

// validSegmentBytes builds a clean segment file of two frames in
// memory.
func validSegmentBytes() []byte {
	out := encodeHeader(4, 3, 15, 0)
	out = appendRecord(out, 0, 1000, fuzzFrame(0.1))
	out = appendRecord(out, 1, 1200, fuzzFrame(0.7))
	return out
}

// FuzzOpenStore feeds arbitrary bytes to the segment scanner as the
// store's only segment file. Open must never panic and never allocate
// from file-supplied lengths: it either recovers (dropping or
// truncating the damaged file) or fails with a descriptive error. A
// store that does open must survive Stats, a full ReadRange, an
// Append, and a clean Close.
func FuzzOpenStore(f *testing.F) {
	whole := validSegmentBytes()
	f.Add(whole)
	f.Add(whole[:headerSize])                // header only
	f.Add(whole[:headerSize-3])              // torn header
	f.Add(whole[:len(whole)-5])              // torn record tail
	f.Add([]byte{})                          // empty file
	tornCRC := append([]byte(nil), whole...) // flip one payload byte
	tornCRC[headerSize+int(recordSize(0))+2] ^= 0x20
	f.Add(tornCRC)
	badKind := append([]byte(nil), whole...) // not a segment header record
	badKind[0] ^= 0xFF
	f.Add(badKind)
	badDims := encodeHeader(4000, 3000, 15, 0) // header disagrees with store dims
	f.Add(badDims)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-000000000000.ffa"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(Config{Dir: dir, Width: 4, Height: 3, FPS: 15, SegmentFrames: 4})
		if err != nil {
			return // rejected cleanly
		}
		stats := st.Stats()
		if stats.Frames > 0 {
			frames, err := st.ReadRange(stats.OldestFrame, stats.NextFrame)
			if err != nil {
				t.Fatalf("recovered store failed to read its own range: %v", err)
			}
			if len(frames) != stats.Frames {
				t.Fatalf("read %d frames, stats claim %d", len(frames), stats.Frames)
			}
		}
		if _, err := st.Append(fuzzFrame(0.5), 99); err != nil {
			t.Fatalf("recovered store rejected append: %v", err)
		}
		if err := st.Sync(); err != nil {
			t.Fatalf("append after recovery failed: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatalf("close after recovery failed: %v", err)
		}
	})
}
