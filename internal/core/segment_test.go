package core

import (
	"testing"

	"repro/internal/codec"
	"repro/internal/filter"
)

// segmentNode is a node that has retained frames [0, 30) and has one
// deployed MC to close segments of.
func segmentNode(t *testing.T) (*EdgeNode, *deployedMC) {
	t.Helper()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: testBase(), UploadBitrate: 50_000, RetainFrames: 64}
	e := newNode(t, cfg, map[filter.Arch]float32{filter.LocalizedBinary: 2})
	for _, f := range testFrames(30) {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	return e, e.mcs[0]
}

// TestSegmentEncoderMatchesSegmentBits: the node's one segment encoder,
// restarted for each segment, codes a run of segments at two bitrates
// to the bits that fresh codec.SegmentBits calls report.
func TestSegmentEncoderMatchesSegmentBits(t *testing.T) {
	e, _ := segmentNode(t)
	frames := testFrames(30)
	for i, s := range []struct {
		start, end int
		bitrate    float64
	}{{0, 12, 50_000}, {5, 30, 4_000}, {12, 13, 50_000}, {3, 28, 50_000}, {0, 30, 4_000}} {
		cfg := codec.Config{Width: 48, Height: 27, FPS: 15, TargetBitrate: s.bitrate}
		want := codec.SegmentBits(cfg, frames[s.start:s.end])
		if got, _ := e.encodeSegment(&e.segEnc, s.bitrate, frames[s.start:s.end], false); got != want {
			t.Fatalf("segment %d [%d,%d) at %v b/s: %d bits, SegmentBits %d", i, s.start, s.end, s.bitrate, got, want)
		}
		wantBits, wantRecons := codec.EncodeSegment(cfg, frames[s.start:s.end])
		gotBits, gotRecons := e.encodeSegment(&e.segEnc, s.bitrate, frames[s.start:s.end], true)
		if gotBits != wantBits || len(gotRecons) != len(wantRecons) {
			t.Fatalf("segment %d with reconstructions: %d bits, %d frames; EncodeSegment %d, %d", i, gotBits, len(gotRecons), wantBits, len(wantRecons))
		}
	}
}

// TestCloseSegmentDoesNotAllocate pins a bits-only segment upload —
// gathering the retained frames, re-encoding them, accounting the
// uplink — at zero allocations once the node has closed one segment.
func TestCloseSegmentDoesNotAllocate(t *testing.T) {
	e, d := segmentNode(t)
	closeOne := func() {
		d.openID, d.segStart = 7, 6
		up, err := e.closeSegment(d, 26, true)
		if err != nil {
			t.Fatal(err)
		}
		if up.Bits <= 0 || up.Frames != nil {
			t.Fatalf("upload of %d bits with %d reconstructions", up.Bits, len(up.Frames))
		}
	}
	closeOne()
	if n := testing.AllocsPerRun(20, closeOne); n != 0 {
		t.Fatalf("closeSegment allocates %v objects per segment, want 0", n)
	}
	for _, img := range e.segImgs[:cap(e.segImgs)] {
		if img != nil {
			t.Fatal("closeSegment kept a frame after the upload")
		}
	}
}
