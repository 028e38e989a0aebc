package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/vision"
)

// patternFrames renders n w×h frames cheaply: a gradient that moves
// from frame to frame, so P-frames have motion to code.
func patternFrames(n, w, h int) []*vision.Image {
	frames := make([]*vision.Image, n)
	for i := range frames {
		img := vision.NewImage(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				for c := 0; c < 3; c++ {
					img.Pix[(y*w+x)*3+c] = float32((x+2*y+5*i+40*c)%97) / 97
				}
			}
		}
		frames[i] = img
	}
	return frames
}

// archivedNode is an edge node of w×h frames with an on-disk archive
// of segFrames-frame segments holding frames: appended straight to
// the store, since a fetch reads only the archive.
func archivedNode(t *testing.T, frames []*vision.Image, w, h, segFrames int) *EdgeNode {
	t.Helper()
	e, err := NewEdgeNode(Config{FrameWidth: w, FrameHeight: h, FPS: 15, Base: testBase(), ArchiveToDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.Open(archive.Config{Dir: t.TempDir(), Width: w, Height: h, FPS: 15, SegmentFrames: segFrames})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	if err := e.AttachArchive(store); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := store.Append(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestReadFetchStreamsBitIdentical fetches ranges shorter than a
// chunk, an exact multiple of it, a multiple plus one, across archive
// segment rolls, at a frame size whose chunk is one frame, and off a
// live source with no archive. Every chunk but the last holds
// FetchChunkFrames frames, and the concatenated chunks are one
// codec.EncodeSegment over the range, bits and samples bit for bit; a
// fetch with a nil emit reports the same bits.
func TestReadFetchStreamsBitIdentical(t *testing.T) {
	const w, h = 48, 27
	chunk := FetchChunkFrames(w, h)
	if chunk != 16 {
		t.Fatalf("a %dx%d chunk holds %d frames; the cases below assume 16", w, h, chunk)
	}
	frames := patternFrames(3*chunk+2, w, h)
	disk := archivedNode(t, frames, w, h, 10)
	live, err := NewEdgeNode(Config{FrameWidth: w, FrameHeight: h, FPS: 15, Base: testBase()})
	if err != nil {
		t.Fatal(err)
	}
	const bigW, bigH = 1280, 720
	bigFrames := patternFrames(2, bigW, bigH)
	cases := []struct {
		name       string
		e          *EdgeNode
		src        FrameSource
		frames     []*vision.Image
		start, end int
	}{
		{"shorter than a chunk", disk, nil, frames, 3, 8},
		{"exact multiple", disk, nil, frames, 0, 2 * chunk},
		{"multiple plus one", disk, nil, frames, 1, 3*chunk + 2},
		{"across a segment roll", disk, nil, frames, 8, 12},
		{"one-frame chunks", archivedNode(t, bigFrames, bigW, bigH, 1), nil, bigFrames, 0, 2},
		{"live source", live, frameSlice(frames), frames, 2, 2*chunk + 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.e.Config()
			ccfg := codec.Config{Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS, TargetBitrate: 30_000}
			wantBits, want := codec.EncodeSegment(ccfg, tc.frames[tc.start:tc.end])
			per := FetchChunkFrames(cfg.FrameWidth, cfg.FrameHeight)
			var got []*vision.Image
			f, err := tc.e.ReadFetch(tc.src, tc.start, tc.end, 30_000, func(recons []*vision.Image) error {
				if len(got)+len(recons) < tc.end-tc.start && len(recons) != per {
					return fmt.Errorf("a chunk of %d frames before the last, want %d", len(recons), per)
				}
				for _, img := range recons {
					got = append(got, img.Clone())
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if f.Bits != wantBits || len(got) != len(want) {
				t.Fatalf("%d bits, %d frames; EncodeSegment %d bits, %d frames", f.Bits, len(got), wantBits, len(want))
			}
			for i := range want {
				for p, v := range want[i].Pix {
					if math.Float32bits(v) != math.Float32bits(got[i].Pix[p]) {
						t.Fatalf("frame %d sample %d: %v, EncodeSegment %v", tc.start+i, p, got[i].Pix[p], v)
					}
				}
			}
			bitsOnly, err := tc.e.ReadFetch(tc.src, tc.start, tc.end, 30_000, nil)
			if err != nil || bitsOnly.Bits != wantBits {
				t.Fatalf("accounting-only fetch: %d bits (err %v), want %d", bitsOnly.Bits, err, wantBits)
			}
		})
	}
}

// flakyArchive is an in-memory FrameArchive whose reads fail from the
// failAt-th on.
type flakyArchive struct {
	frames []*vision.Image
	reads  int
	failAt int
}

var errFlaky = errors.New("flaky archive: read failed")

func (a *flakyArchive) Append(img *vision.Image, _ int64) (int, error) {
	a.frames = append(a.frames, img)
	return len(a.frames) - 1, nil
}

func (a *flakyArchive) ReadInto(start int, dst []*vision.Image) error {
	if a.reads++; a.reads >= a.failAt {
		return errFlaky
	}
	for i, img := range dst {
		copy(img.Pix, a.frames[start+i].Pix)
	}
	return nil
}

func (a *flakyArchive) NextFrame() int { return len(a.frames) }

// TestReadFetchStopsAtFirstError: a read that fails after the first
// chunk went out ends the fetch with that error, and an emit error
// ends it before the next chunk is read.
func TestReadFetchStopsAtFirstError(t *testing.T) {
	const w, h = 48, 27
	e, err := NewEdgeNode(Config{FrameWidth: w, FrameHeight: h, FPS: 15, Base: testBase(), ArchiveToDisk: true})
	if err != nil {
		t.Fatal(err)
	}
	arch := &flakyArchive{failAt: 2}
	if err := e.AttachArchive(arch); err != nil {
		t.Fatal(err)
	}
	for _, f := range patternFrames(40, w, h) {
		arch.Append(f, 0)
	}
	chunks := 0
	count := func([]*vision.Image) error { chunks++; return nil }
	if _, err := e.ReadFetch(nil, 0, 40, 30_000, count); !errors.Is(err, errFlaky) || chunks != 1 {
		t.Fatalf("a read failing after the first chunk: err %v after %d chunks, want the read error after 1", err, chunks)
	}
	arch.reads, arch.failAt = 0, math.MaxInt
	errStop := errors.New("stop")
	if _, err := e.ReadFetch(nil, 0, 40, 30_000, func([]*vision.Image) error { return errStop }); err != errStop || arch.reads != 1 {
		t.Fatalf("an emit error: err %v after %d reads, want the emit error after 1", err, arch.reads)
	}
}

// TestAccountingOnlyFetchDoesNotAllocate: a warm fetch with a nil emit,
// served from the on-disk archive, codes bits only: it builds no
// reconstruction and allocates nothing, whatever the range.
func TestAccountingOnlyFetchDoesNotAllocate(t *testing.T) {
	const w, h = 96, 39
	e := archivedNode(t, patternFrames(64, w, h), w, h, 30)
	fetchBits := func() {
		if _, err := e.ReadFetch(nil, 3, 64, 30_000, nil); err != nil {
			t.Fatal(err)
		}
	}
	fetchBits()
	if allocs := testing.AllocsPerRun(5, fetchBits); allocs != 0 {
		t.Fatalf("a warm accounting-only fetch of 61 frames allocates %v times, want 0", allocs)
	}
	if len(e.fetchRecon) != 0 {
		t.Fatalf("an accounting-only fetch built %d reconstructions", len(e.fetchRecon))
	}
}
