package core

import (
	"testing"

	"repro/internal/archive"
	"repro/internal/filter"
)

// TestFetchArchiveServedFromDisk proves the persistent-archive fetch
// path is byte-identical to the live-source path: same reconstructions
// sample for sample, same coded bits, same DemandFetchBits accounting.
func TestFetchArchiveServedFromDisk(t *testing.T) {
	base := testBase()
	frames := testFrames(12)
	src := frameSlice(frames)
	thresholds := map[filter.Arch]float32{filter.LocalizedBinary: 2}

	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base, UploadBitrate: 50_000}

	// Baseline: fetch re-encodes straight from the live source.
	live := newNode(t, cfg, thresholds)
	for _, f := range frames {
		if _, err := live.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	wantRecons, wantBits, err := fetch(live, src, 3, 9, 30_000)
	if err != nil {
		t.Fatal(err)
	}

	// Disk path: same stream archived through internal/archive; fetch
	// never touches the live source (src is nil).
	diskCfg := cfg
	diskCfg.ArchiveToDisk = true
	disk := newNode(t, diskCfg, thresholds)
	store, err := archive.Open(archive.Config{
		Dir: t.TempDir(), Width: cfg.FrameWidth, Height: cfg.FrameHeight, FPS: cfg.FPS,
		SegmentFrames: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := disk.AttachArchive(store); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := disk.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	gotRecons, gotBits, err := fetch(disk, nil, 3, 9, 30_000)
	if err != nil {
		t.Fatal(err)
	}

	if gotBits != wantBits {
		t.Fatalf("disk fetch %d bits, live fetch %d bits", gotBits, wantBits)
	}
	if len(gotRecons) != len(wantRecons) {
		t.Fatalf("disk fetch %d frames, live fetch %d", len(gotRecons), len(wantRecons))
	}
	for i := range gotRecons {
		g, w := gotRecons[i], wantRecons[i]
		if g.W != w.W || g.H != w.H {
			t.Fatalf("frame %d dims %dx%d, want %dx%d", i, g.W, g.H, w.W, w.H)
		}
		for p := range w.Pix {
			if g.Pix[p] != w.Pix[p] {
				t.Fatalf("frame %d differs at sample %d: disk %v, live %v", i, p, g.Pix[p], w.Pix[p])
			}
		}
	}
	if st := disk.Stats(); st.DemandFetchBits != wantBits || st.DemandFetches != 1 {
		t.Fatalf("accounting: DemandFetchBits=%d DemandFetches=%d, want %d/1", st.DemandFetchBits, st.DemandFetches, wantBits)
	}

	// The codec-model archive accounting matches the store's view.
	if st, ast := disk.Stats(), store.Stats(); st.ArchivedBits != ast.ArchivedBits {
		t.Fatalf("edge ArchivedBits %d != store ArchivedBits %d", st.ArchivedBits, ast.ArchivedBits)
	}
	if got := store.Stats().Frames; got != len(frames) {
		t.Fatalf("store holds %d frames, want %d", got, len(frames))
	}

	// Ranges the retention policy dropped (or that were never
	// archived) error instead of silently falling back.
	if _, _, err := fetch(disk, src, 10, 20, 30_000); err == nil {
		t.Fatal("fetch beyond archived range succeeded")
	}
}

func TestAttachArchiveValidation(t *testing.T) {
	base := testBase()
	cfg := Config{FrameWidth: 48, FrameHeight: 27, FPS: 15, Base: base}
	e, err := NewEdgeNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	store, err := archive.Open(archive.Config{Dir: t.TempDir(), Width: 48, Height: 27, FPS: 15})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Without ArchiveToDisk there is no codec model to account bits.
	if err := e.AttachArchive(store); err == nil {
		t.Fatal("attach without ArchiveToDisk succeeded")
	}
	cfg.ArchiveToDisk = true
	e2, err := NewEdgeNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.AttachArchive(nil); err == nil {
		t.Fatal("nil archive accepted")
	}
	if err := e2.AttachArchive(store); err != nil {
		t.Fatal(err)
	}

	// A store that is ahead of the stream cannot line up.
	if _, err := store.Append(testFrames(1)[0], 1); err != nil {
		t.Fatal(err)
	}
	e3, err := NewEdgeNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e3.AttachArchive(store); err == nil {
		t.Fatal("misaligned archive accepted")
	}
}
