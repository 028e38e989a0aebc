package archive

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/vision"
	"repro/internal/walog"
)

// testImage renders a deterministic, per-index-unique frame.
func testImage(w, h, seed int) *vision.Image {
	img := vision.NewImage(w, h)
	for i := range img.Pix {
		img.Pix[i] = float32((i*7+seed*13)%997) / 997
	}
	return img
}

func openTest(t *testing.T, dir string, segFrames int, budget int64) *Store {
	t.Helper()
	s, err := Open(Config{Dir: dir, Width: 8, Height: 6, FPS: 5, SegmentFrames: segFrames, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendN(t *testing.T, s *Store, from, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		idx, err := s.Append(testImage(8, 6, from+i), int64(100+from+i))
		if err != nil {
			t.Fatal(err)
		}
		if idx != from+i {
			t.Fatalf("append assigned index %d, want %d", idx, from+i)
		}
	}
}

func checkFrames(t *testing.T, s *Store, start, end int) {
	t.Helper()
	frames, err := s.ReadRange(start, end)
	if err != nil {
		t.Fatalf("ReadRange[%d,%d): %v", start, end, err)
	}
	if len(frames) != end-start {
		t.Fatalf("got %d frames, want %d", len(frames), end-start)
	}
	for i, got := range frames {
		want := testImage(8, 6, start+i)
		if got.W != want.W || got.H != want.H {
			t.Fatalf("frame %d dims %dx%d, want %dx%d", start+i, got.W, got.H, want.W, want.H)
		}
		for p := range want.Pix {
			if got.Pix[p] != want.Pix[p] {
				t.Fatalf("frame %d differs at sample %d: got %v want %v", start+i, p, got.Pix[p], want.Pix[p])
			}
		}
	}
}

// TestReadIntoReusesImages reads a range chunk by chunk into the same
// three images, across segment rolls: each chunk holds exactly what
// ReadRange returns for it, a warm chunk read allocates nothing, and
// images of the wrong size and bad ranges are refused.
func TestReadIntoReusesImages(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, 0)
	defer s.Close()
	appendN(t, s, 0, 14)
	dst := make([]*vision.Image, 3)
	for i := range dst {
		dst[i] = testImage(8, 6, 999) // stale samples ReadInto must overwrite
	}
	for lo := 1; lo < 14; lo += len(dst) {
		chunk := dst[:min(len(dst), 14-lo)]
		if err := s.ReadInto(lo, chunk); err != nil {
			t.Fatalf("ReadInto(%d, %d frames): %v", lo, len(chunk), err)
		}
		want, err := s.ReadRange(lo, lo+len(chunk))
		if err != nil {
			t.Fatal(err)
		}
		for i, img := range chunk {
			for p, v := range want[i].Pix {
				if img.Pix[p] != v || v != testImage(8, 6, lo+i).Pix[p] {
					t.Fatalf("frame %d sample %d: ReadInto %v, ReadRange %v", lo+i, p, img.Pix[p], v)
				}
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := s.ReadInto(2, dst); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm ReadInto of written frames allocates %v times, want 0", allocs)
	}
	if err := s.ReadInto(0, []*vision.Image{vision.NewImage(6, 8)}); err == nil {
		t.Fatal("ReadInto filled an image of the wrong dimensions")
	}
	if err := s.ReadInto(12, dst); err == nil {
		t.Fatal("ReadInto beyond the last frame succeeded")
	}
	if err := s.ReadInto(0, nil); err == nil {
		t.Fatal("an empty ReadInto succeeded")
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, 0)
	defer s.Close()
	appendN(t, s, 0, 10)
	checkFrames(t, s, 0, 10)
	checkFrames(t, s, 3, 7) // spans a segment boundary

	st := s.Stats()
	if st.Frames != 10 || st.NextFrame != 10 || st.OldestFrame != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Segments != 3 { // 4 + 4 + 2
		t.Fatalf("got %d segments, want 3", st.Segments)
	}
	var wantBits int64
	for i := 0; i < 10; i++ {
		wantBits += int64(100 + i)
	}
	if st.ArchivedBits != wantBits {
		t.Fatalf("archived bits %d, want %d", st.ArchivedBits, wantBits)
	}
	wantBytes := int64(3*headerSize) + 10*recordSize(8*6*3*4)
	if st.Bytes != wantBytes {
		t.Fatalf("bytes %d, want %d", st.Bytes, wantBytes)
	}

	// Out-of-range and bad-range errors.
	if _, err := s.ReadRange(5, 12); err == nil {
		t.Fatal("read beyond last frame succeeded")
	}
	if _, err := s.ReadRange(4, 4); err == nil {
		t.Fatal("empty range succeeded")
	}
	if _, err := s.Append(vision.NewImage(4, 4), 0); err == nil {
		t.Fatal("dimension-mismatched append succeeded")
	}
}

func TestRetentionStaysUnderBudget(t *testing.T) {
	segFrames := 4
	recBytes := recordSize(8 * 6 * 3 * 4)
	segBytes := int64(headerSize) + int64(segFrames)*recBytes
	budget := 3 * segBytes // room for ~3 segments
	s := openTest(t, t.TempDir(), segFrames, budget)
	defer s.Close()

	for i := 0; i < 40; i++ {
		if _, err := s.Append(testImage(8, 6, i), 50); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Bytes > budget {
			t.Fatalf("after frame %d: %d bytes on disk exceeds budget %d", i, st.Bytes, budget)
		}
	}
	st := s.Stats()
	if st.EvictedSegments == 0 || st.EvictedFrames == 0 || st.EvictedBytes == 0 {
		t.Fatalf("no eviction recorded: %+v", st)
	}
	if st.OldestFrame == 0 {
		t.Fatal("oldest frame did not advance under eviction")
	}
	if st.OldestFrame%segFrames != 0 {
		t.Fatalf("oldest frame %d not on a segment boundary", st.OldestFrame)
	}
	if st.EvictedFrames+st.Frames != 40 {
		t.Fatalf("evicted %d + retained %d != 40", st.EvictedFrames, st.Frames)
	}
	// ArchivedBits stays monotonic across eviction: every append cost
	// 50 coded bits.
	if st.ArchivedBits != 40*50 {
		t.Fatalf("archived bits %d, want %d", st.ArchivedBits, 40*50)
	}

	// Evicted ranges fail with errEvicted; the retained tail reads.
	if _, err := s.ReadRange(0, 2); !errors.Is(err, errEvicted) {
		t.Fatalf("read of evicted range: %v, want errEvicted", err)
	}
	checkFrames(t, s, st.OldestFrame, 40)

	// Disk agrees with the accounting.
	var onDisk int64
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if onDisk != st.Bytes {
		t.Fatalf("disk usage %d != accounted %d", onDisk, st.Bytes)
	}
}

func TestReopenContinuesStream(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4, 0)
	appendN(t, s, 0, 6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 4, 0)
	defer s.Close()
	if got := s.NextFrame(); got != 6 {
		t.Fatalf("reopened NextFrame %d, want 6", got)
	}
	appendN(t, s, 6, 4)
	checkFrames(t, s, 0, 10) // spans the close/reopen boundary
	if st := s.Stats(); st.RecoveredBytes != 0 || st.RecoveredSegments != 0 {
		t.Fatalf("clean reopen reported recovery: %+v", st)
	}
}

// TestCrashRecoveryTornTail is the crash-recovery regression: a
// truncated (torn) tail record is cut away on reopen, reads of the
// surviving prefix succeed, and appends continue from the truncation
// point.
func TestCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4, 0)
	appendN(t, s, 0, 10) // segments: [0,4) [4,8) [8,10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-payload, simulating a
	// crash between write and sync.
	tail := filepath.Join(dir, "seg-000000000008.ffa")
	fi, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, fi.Size()-37); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 4, 0)
	if got := s.NextFrame(); got != 9 {
		t.Fatalf("recovered NextFrame %d, want 9 (frame 9 torn away)", got)
	}
	st := s.Stats()
	if st.RecoveredBytes == 0 {
		t.Fatalf("no truncation recorded: %+v", st)
	}
	checkFrames(t, s, 0, 9)
	if _, err := s.ReadRange(8, 10); err == nil {
		t.Fatal("read of torn frame succeeded")
	}
	// Appends continue exactly where the surviving prefix ends.
	appendN(t, s, 9, 3)
	checkFrames(t, s, 0, 12)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A second reopen is clean: the rewritten tail is valid.
	s = openTest(t, dir, 4, 0)
	defer s.Close()
	if st := s.Stats(); st.RecoveredBytes != 0 {
		t.Fatalf("second reopen still truncating: %+v", st)
	}
	checkFrames(t, s, 0, 12)
}

// TestCrashRecoveryCorruptRecord flips a payload byte (bit rot or a
// torn in-place write): recovery truncates from the damaged record.
func TestCrashRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 8, 0)
	appendN(t, s, 0, 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "seg-000000000000.ffa")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the 4th record's payload.
	off := int64(headerSize) + 3*recordSize(8*6*3*4) + recordSize(0) + 11
	data[off] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 8, 0)
	defer s.Close()
	if got := s.NextFrame(); got != 3 {
		t.Fatalf("recovered NextFrame %d, want 3 (records 3+ truncated)", got)
	}
	checkFrames(t, s, 0, 3)
}

// TestReadRangeChecksEachRecord damages a frame on disk under an open
// store: the read that reaches it fails with walog.ErrCorrupt instead
// of returning the damaged pixels, and the frames before it still read.
func TestReadRangeChecksEachRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 8, 0)
	defer s.Close()
	appendN(t, s, 0, 5)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, "seg-000000000000.ffa"), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a pixel byte of frame 3.
	off := int64(headerSize) + 3*recordSize(8*6*3*4) + recordSize(0) + 11
	b := []byte{0}
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := s.ReadRange(2, 5); !errors.Is(err, walog.ErrCorrupt) {
		t.Fatalf("ReadRange over a damaged frame: %v, want walog.ErrCorrupt", err)
	}
	checkFrames(t, s, 0, 3)
}

// TestCrashRecoveryTornHeader drops a tail segment whose header never
// fully reached disk, along with any later files.
func TestCrashRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4, 0)
	appendN(t, s, 0, 4) // one sealed segment [0,4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A new tail segment that died mid-header.
	if err := os.WriteFile(filepath.Join(dir, "seg-000000000004.ffa"), []byte{0xFF, 0xA7}, 0o644); err != nil {
		t.Fatal(err)
	}

	s = openTest(t, dir, 4, 0)
	defer s.Close()
	if got := s.NextFrame(); got != 4 {
		t.Fatalf("recovered NextFrame %d, want 4", got)
	}
	if st := s.Stats(); st.RecoveredSegments != 1 {
		t.Fatalf("dropped segments %d, want 1: %+v", st.RecoveredSegments, st)
	}
	checkFrames(t, s, 0, 4)
	appendN(t, s, 4, 2)
	checkFrames(t, s, 0, 6)
}

// TestConcurrentReaders exercises range reads racing the writer
// goroutine (run under -race in CI).
func TestConcurrentReaders(t *testing.T) {
	s := openTest(t, t.TempDir(), 5, 0)
	defer s.Close()
	appendN(t, s, 0, 20)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				lo := (r + i) % 15
				if _, err := s.ReadRange(lo, lo+5); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	appendN(t, s, 20, 20)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkFrames(t, s, 0, 40)
}

func TestClosedStoreErrors(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, 0)
	appendN(t, s, 0, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(testImage(8, 6, 0), 0); !errors.Is(err, errClosed) {
		t.Fatalf("append after close: %v, want errClosed", err)
	}
	if err := s.Sync(); !errors.Is(err, errClosed) {
		t.Fatalf("sync after close: %v, want errClosed", err)
	}
	if _, err := s.ReadRange(0, 2); !errors.Is(err, errClosed) {
		t.Fatalf("read after close: %v, want errClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestAppendRejectsMalformedPix(t *testing.T) {
	s := openTest(t, t.TempDir(), 4, 0)
	defer s.Close()
	bad := testImage(8, 6, 0)
	bad.Pix = bad.Pix[:len(bad.Pix)-3] // right dims, short payload
	if _, err := s.Append(bad, 0); err == nil {
		t.Fatal("short pixel slice accepted")
	}
}

// TestReopenLargerSegmentFramesStillEvicts pins the recovery rule
// that every non-tail segment is sealed (immutable, evictable) even
// when a reopen config would call it "not full" — otherwise a
// SegmentFrames increase would stall retention forever.
func TestReopenLargerSegmentFramesStillEvicts(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, 4, 0)
	appendN(t, s, 0, 12) // three full 4-frame segments
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recBytes := recordSize(8 * 6 * 3 * 4)
	budget := int64(headerSize)*3 + 8*recBytes // room for ~2 old segments
	s2, err := Open(Config{Dir: dir, Width: 8, Height: 6, FPS: 5, SegmentFrames: 8, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.EvictedSegments == 0 {
		t.Fatalf("no eviction after reopen with larger SegmentFrames: %+v", st)
	}
	if st.Bytes > budget {
		t.Fatalf("disk usage %d exceeds budget %d after reopen", st.Bytes, budget)
	}
	checkFrames(t, s2, st.OldestFrame, 12)
}
