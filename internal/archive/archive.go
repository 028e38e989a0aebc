// Package archive is the edge node's persistent frame store: an
// append-only, segmented on-disk archive of the full-fidelity camera
// stream (§3.2: "edge nodes record the original video stream to disk
// so that datacenter applications can demand-fetch additional video").
//
// A Store owns one directory of fixed-length segment files, each a
// run of walog records (see format.go): the framing and the torn-tail
// scan are the controller log's. Appends flow through a dedicated
// writer goroutine; segments are fsynced when they fill ("roll") so a
// crash loses at most the unsynced tail of the active segment. A disk
// budget evicts oldest segments first, and Open recovers from torn
// writes by truncating the damaged tail. Range reads are safe from any
// number of goroutines concurrently with the writer.
package archive

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vision"
	"repro/internal/walog"
)

// errEvicted is wrapped by read errors (ReadRange, ReadInto) when the
// requested range has aged out of the retention budget.
var errEvicted = errors.New("archive: range evicted by retention")

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("archive: store closed")

// Config parameterizes a Store.
type Config struct {
	// Dir is the archive directory (created if missing). One store
	// owns one directory; give each stream its own.
	Dir string
	// Width, Height are the frame dimensions; every appended frame
	// must match.
	Width, Height int
	// FPS is the stream frame rate, recorded in segment headers so a
	// segment is self-describing (SegmentFrames defaults derive from
	// it).
	FPS int
	// SegmentFrames is the fixed segment length in frames — the
	// paper-style fixed-duration chunk (default 10 s worth, 10*FPS).
	// Segments are fsynced and become eviction candidates when full.
	SegmentFrames int
	// Budget bounds total on-disk bytes (0 = unbounded). When an
	// append pushes usage past the budget, oldest *sealed* segments
	// are evicted until usage fits again; the active segment is never
	// evicted. A budget smaller than one segment still works: usage
	// then peaks at roughly one segment.
	Budget int64
}

// queueDepth bounds the writer goroutine's mailbox, in frames.
const queueDepth = 64

func (c *Config) fillDefaults() error {
	if c.Dir == "" {
		return errors.New("archive: config needs a directory")
	}
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("archive: bad frame dims %dx%d", c.Width, c.Height)
	}
	if c.Width*c.Height > MaxFramePixels {
		return fmt.Errorf("archive: a %dx%d frame exceeds the %d-pixel limit of one record", c.Width, c.Height, MaxFramePixels)
	}
	if c.FPS <= 0 {
		c.FPS = 15
	}
	if c.SegmentFrames <= 0 {
		c.SegmentFrames = 10 * c.FPS
	}
	return nil
}

// Stats is a snapshot of a store's counters.
type Stats struct {
	// Segments and Frames count what is currently retained on disk
	// (including the active segment).
	Segments int
	Frames   int
	// Bytes is the retained on-disk size (headers + records).
	Bytes int64
	// OldestFrame and NextFrame delimit the retained frame range
	// [OldestFrame, NextFrame); equal when the store is empty.
	OldestFrame int
	NextFrame   int
	// ArchivedBits sums the codec-model coded bits of every frame
	// appended over the store's lifetime (monotonic; survives reopen
	// for retained frames only).
	ArchivedBits int64
	// EvictedSegments, EvictedFrames, and EvictedBytes count what the
	// retention policy removed.
	EvictedSegments int
	EvictedFrames   int
	EvictedBytes    int64
	// RecoveredBytes is how much torn tail Open truncated away;
	// RecoveredSegments counts segment files dropped during recovery.
	RecoveredBytes    int64
	RecoveredSegments int
}

// segment is one on-disk segment file and its in-memory index.
type segment struct {
	path   string
	file   *os.File
	start  int   // stream index of the first frame record
	count  int   // frame records written
	bytes  int64 // on-disk size (header + records)
	bits   int64 // codec-model bits of the records
	sealed bool  // full and fsynced; eviction candidate
}

// request is one writer-goroutine work item: a frame append or a
// barrier (done-only).
type request struct {
	img  *vision.Image
	bits int64
	idx  int
	done chan struct{} // non-nil for barriers
}

// Store is a persistent segmented frame archive. All methods are safe
// for concurrent use; concurrent Appends are serialized by the store
// (index assignment order is then scheduler-dependent, so pipelines
// that need deterministic indices keep a single producer).
type Store struct {
	cfg        Config
	frameBytes int // payload bytes per frame

	// sendMu serializes producers on the writer mailbox and guards
	// the append index + closed flag, so Close never races a send.
	sendMu sync.Mutex
	next   int
	closed bool

	// mu guards segment metadata and stats between the writer
	// goroutine (writes), readers, and eviction. Never acquire sendMu
	// while holding mu: a producer blocked on a full mailbox holds
	// sendMu while the writer needs mu to make progress.
	mu          sync.RWMutex
	segs        []*segment
	stats       Stats
	evictedBits int64 // coded bits of evicted frames (keeps ArchivedBits monotonic)
	werr        error // first writer error; sticky

	// Observability (see Instrument), read by the writer goroutine
	// under mu.
	obsTrace  *obs.Tracer
	obsHist   *obs.Histogram
	obsStream uint32

	reqs chan request
	wg   sync.WaitGroup
	rec  []byte // the record being written; owned by the writer goroutine

	// readMu serializes ReadInto's use of rbuf, the record buffer
	// every read goes through.
	readMu sync.Mutex
	rbuf   []byte
}

// Open creates or reopens the archive at cfg.Dir, recovering from a
// torn tail segment (truncating damaged records) and applying the
// retention budget, then starts the writer goroutine.
func Open(cfg Config) (*Store, error) {
	if err := (&cfg).fillDefaults(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	s := &Store{
		cfg:        cfg,
		frameBytes: cfg.Width * cfg.Height * 3 * 4,
		reqs:       make(chan request, queueDepth),
	}
	if err := s.recover(); err != nil {
		s.closeFiles()
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// recover scans the directory, rebuilding the segment index. The
// first segment with a damaged header or record becomes the new tail:
// its good prefix is kept (torn bytes truncated) and every later
// segment is removed — they cannot be contiguous with a truncated
// predecessor. A file that does not scan from its first record, an
// older segment layout included, reads as a torn header and goes too.
func (s *Store) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "seg-") && strings.HasSuffix(e.Name(), ".ffa") {
			paths = append(paths, filepath.Join(s.cfg.Dir, e.Name()))
		}
	}
	sort.Strings(paths) // zero-padded decimal start frames sort correctly
	truncated := false  // a segment was cut short: every later one goes
	for _, path := range paths {
		var seg *segment
		tornAt := int64(-1)
		if !truncated {
			if seg, tornAt, err = s.loadSegment(path); err != nil {
				return err
			}
		}
		if seg != nil && len(s.segs) > 0 {
			if prev := s.segs[len(s.segs)-1]; seg.start != prev.start+prev.count {
				seg.file.Close()
				return fmt.Errorf("archive: segment gap: %q starts at frame %d, want %d", path, seg.start, prev.start+prev.count)
			}
		}
		if seg != nil && tornAt >= 0 {
			if err := seg.file.Truncate(tornAt); err != nil {
				seg.file.Close()
				return fmt.Errorf("archive: truncate torn tail: %w", err)
			}
			s.stats.RecoveredBytes += seg.bytes - tornAt
			seg.bytes = tornAt
			truncated = true
		}
		if seg == nil || seg.count == 0 && tornAt >= 0 {
			// After a truncation, with no whole header (a crash before
			// it reached disk), or with nothing whole beyond it: drop
			// the file, and every later one.
			if seg != nil {
				seg.file.Close()
			}
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("archive: drop torn segment: %w", err)
			}
			s.stats.RecoveredSegments++
			truncated = true
			continue
		}
		seg.sealed = seg.count >= s.cfg.SegmentFrames
		s.segs = append(s.segs, seg)
	}
	if n := len(s.segs); n > 0 {
		// Only the tail can be active: every earlier segment is
		// immutable (and an eviction candidate) even if a larger
		// SegmentFrames config would now call it "not full".
		for _, seg := range s.segs[:n-1] {
			seg.sealed = true
		}
		last := s.segs[n-1]
		s.next = last.start + last.count
	}
	return nil
}

// loadSegment opens one segment file and scans its records with
// walog.Scan. It returns the segment (nil when its first record is not
// a whole segment header) and the byte offset of the first torn,
// damaged or out-of-order record (-1 when the file is clean).
func (s *Store) loadSegment(path string) (*segment, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("archive: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("archive: %w", err)
	}
	var seg *segment
	var dimErr error
	good, err := walog.Scan(bufio.NewReader(f), make([]byte, recordSize(s.frameBytes)), func(kind uint8, p []byte) error {
		if seg == nil {
			w, h, start, err := decodeHeader(kind, p)
			if err != nil {
				return err
			}
			if w != s.cfg.Width || h != s.cfg.Height {
				dimErr = fmt.Errorf("archive: segment %q is %dx%d, store is %dx%d", path, w, h, s.cfg.Width, s.cfg.Height)
				return dimErr
			}
			seg = &segment{path: path, file: f, start: start, bytes: fi.Size()}
			return nil
		}
		idx, bits, err := decodeFrame(kind, p, s.frameBytes)
		if err == nil && idx != seg.start+seg.count {
			err = fmt.Errorf("archive: frame record %d out of order", idx)
		}
		if err == nil {
			seg.count++
			seg.bits += bits
		}
		return err
	})
	switch {
	case dimErr != nil:
		f.Close()
		return nil, 0, dimErr
	case seg == nil:
		f.Close()
		return nil, -1, nil // no whole header: torn
	case err != nil:
		return seg, good, nil
	}
	return seg, -1, nil
}

// Append enqueues one frame (with its codec-model coded size, for
// accounting) and returns the stream index it was assigned. The write
// happens on the writer goroutine; Sync or a read of the frame force
// it to disk-visible state. The image must not be mutated afterwards.
func (s *Store) Append(img *vision.Image, codedBits int64) (int, error) {
	if img.W != s.cfg.Width || img.H != s.cfg.Height {
		return 0, fmt.Errorf("archive: frame %dx%d does not match store %dx%d", img.W, img.H, s.cfg.Width, s.cfg.Height)
	}
	if len(img.Pix)*4 != s.frameBytes {
		// A malformed pixel slice would write a record whose size
		// disagrees with the store's fixed stride and poison the
		// segment scan.
		return 0, fmt.Errorf("archive: frame carries %d samples, want %d", len(img.Pix), s.frameBytes/4)
	}
	if err := s.Err(); err != nil {
		return 0, err
	}
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return 0, errClosed
	}
	idx := s.next
	s.next++
	s.reqs <- request{img: img, bits: codedBits, idx: idx}
	s.sendMu.Unlock()
	return idx, nil
}

// Sync blocks until every previously appended frame is readable (and
// written to the OS; only segment rolls fsync). It returns the first
// writer error, or errClosed after Close.
func (s *Store) Sync() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		if err := s.Err(); err != nil {
			return err
		}
		return errClosed
	}
	done := make(chan struct{})
	s.reqs <- request{done: done}
	s.sendMu.Unlock()
	<-done
	return s.Err()
}

// Err returns the first writer error, nil while healthy.
func (s *Store) Err() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.werr
}

// NextFrame returns the next stream index Append would assign.
func (s *Store) NextFrame() int {
	s.sendMu.Lock()
	defer s.sendMu.Unlock()
	return s.next
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	st := s.stats
	st.Segments = len(s.segs)
	for _, seg := range s.segs {
		st.Frames += seg.count
		st.Bytes += seg.bytes
		st.ArchivedBits += seg.bits
	}
	st.ArchivedBits += s.evictedBits
	if len(s.segs) > 0 {
		st.OldestFrame = s.segs[0].start
	}
	s.mu.RUnlock()
	st.NextFrame = s.NextFrame()
	if st.Segments == 0 {
		st.OldestFrame = st.NextFrame
	}
	return st
}

// ReadRange returns the archived frames [start, end) in fresh images:
// ReadInto images it allocates. Ranges older than the retention window
// fail with an error wrapping errEvicted; ranges beyond the last
// appended frame fail outright.
func (s *Store) ReadRange(start, end int) ([]*vision.Image, error) {
	if start < 0 || end <= start {
		return nil, fmt.Errorf("archive: bad range [%d,%d)", start, end)
	}
	frames := make([]*vision.Image, end-start)
	for i := range frames {
		frames[i] = vision.NewImage(s.cfg.Width, s.cfg.Height)
	}
	if err := s.ReadInto(start, frames); err != nil {
		return nil, err
	}
	return frames, nil
}

// ReadInto reads the archived frames [start, start+len(dst)) into dst,
// images of the store's dimensions that the caller owns, overwriting
// every sample: a reader that reuses its images chunk after chunk
// allocates nothing. Every frame appended before the call is readable:
// when the range reaches past what the writer has already written, it
// first barriers on the writer (Sync). Errors are ReadRange's.
func (s *Store) ReadInto(start int, dst []*vision.Image) error {
	end := start + len(dst)
	if start < 0 || end <= start {
		return fmt.Errorf("archive: bad range [%d,%d)", start, end)
	}
	for _, img := range dst {
		if img.W != s.cfg.Width || img.H != s.cfg.Height || len(img.Pix)*4 != s.frameBytes {
			return fmt.Errorf("archive: a %dx%d image with %d samples cannot hold a %dx%d frame", img.W, img.H, len(img.Pix), s.cfg.Width, s.cfg.Height)
		}
	}
	if err := s.barrier(end); err != nil {
		return err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.segs) == 0 {
		return fmt.Errorf("archive: empty store, range [%d,%d): %w", start, end, errEvicted)
	}
	first := s.segs[0]
	last := s.segs[len(s.segs)-1]
	if end > last.start+last.count {
		return fmt.Errorf("archive: range [%d,%d) beyond last archived frame %d", start, end, last.start+last.count)
	}
	if start < first.start {
		return fmt.Errorf("archive: range [%d,%d) older than retained frame %d: %w", start, end, first.start, errEvicted)
	}
	si := sort.Search(len(s.segs), func(i int) bool {
		return s.segs[i].start+s.segs[i].count > start
	})
	rec := recordSize(s.frameBytes)
	s.readMu.Lock()
	defer s.readMu.Unlock()
	if s.rbuf == nil {
		s.rbuf = make([]byte, rec)
	}
	buf := s.rbuf
	for f := start; f < end; {
		seg := s.segs[si]
		for ; f < end && f < seg.start+seg.count; f++ {
			off := headerSize + int64(f-seg.start)*rec
			if _, err := seg.file.ReadAt(buf, off); err != nil {
				return fmt.Errorf("archive: read frame %d: %w", f, err)
			}
			kind, p, err := walog.CheckRecord(buf)
			if err != nil {
				return fmt.Errorf("archive: read frame %d: %w", f, err)
			}
			idx, _, err := decodeFrame(kind, p, s.frameBytes)
			if err != nil {
				return fmt.Errorf("archive: frame %d: %w", f, err)
			}
			if idx != f {
				return fmt.Errorf("archive: frame %d record carries index %d", f, idx)
			}
			decodePixels(p, dst[f-start])
		}
		si++
	}
	return nil
}

// barrier makes every frame before end that was appended before the
// call readable. It waits for the writer (Sync) only when the store is
// closed, failed, or has not yet written frame end-1: a reader working
// through an older range chunk by chunk does not queue behind the
// writer once per chunk.
func (s *Store) barrier(end int) error {
	s.sendMu.Lock()
	closed := s.closed
	s.sendMu.Unlock()
	if !closed {
		s.mu.RLock()
		written := s.werr == nil && len(s.segs) > 0 && end <= s.segs[len(s.segs)-1].start+s.segs[len(s.segs)-1].count
		s.mu.RUnlock()
		if written {
			return nil
		}
	}
	return s.Sync()
}

// Close drains the writer queue, fsyncs the active segment, and
// releases every file handle. Safe to call once; later operations
// return errClosed.
func (s *Store) Close() error {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return s.Err()
	}
	s.closed = true
	close(s.reqs)
	s.sendMu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		if err := s.segs[n-1].file.Sync(); err != nil && s.werr == nil {
			s.werr = fmt.Errorf("archive: final sync: %w", err)
		}
	}
	for _, seg := range s.segs {
		seg.file.Close()
	}
	return s.werr
}

// closeFiles releases handles after a failed Open.
func (s *Store) closeFiles() {
	for _, seg := range s.segs {
		if seg.file != nil {
			seg.file.Close()
		}
	}
}

// Instrument attaches observability sinks to the append path: every
// disk append is timed into hist and recorded as a StageArchiveAppend
// span on tr under the interned stream ID. Either sink may be nil.
// Safe to call while the writer is running.
func (s *Store) Instrument(tr *obs.Tracer, hist *obs.Histogram, stream uint32) {
	s.mu.Lock()
	s.obsTrace = tr
	s.obsHist = hist
	s.obsStream = stream
	s.mu.Unlock()
}

// writer is the store's single writer goroutine: it appends records,
// rolls and fsyncs full segments, and applies retention.
func (s *Store) writer() {
	defer s.wg.Done()
	for req := range s.reqs {
		if req.done != nil {
			close(req.done)
			continue
		}
		if s.Err() != nil {
			continue // sticky failure: drop writes, keep draining
		}
		t0 := time.Now()
		err := s.append(req)
		if err != nil {
			s.mu.Lock()
			if s.werr == nil {
				s.werr = err
			}
			s.mu.Unlock()
		}
		s.mu.RLock()
		tr, hist, sid := s.obsTrace, s.obsHist, s.obsStream
		s.mu.RUnlock()
		if hist != nil || tr != nil {
			d := time.Since(t0)
			if hist != nil {
				hist.Observe(d)
			}
			if tr != nil {
				tr.Record(obs.StageArchiveAppend, sid, int64(req.idx), t0, d)
			}
		}
	}
}

// append writes one record, rolling to a fresh segment as needed.
func (s *Store) append(req request) error {
	s.mu.RLock()
	var active *segment
	if n := len(s.segs); n > 0 && !s.segs[n-1].sealed {
		active = s.segs[n-1]
	}
	s.mu.RUnlock()
	if active == nil {
		seg, err := s.newSegment(req.idx)
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.segs = append(s.segs, seg)
		s.mu.Unlock()
		active = seg
	}

	s.rec = appendRecord(s.rec[:0], req.idx, req.bits, req.img)
	rec := s.rec
	off := active.bytes
	if _, err := active.file.WriteAt(rec, off); err != nil {
		return fmt.Errorf("archive: append frame %d: %w", req.idx, err)
	}

	s.mu.Lock()
	active.count++
	active.bytes += int64(len(rec))
	active.bits += req.bits
	full := active.count >= s.cfg.SegmentFrames
	s.mu.Unlock()

	if full {
		// Roll: fsync the sealed segment so a crash cannot tear it,
		// then let retention reclaim space.
		if err := active.file.Sync(); err != nil {
			return fmt.Errorf("archive: seal segment: %w", err)
		}
		s.mu.Lock()
		active.sealed = true
		s.mu.Unlock()
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return nil
}

// newSegment creates the segment file whose first record will be the
// given stream index.
func (s *Store) newSegment(start int) (*segment, error) {
	path := filepath.Join(s.cfg.Dir, fmt.Sprintf("seg-%012d.ffa", start))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archive: create segment: %w", err)
	}
	hdr := encodeHeader(s.cfg.Width, s.cfg.Height, s.cfg.FPS, start)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		f.Close()
		os.Remove(path)
		return nil, fmt.Errorf("archive: write segment header: %w", err)
	}
	return &segment{path: path, file: f, start: start, bytes: headerSize}, nil
}

// evictLocked applies the disk budget: drop oldest sealed segments
// while total usage exceeds it. The active segment is never evicted.
// Callers hold s.mu.
func (s *Store) evictLocked() {
	if s.cfg.Budget <= 0 {
		return
	}
	var total int64
	for _, seg := range s.segs {
		total += seg.bytes
	}
	for total > s.cfg.Budget && len(s.segs) > 1 && s.segs[0].sealed {
		victim := s.segs[0]
		victim.file.Close()
		os.Remove(victim.path)
		total -= victim.bytes
		s.stats.EvictedSegments++
		s.stats.EvictedFrames += victim.count
		s.stats.EvictedBytes += victim.bytes
		s.evictedBits += victim.bits
		s.segs = s.segs[1:]
	}
}
