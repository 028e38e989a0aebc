package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func payloadN(i int) []byte {
	return []byte(fmt.Sprintf("payload-%04d", i))
}

func mustOpen(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	if l.Snapshot() != nil || len(l.Records()) != 0 {
		t.Fatalf("fresh log has state: snap=%v records=%d", l.Snapshot(), len(l.Records()))
	}
	id := l.ID()
	if id == 0 {
		t.Fatal("fresh log has zero dirID")
	}
	for i := 0; i < 50; i++ {
		if err := l.Append(uint8(i%7+1), payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir)
	if l2.ID() != id {
		t.Fatalf("dirID changed across reopen: %#x -> %#x", id, l2.ID())
	}
	recs := l2.Records()
	if len(recs) != 50 {
		t.Fatalf("replayed %d records, want 50", len(recs))
	}
	for i, r := range recs {
		if r.Kind != uint8(i%7+1) || !bytes.Equal(r.Payload, payloadN(i)) {
			t.Fatalf("record %d = kind %d %q", i, r.Kind, r.Payload)
		}
	}
	if l2.TornBytes() != 0 {
		t.Fatalf("clean log reports %d torn bytes", l2.TornBytes())
	}
	// Appending after replay must extend, not clobber.
	if err := l2.Append(9, []byte("tail")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3 := mustOpen(t, dir)
	if n := len(l3.Records()); n != 51 {
		t.Fatalf("replayed %d records after append-on-reopen, want 51", n)
	}
	l3.Close()
}

func TestTornTailTruncation(t *testing.T) {
	cases := []struct {
		name string
		tear func(path string, t *testing.T)
	}{
		{"partial header", func(path string, t *testing.T) {
			appendRaw(t, path, []byte{3, 0, 0}) // 3 of 9 header bytes
		}},
		{"partial payload", func(path string, t *testing.T) {
			var hdr [RecordHeaderLen]byte
			hdr[0] = 4
			binary.BigEndian.PutUint32(hdr[1:5], 100)
			binary.BigEndian.PutUint32(hdr[5:9], 0xdead)
			appendRaw(t, path, append(hdr[:], []byte("only a few bytes")...))
		}},
		{"bad crc", func(path string, t *testing.T) {
			body := []byte("damaged")
			var hdr [RecordHeaderLen]byte
			hdr[0] = 4
			binary.BigEndian.PutUint32(hdr[1:5], uint32(len(body)))
			binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(body)^0xFF)
			appendRaw(t, path, append(hdr[:], body...))
		}},
		{"oversize length claim", func(path string, t *testing.T) {
			var hdr [RecordHeaderLen]byte
			hdr[0] = 4
			binary.BigEndian.PutUint32(hdr[1:5], MaxRecordBytes+1)
			appendRaw(t, path, hdr[:])
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir)
			for i := 0; i < 10; i++ {
				if err := l.Append(1, payloadN(i)); err != nil {
					t.Fatal(err)
				}
			}
			gen := l.Gen()
			l.Abandon()
			tc.tear(filepath.Join(dir, walName(gen)), t)

			l2 := mustOpen(t, dir)
			if n := len(l2.Records()); n != 10 {
				t.Fatalf("replayed %d records, want the 10 whole ones", n)
			}
			if l2.TornBytes() == 0 {
				t.Fatal("torn tail not reported")
			}
			// The truncated log must accept appends and replay them.
			if err := l2.Append(2, []byte("after-tear")); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			l3 := mustOpen(t, dir)
			if n := len(l3.Records()); n != 11 {
				t.Fatalf("replayed %d records after post-tear append, want 11", n)
			}
			if got := l3.Records()[10]; got.Kind != 2 || string(got.Payload) != "after-tear" {
				t.Fatalf("post-tear record = kind %d %q", got.Kind, got.Payload)
			}
			l3.Close()
		})
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	for i := 0; i < 20; i++ {
		if err := l.Append(1, payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Pending() != 20 {
		t.Fatalf("pending = %d, want 20", l.Pending())
	}
	if err := l.WriteSnapshot([]byte("state-at-20")); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || l.Gen() != 1 {
		t.Fatalf("post-snapshot pending=%d gen=%d", l.Pending(), l.Gen())
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(1, payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := mustOpen(t, dir)
	if string(l2.Snapshot()) != "state-at-20" {
		t.Fatalf("snapshot = %q", l2.Snapshot())
	}
	if n := len(l2.Records()); n != 5 {
		t.Fatalf("replayed %d wal records after snapshot, want 5", n)
	}
	if l2.Records()[0].Payload == nil || !bytes.Equal(l2.Records()[4].Payload, payloadN(24)) {
		t.Fatalf("wrong post-snapshot records: %v", l2.Records())
	}
	if l2.SnapshotSize() == 0 {
		t.Fatal("snapshot size not reported")
	}
	// The pre-snapshot generation must be gone.
	if _, err := os.Stat(filepath.Join(dir, walName(0))); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("wal-0 still present after compaction: %v", err)
	}
	l2.Close()
}

// TestCrashDuringSnapshot walks the on-disk states an interrupted
// WriteSnapshot can leave and checks Open resolves each to a
// consistent (old or new, never mixed) view.
func TestCrashDuringSnapshot(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		l := mustOpen(t, dir)
		for i := 0; i < 8; i++ {
			if err := l.Append(1, payloadN(i)); err != nil {
				t.Fatal(err)
			}
		}
		l.Abandon()
		return dir
	}

	t.Run("next wal created, snapshot not renamed", func(t *testing.T) {
		dir := build(t)
		// Simulate: wal-1 exists (empty), snapshot.tmp half-written,
		// rename never happened.
		nf, err := os.Create(filepath.Join(dir, walName(1)))
		if err != nil {
			t.Fatal(err)
		}
		writeFileHeader(nf, typeWAL, 123, 1)
		nf.Close()
		os.WriteFile(filepath.Join(dir, "snapshot.tmp"), []byte("partial"), 0o644)

		l := mustOpen(t, dir)
		if l.Snapshot() != nil || len(l.Records()) != 8 || l.Gen() != 0 {
			t.Fatalf("recovery chose wrong state: snap=%v records=%d gen=%d", l.Snapshot(), len(l.Records()), l.Gen())
		}
		if _, err := os.Stat(filepath.Join(dir, "snapshot.tmp")); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("snapshot.tmp not cleaned up")
		}
		if _, err := os.Stat(filepath.Join(dir, walName(1))); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("uncommitted wal-1 not cleaned up")
		}
		l.Close()
	})

	t.Run("snapshot renamed, old wal not deleted", func(t *testing.T) {
		dir := build(t)
		l := mustOpen(t, dir)
		if err := l.WriteSnapshot([]byte("committed")); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(2, []byte("post-snap")); err != nil {
			t.Fatal(err)
		}
		id := l.ID()
		l.Abandon()
		// Resurrect the old generation as if its deletion was lost.
		of, err := os.Create(filepath.Join(dir, walName(0)))
		if err != nil {
			t.Fatal(err)
		}
		writeFileHeader(of, typeWAL, id, 0)
		var hdr [RecordHeaderLen]byte
		hdr[0] = 1
		body := []byte("stale-pre-snapshot-record")
		binary.BigEndian.PutUint32(hdr[1:5], uint32(len(body)))
		binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(body))
		of.Write(append(hdr[:], body...))
		of.Close()

		l2 := mustOpen(t, dir)
		if string(l2.Snapshot()) != "committed" {
			t.Fatalf("snapshot = %q", l2.Snapshot())
		}
		// The stale generation's records must NOT replay on top of the
		// snapshot that already contains them.
		if n := len(l2.Records()); n != 1 || string(l2.Records()[0].Payload) != "post-snap" {
			t.Fatalf("replayed %d records %v, want just post-snap", n, l2.Records())
		}
		if _, err := os.Stat(filepath.Join(dir, walName(0))); !errors.Is(err, os.ErrNotExist) {
			t.Fatal("stale wal-0 survived recovery")
		}
		l2.Close()
	})
}

func TestCorruptSnapshotSurfaces(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	l.Append(1, []byte("x"))
	if err := l.WriteSnapshot([]byte("good")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	os.WriteFile(path, data, 0o644)
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt snapshot: %v, want ErrCorrupt", err)
	}
}

func TestDirIDMismatchSurfaces(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	l.Append(1, []byte("x"))
	if err := l.WriteSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	gen := l.Gen()
	l.Close()
	// Rewrite the wal header with a different identity — a foreign wal
	// file dropped into the directory.
	f, err := os.OpenFile(filepath.Join(dir, walName(gen)), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeFileHeader(f, typeWAL, 0xBADBAD, gen)
	f.Close()
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mismatched dirID: %v, want ErrCorrupt", err)
	}
}

func TestListDirs(t *testing.T) {
	root := t.TempDir()
	for _, n := range []string{"shard-0002", "shard-0000", "shard-0010", "other", "shard-x"} {
		os.MkdirAll(filepath.Join(root, n), 0o755)
	}
	os.WriteFile(filepath.Join(root, "shard-0001"), nil, 0o644) // a file, not a dir
	idx, paths, err := ListDirs(root, "shard-")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 2 || idx[2] != 10 {
		t.Fatalf("idx = %v", idx)
	}
	if filepath.Base(paths[2]) != "shard-0010" {
		t.Fatalf("paths = %v", paths)
	}
	if idx2, _, err := ListDirs(filepath.Join(root, "missing"), "shard-"); err != nil || idx2 != nil {
		t.Fatalf("missing root: idx=%v err=%v", idx2, err)
	}
}

// TestReadRecordBoundedAllocation pins the bounded-chunk contract: a
// huge length claim on a truncated stream must cost at most one chunk,
// and the reader never requests more than readChunk bytes per call.
func TestReadRecordBoundedAllocation(t *testing.T) {
	hdr := []byte{1, 0x00, 0xF0, 0x00, 0x00, 0, 0, 0, 0} // claims ~15 MB
	input := append(hdr, make([]byte, 32)...)
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ReadRecord(bytes.NewReader(input)); err == nil {
			t.Fatal("truncated 15 MB claim accepted")
		}
	})
	if allocs > 16 {
		t.Fatalf("ReadRecord made %.0f allocations on a truncated claim", allocs)
	}
	cr := &countingReader{data: input}
	if _, _, err := ReadRecord(cr); err == nil {
		t.Fatal("truncated claim accepted")
	}
	if cr.maxReq > readChunk {
		t.Fatalf("reader requested %d bytes in one call, chunk limit is %d", cr.maxReq, readChunk)
	}
}

// TestReadRecordBufBoundedAllocation: with a small buffer, a length
// prefix at MaxRecordBytes and nothing behind it costs at most one
// readChunk — one allocation, of one chunk's bytes.
func TestReadRecordBufBoundedAllocation(t *testing.T) {
	hdr := []byte{1, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint32(hdr[1:5], MaxRecordBytes)
	buf := make([]byte, 256)
	r := bytes.NewReader(hdr)
	read := func() {
		r.Reset(hdr)
		if _, _, err := ReadRecordBuf(r, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("a %d-byte claim with no payload: err %v, want io.ErrUnexpectedEOF", MaxRecordBytes, err)
		}
	}
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, read); allocs > 1 {
		t.Fatalf("%v allocations per read, want at most one", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > readChunk+readChunk/8 {
		t.Fatalf("%d bytes allocated per read, want at most one chunk of %d", per, readChunk)
	}
}

// TestReadRecordBufFitsWithoutAllocating: a record whose frame fits the
// buffer is read into it with no allocation, and its payload aliases
// the buffer.
func TestReadRecordBufFitsWithoutAllocating(t *testing.T) {
	rec := frameRecord(5, bytes.Repeat([]byte("payload "), 100))
	buf := make([]byte, 1024)
	r := bytes.NewReader(rec)
	allocs := testing.AllocsPerRun(200, func() {
		r.Reset(rec)
		kind, body, err := ReadRecordBuf(r, buf)
		if err != nil || kind != 5 || !bytes.Equal(body, rec[RecordHeaderLen:]) {
			t.Fatalf("kind %d, body %q, err %v", kind, body, err)
		}
		if &body[0] != &buf[0] {
			t.Fatal("a fitting payload was not read into the buffer")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fitting read, want 0", allocs)
	}
}

// TestAppendDoesNotAllocate pins Log.Append at zero allocations: the
// frame is built in the log's reused buffer and written at once.
func TestAppendDoesNotAllocate(t *testing.T) {
	l := mustOpen(t, t.TempDir())
	defer l.Close()
	payload := bytes.Repeat([]byte{7}, 200)
	allocs := testing.AllocsPerRun(200, func() {
		if err := l.Append(3, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v objects, want 0", allocs)
	}
	if l.Pending() != 201 || l.Size() != headerLen+201*int64(RecordHeaderLen+len(payload)) {
		t.Fatalf("pending %d, size %d after 201 appends", l.Pending(), l.Size())
	}
}

func appendRaw(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

type countingReader struct {
	data   []byte
	off    int
	maxReq int
}

func (r *countingReader) Read(p []byte) (int, error) {
	if len(p) > r.maxReq {
		r.maxReq = len(p)
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// TestFrameMatchesLayout pins Frame to the record layout the readers
// expect, and the limit it shares with them: an over-limit payload is
// refused by Append and WriteSnapshot before anything reaches disk.
func TestFrameMatchesLayout(t *testing.T) {
	payload := []byte("frame-layout")
	var hdr [RecordHeaderLen]byte
	if err := Frame(hdr[:], 7, payload); err != nil {
		t.Fatal(err)
	}
	if got, want := append(hdr[:], payload...), frameRecord(7, payload); !bytes.Equal(got, want) {
		t.Fatalf("Frame wrote %x, want %x", got, want)
	}

	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := make([]byte, MaxRecordBytes+1)
	if err := l.Append(1, huge); err == nil {
		t.Fatal("Append accepted an over-limit record")
	}
	if err := l.WriteSnapshot(huge); err == nil {
		t.Fatal("WriteSnapshot accepted an over-limit snapshot")
	}
	if l.Size() != headerLen || l.Gen() != 0 || l.Pending() != 0 {
		t.Fatalf("refused writes changed the log: size %d, gen %d, pending %d", l.Size(), l.Gen(), l.Pending())
	}
}
