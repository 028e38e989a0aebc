package walog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
	for i := 0; i < 50; i++ {
		if err := l.Append(uint8(i%7+1), payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir)
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
	state := []Record{{Kind: 5, Payload: []byte("state-at-20")}, {Kind: 6, Payload: []byte("second half")}}
	if err := l.WriteSnapshot(frameRecords(state...)); err != nil {
		t.Fatal(err)
	}
	if l.Pending() != 0 || l.Gen() != 1 || l.Size() != 0 || l.SnapshotSize() != headerLen+int64(len(frameRecords(state...))) {
		t.Fatalf("post-snapshot pending=%d gen=%d size=%d prefix=%d", l.Pending(), l.Gen(), l.Size(), l.SnapshotSize())
	}
	for i := 20; i < 25; i++ {
		if err := l.Append(1, payloadN(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2 := mustOpen(t, dir)
	if !reflect.DeepEqual(l2.Snapshot(), state) {
		t.Fatalf("snapshot = %v, want %v", l2.Snapshot(), state)
	}
	if n := len(l2.Records()); n != 5 {
		t.Fatalf("replayed %d records after the prefix, want 5", n)
	}
	if !bytes.Equal(l2.Records()[0].Payload, payloadN(20)) || !bytes.Equal(l2.Records()[4].Payload, payloadN(24)) {
		t.Fatalf("wrong post-snapshot records: %v", l2.Records())
	}
	if l2.SnapshotSize() != l.SnapshotSize() || l2.Size() != 5*int64(RecordHeaderLen+len(payloadN(0))) {
		t.Fatalf("reopened prefix %d bytes, tail %d bytes", l2.SnapshotSize(), l2.Size())
	}
	// One file per generation: the pre-snapshot one is gone.
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{walName(1)}) {
		t.Fatalf("directory holds %v after compaction, want only %s", names, walName(1))
	}
	l2.Close()
}

// TestCrashPointsEnumerated enumerates every state a crash can leave
// inside the two ways a generation file comes to be — the fresh create
// in an empty directory and a compaction — and reopens each. A
// generation is written to wal-<gen>.tmp (a crash may leave any prefix
// of its bytes), synced, renamed into place, the directory synced, and
// only then is the old generation removed. The states the test builds
// are taken from a real run: the bytes each step leaves are the bytes
// the finished files hold. After each reopen the state is the old one
// or the new one, whole, and only the committed generation is left;
// the same state with a torn tail behind the committed generation
// recovers with the tail cut off; and with a damaged byte in the
// committed generation's compacted prefix it fails with ErrCorrupt and
// leaves the directory as it was.
func TestCrashPointsEnumerated(t *testing.T) {
	// A real run: the fresh generation, then a compaction from a
	// generation with a prefix and a tail to one with a new prefix.
	dir := t.TempDir()
	l := mustOpen(t, dir)
	fresh := readFile(t, filepath.Join(dir, walName(0)))
	l.Append(1, []byte("r1"))
	l.Append(1, []byte("r2"))
	oldPrefix := []Record{{Kind: 2, Payload: []byte("compacted r1+r2")}}
	if err := l.WriteSnapshot(frameRecords(oldPrefix...)); err != nil {
		t.Fatal(err)
	}
	oldTail := []Record{{Kind: 1, Payload: []byte("r3")}}
	l.Append(1, []byte("r3"))
	l.Sync()
	oldGen := readFile(t, filepath.Join(dir, walName(1)))
	newPrefix := []Record{{Kind: 2, Payload: []byte("compacted r1+r2+r3")}, {Kind: 3, Payload: []byte("second node")}}
	if err := l.WriteSnapshot(frameRecords(newPrefix...)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	newGen := readFile(t, filepath.Join(dir, walName(2)))
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{walName(2)}) {
		t.Fatalf("the finished compaction left %v", names)
	}

	type state struct {
		name            string
		files           map[string][]byte
		gen             uint64 // the generation Open must keep
		prefix, records []Record
	}
	var states []state
	// The fresh create: the directory is empty before the rename and
	// holds the empty generation after it; both open as an empty log.
	states = append(states, state{name: "fresh: nothing written", files: map[string][]byte{}})
	for k := 0; k <= len(fresh); k++ {
		states = append(states, state{name: fmt.Sprintf("fresh: %d of %d tmp bytes written", k, len(fresh)),
			files: map[string][]byte{walName(0) + ".tmp": fresh[:k]}})
	}
	states = append(states, state{name: "fresh: renamed", files: map[string][]byte{walName(0): fresh}})
	// The compaction: before the rename the old generation stands
	// whole; from the rename on, the new one does.
	for k := 0; k <= len(newGen); k++ {
		step := "written"
		if k == len(newGen) {
			step = "synced"
		}
		states = append(states, state{name: fmt.Sprintf("compaction: %d of %d tmp bytes %s", k, len(newGen), step),
			files: map[string][]byte{walName(1): oldGen, walName(2) + ".tmp": newGen[:k]},
			gen:   1, prefix: oldPrefix, records: oldTail})
	}
	states = append(states,
		state{name: "compaction: renamed, old generation not yet removed",
			files: map[string][]byte{walName(1): oldGen, walName(2): newGen}, gen: 2, prefix: newPrefix},
		state{name: "compaction: done", files: map[string][]byte{walName(2): newGen}, gen: 2, prefix: newPrefix})

	torn := frameRecord(9, []byte("a record the crash tore"))[:12]
	for _, st := range states {
		t.Run(st.name, func(t *testing.T) {
			committed := walName(st.gen)
			for _, variant := range []string{"as left", "torn tail", "damaged prefix"} {
				files := maps.Clone(st.files)
				switch variant {
				case "torn tail":
					if files[committed] == nil {
						continue // no generation committed yet: nothing to tear
					}
					files[committed] = append(slices.Clone(files[committed]), torn...)
				case "damaged prefix":
					if len(files[committed]) <= headerLen || len(st.prefix) == 0 {
						continue
					}
					files[committed] = slices.Clone(files[committed])
					files[committed][headerLen+RecordHeaderLen] ^= 0x20
				}
				dir := t.TempDir()
				for name, b := range files {
					if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				l, err := Open(dir)
				if variant == "damaged prefix" {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("%s: Open: %v, want ErrCorrupt", variant, err)
					}
					if got := readDir(t, dir); !reflect.DeepEqual(got, files) {
						t.Fatalf("%s: the refused Open changed the directory", variant)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: Open: %v", variant, err)
				}
				if l.Gen() != st.gen || !reflect.DeepEqual(l.Snapshot(), st.prefix) || !reflect.DeepEqual(l.Records(), st.records) {
					t.Fatalf("%s: recovered generation %d, prefix %v, records %v; want %d, %v, %v",
						variant, l.Gen(), l.Snapshot(), l.Records(), st.gen, st.prefix, st.records)
				}
				if (variant == "torn tail") != (l.TornBytes() == int64(len(torn))) {
					t.Fatalf("%s: %d torn bytes truncated", variant, l.TornBytes())
				}
				if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{committed}) {
					t.Fatalf("%s: directory holds %v after Open, want only %s", variant, names, committed)
				}
				kept := st.files[committed] // a torn tail is cut off
				if kept == nil {
					kept = fresh
				}
				if got := readFile(t, filepath.Join(dir, committed)); !bytes.Equal(got, kept) {
					t.Fatalf("%s: Open left %d bytes in %s, want the %d committed", variant, len(got), committed, len(kept))
				}
				if err := l.Append(4, []byte("after recovery")); err != nil {
					t.Fatal(err)
				}
				l.Close()
				l = mustOpen(t, dir)
				want := append(slices.Clone(st.records), Record{Kind: 4, Payload: []byte("after recovery")})
				if !reflect.DeepEqual(l.Snapshot(), st.prefix) || !reflect.DeepEqual(l.Records(), want) || l.TornBytes() != 0 {
					t.Fatalf("%s: second Open recovered prefix %v, records %v, %d torn bytes", variant, l.Snapshot(), l.Records(), l.TornBytes())
				}
				l.Close()
			}
		})
	}
}

// TestCrashDuringSnapshot interrupts a real WriteSnapshot at its two
// crash points — before the next generation is renamed into place, and
// after it but before the old generation is removed — and checks Open
// resolves each to one consistent view, the old state or the new one,
// never a mixture.
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
		// The next generation's tmp file holds part of the snapshot;
		// the rename never happened.
		next := genFile(frameRecord(2, []byte("partial snapshot state")), nil)
		if err := os.WriteFile(filepath.Join(dir, walName(1)+".tmp"), next[:len(next)-4], 0o644); err != nil {
			t.Fatal(err)
		}

		l := mustOpen(t, dir)
		if l.Snapshot() != nil || len(l.Records()) != 8 || l.Gen() != 0 {
			t.Fatalf("recovery chose wrong state: snap=%v records=%d gen=%d", l.Snapshot(), len(l.Records()), l.Gen())
		}
		if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{walName(0)}) {
			t.Fatalf("directory holds %v after Open, want only %s", names, walName(0))
		}
		l.Close()
	})

	t.Run("snapshot renamed, old wal not deleted", func(t *testing.T) {
		dir := build(t)
		old := readFile(t, filepath.Join(dir, walName(0)))
		l := mustOpen(t, dir)
		committed := []Record{{Kind: 2, Payload: []byte("committed")}}
		if err := l.WriteSnapshot(frameRecords(committed...)); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(2, []byte("post-snap")); err != nil {
			t.Fatal(err)
		}
		l.Abandon()
		// Resurrect the old generation as if its removal was lost.
		if err := os.WriteFile(filepath.Join(dir, walName(0)), old, 0o644); err != nil {
			t.Fatal(err)
		}

		l2 := mustOpen(t, dir)
		if !reflect.DeepEqual(l2.Snapshot(), committed) {
			t.Fatalf("snapshot = %v, want %v", l2.Snapshot(), committed)
		}
		// The stale generation's records must NOT replay on top of the
		// snapshot that already contains them.
		if n := len(l2.Records()); n != 1 || string(l2.Records()[0].Payload) != "post-snap" {
			t.Fatalf("replayed %d records %v, want just post-snap", n, l2.Records())
		}
		if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{walName(1)}) {
			t.Fatalf("directory holds %v after Open, want only %s", names, walName(1))
		}
		l2.Close()
	})
}

// TestCorruptSnapshotSurfaces damages one byte of a written snapshot —
// the compacted prefix of the active generation — and checks Open
// surfaces ErrCorrupt and leaves the directory as it was.
func TestCorruptSnapshotSurfaces(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir)
	l.Append(1, []byte("x"))
	if err := l.WriteSnapshot(frameRecord(2, []byte("good"))); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, walName(1))
	data := readFile(t, path)
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt snapshot: %v, want ErrCorrupt", err)
	}
	if !reflect.DeepEqual(readDir(t, dir), before) {
		t.Fatal("the refused Open changed the directory")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// readDir maps each file in dir to its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	for _, name := range dirNames(t, dir) {
		files[name] = readFile(t, filepath.Join(dir, name))
	}
	return files
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
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
		if _, _, err := readRecordBuf(r, buf); !errors.Is(err, io.ErrUnexpectedEOF) {
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
		kind, body, err := readRecordBuf(r, buf)
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
	if l.Pending() != 201 || l.Size() != 201*int64(RecordHeaderLen+len(payload)) {
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
// refused by Append with ErrTooLarge before anything reaches disk.
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
	if err := l.Append(1, huge); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Append of an over-limit record: %v, want ErrTooLarge", err)
	}
	if fi, err := os.Stat(filepath.Join(dir, walName(0))); err != nil || fi.Size() != headerLen || l.Size() != 0 || l.Pending() != 0 {
		t.Fatalf("the refused append changed the log: size %d, pending %d (stat err %v)", l.Size(), l.Pending(), err)
	}
}
