// Package walog is an append-only, CRC-framed write-ahead log with
// compaction — the durable state store under each controller shard
// (internal/fleet) — and the one record framing this repository
// writes: internal/transport frames its wire records with Frame and
// ReadRecord, so a logged record and a wire record are the same bytes,
// and internal/archive's segment files are runs of the same records,
// recovered by the same Scan the log's Open calls.
//
// A log is a directory holding one file per generation:
//
//	wal-<gen>      header | compacted prefix | records appended since
//	wal-<gen>.tmp  transient, only while that generation is written
//
// The header and the record frame:
//
//	header: uint32 magic | uint16 version | uint64 len(prefix)
//	record: uint8 kind | uint32 length | uint32 crc32(payload) | payload
//
// The compacted prefix is records too: the state WriteSnapshot was
// handed, which must be whole framed records. No record, in the
// prefix or after it, may exceed MaxRecordBytes; the prefix as a whole
// has no limit.
//
// The per-record CRC turns torn or damaged bytes into a typed
// ErrCorrupt instead of a silent desync, and the reader never trusts
// the length prefix for allocation: payloads grow in bounded chunks as
// bytes actually arrive, so a hostile or damaged prefix costs one
// chunk, not MaxRecordBytes.
//
// Crash safety rests on two rules. First, appends are plain writes —
// a record handed to the OS survives any process crash (SIGKILL
// included); Sync is available when a caller must also survive machine
// power loss. Second, a generation file appears only whole:
// WriteSnapshot (and Open, in an empty directory) writes
// wal-<gen>.tmp, fsyncs it, renames it into place and syncs the
// directory, and only then deletes the previous generation. Open keeps
// the highest generation and removes every other one and every tmp
// file, so a crash anywhere inside WriteSnapshot recovers either the
// old generation or the new one, never a mixture. Since the prefix was
// synced before its rename, damage inside it is surfaced as ErrCorrupt
// and Open deletes nothing; a partially written record after it — the
// torn tail of a crashed append — is truncated away on reopen, and
// everything before it replays.
package walog

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a walog generation file.
const magic = 0xFFA10C01

// formatVersion is the on-disk layout revision. Version 1 kept the
// compacted state in a separate snapshot file, framed a second time as
// one record; Open refuses it.
const formatVersion = 2

// MaxRecordBytes bounds a single record payload, keeping a damaged or
// hostile length prefix from forcing unbounded allocation.
const MaxRecordBytes = 16 << 20

// readChunk bounds how much ReadRecordBuf allocates ahead of the bytes
// actually arriving.
const readChunk = 64 << 10

// MaxKeptBytes bounds every record buffer kept from one record to the
// next: a Log's framing buffer, a transport.Reader's read buffer,
// transport.WriteRecord's pool, a fleet shard's encoding buffer and an
// agent's framing buffer. One large record then does not pin its size
// for the life of a log or a connection.
const MaxKeptBytes = 1 << 20

// ChunkBytes bounds the data one record of a longer stream carries,
// beside a few bytes of layout header (a demand fetch's frames:
// core.FetchChunkFrames): a quarter of MaxKeptBytes, so the record
// fits every buffer that bound keeps. ReadRecordBuf grows a buffer by append, whose capacity
// overshoots the record, and a simulated pipe (internal/simnet) holds
// its socket-buffer bound of unread bytes plus one such record. A
// record just under MaxKeptBytes fits neither and is read into a
// freshly grown buffer every time.
const ChunkBytes = MaxKeptBytes / 4

// headerLen is the generation file header: magic + version + the
// compacted prefix's length.
const headerLen = 14

// RecordHeaderLen is the record frame header: kind + length + crc32.
const RecordHeaderLen = 9

// ErrCorrupt is wrapped by read errors caused by damage — a bad magic,
// a length prefix beyond the record limit, or a payload failing its
// CRC. Open treats a corrupt record after the compacted prefix as the
// torn tail (truncates and recovers); a corrupt header or prefix is
// surfaced, because silently dropping compacted state would lose it.
var ErrCorrupt = errors.New("corrupt record")

// ErrTooLarge is wrapped by Frame's refusal of a payload over
// MaxRecordBytes, and so by Append's: nothing was written.
var ErrTooLarge = errors.New("record too large")

// Record is one replayed log entry: an opaque kind byte and payload,
// both owned by the caller after Open.
type Record struct {
	Kind    uint8
	Payload []byte
}

// Log is an open write-ahead log directory. Append/WriteSnapshot/Sync
// must be serialized by the caller (the fleet shard holds its mutex);
// the accessors are read-only after Open.
type Log struct {
	dir string
	gen uint64

	f       *os.File // wal-<gen>, positioned at its end
	prefix  int64    // bytes of the compacted prefix
	size    int64    // bytes appended after the prefix
	pending int      // records after the prefix, replayed or appended

	// frame is Append's reused framing buffer.
	frame []byte

	snapshot  []Record // the compacted prefix's records read at Open
	records   []Record // the records after it read at Open
	tornBytes int64    // bytes truncated from the tail at Open
}

// Open opens the log directory, creating it and its first generation
// if necessary. It refuses a format-1 directory, reads the highest
// generation — its compacted prefix, then the records after it,
// truncating a torn tail — and only then removes every other
// generation file and tmp file an interrupted WriteSnapshot left.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, frame: make([]byte, RecordHeaderLen, 256)}
	var gens []uint64
	var files []string // every generation file and tmp file
	for _, e := range entries {
		name := e.Name()
		if name == "snapshot" {
			return nil, fmt.Errorf("walog: %s holds a format-1 log (a snapshot file); this version reads format %d only", dir, formatVersion)
		}
		s, ok := strings.CutPrefix(name, "wal-")
		s, tmp := strings.CutSuffix(s, ".tmp")
		if g, err := strconv.ParseUint(s, 10, 64); ok && err == nil {
			files = append(files, name)
			if !tmp {
				gens = append(gens, g)
			}
		}
	}
	if len(gens) > 0 {
		l.gen = slices.Max(gens)
		path := filepath.Join(dir, walName(l.gen))
		if l.f, err = os.OpenFile(path, os.O_RDWR, 0); err != nil {
			return nil, err
		}
		if err := l.load(); err != nil {
			l.f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	for _, name := range files {
		if name != walName(l.gen) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	if l.f == nil {
		if l.f, err = l.create(0, nil); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func walName(gen uint64) string { return "wal-" + strconv.FormatUint(gen, 10) }

// load reads l.f: the header, the compacted prefix's records (any
// damage there is an error) and the records after it, truncating the
// torn tail, and leaves l.f positioned for appends.
func (l *Log) load() error {
	info, err := l.f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	var hdr [headerLen]byte
	if _, err := l.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	if m := binary.BigEndian.Uint32(hdr[0:4]); m != magic {
		return fmt.Errorf("%w: bad magic %#x", ErrCorrupt, m)
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != formatVersion {
		return fmt.Errorf("walog: format version %d; this version reads format %d only", v, formatVersion)
	}
	prefix := binary.BigEndian.Uint64(hdr[6:14])
	if prefix > uint64(size-headerLen) {
		return fmt.Errorf("%w: compacted prefix of %d bytes in a %d-byte file", ErrCorrupt, prefix, size)
	}
	l.prefix = int64(prefix)

	r := bufio.NewReaderSize(io.NewSectionReader(l.f, headerLen, size-headerLen), readChunk)
	if _, err := Scan(io.LimitReader(r, l.prefix), nil, func(kind uint8, payload []byte) error {
		l.snapshot = append(l.snapshot, Record{Kind: kind, Payload: payload})
		return nil
	}); err != nil {
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return fmt.Errorf("compacted prefix: %w", err)
	}
	tail, err := Scan(r, nil, func(kind uint8, payload []byte) error {
		l.records = append(l.records, Record{Kind: kind, Payload: payload})
		return nil
	})
	good := headerLen + l.prefix + tail
	if err != nil {
		// A torn or damaged record after the prefix — truncation
		// mid-record, a failed CRC, an oversize length claim — and
		// whatever follows it are cut off; every record before it
		// replays.
		l.tornBytes = size - good
		if err := l.f.Truncate(good); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return err
	}
	l.size, l.pending = tail, len(l.records)
	return nil
}

// create writes generation gen with prefix as its compacted state:
// into wal-<gen>.tmp, synced, then renamed into place with the
// directory synced, so the file only ever appears whole. It returns
// the file positioned for appends after the prefix.
func (l *Log) create(gen uint64, prefix []byte) (*os.File, error) {
	path := filepath.Join(l.dir, walName(gen))
	f, err := os.OpenFile(path+".tmp", os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], formatVersion)
	binary.BigEndian.PutUint64(hdr[6:14], uint64(len(prefix)))
	_, err = f.Write(hdr[:])
	if err == nil {
		_, err = f.Write(prefix)
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		f.Close()
		os.Remove(path + ".tmp")
		return nil, err
	}
	syncDir(l.dir)
	return f, nil
}

// Gen returns the active generation.
func (l *Log) Gen() uint64 { return l.gen }

// Dir returns the directory path.
func (l *Log) Dir() string { return l.dir }

// Snapshot returns the compacted prefix's records read at Open, nil
// when it had none. Replay order is Snapshot first, then Records.
func (l *Log) Snapshot() []Record { return l.snapshot }

// Records returns the records after the compacted prefix read at
// Open, in append order.
func (l *Log) Records() []Record { return l.records }

// TornBytes returns how many trailing bytes Open truncated (zero for
// a cleanly closed log).
func (l *Log) TornBytes() int64 { return l.tornBytes }

// SnapshotSize returns the bytes the active generation was created
// with: its header and compacted prefix.
func (l *Log) SnapshotSize() int64 { return headerLen + l.prefix }

// Pending returns the records after the compacted prefix (replayed
// records included) — the compaction signal.
func (l *Log) Pending() int { return l.pending }

// Size returns the bytes of the records after the compacted prefix.
func (l *Log) Size() int64 { return l.size }

// Append frames one record and hands it to the OS in one write. The
// write is buffered only by the page cache: it survives a process crash
// as written; call Sync to also survive machine power loss. The frame
// is built in a buffer the log reuses, so an append allocates nothing;
// the caller keeps payload. A payload over MaxRecordBytes is refused
// with ErrTooLarge before anything is written.
func (l *Log) Append(kind uint8, payload []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	buf := l.frame[:RecordHeaderLen]
	if err := Frame(buf, kind, payload); err != nil {
		return fmt.Errorf("walog: %w", err)
	}
	buf = append(buf, payload...)
	if cap(buf) <= MaxKeptBytes {
		l.frame = buf
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(len(buf))
	l.pending++
	return nil
}

// Sync flushes the active generation to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return os.ErrClosed
	}
	return l.f.Sync()
}

// WriteSnapshot durably replaces the log's state with payload, which
// must be whole framed records: it becomes the compacted prefix of the
// next generation, written whole by create, and appends go there from
// then on. Only then is the old generation deleted, so a crash at any
// step leaves the old generation or the new one for Open, never a
// mixture. The payload is not checked here: one that is not whole
// records still replaces the old generation, and every later Open
// refuses the log as ErrCorrupt.
func (l *Log) WriteSnapshot(payload []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	f, err := l.create(l.gen+1, payload)
	if err != nil {
		return err
	}
	l.f.Close()
	old := filepath.Join(l.dir, walName(l.gen))
	l.f, l.gen = f, l.gen+1
	l.prefix, l.size, l.pending = int64(len(payload)), 0, 0
	l.snapshot, l.records, l.tornBytes = nil, nil, 0
	_ = os.Remove(old) // Open removes it too if this is lost
	return nil
}

// Close syncs and closes the active generation. The directory remains
// valid for a later Open.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Abandon closes the active generation without syncing — test support
// for simulating a process crash: whatever the OS holds is what
// recovery sees.
func (l *Log) Abandon() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Frame writes the frame header of one record — its kind, the payload
// length and the payload's checksum — into hdr[:RecordHeaderLen]. The
// payload follows the header; ReadRecord reads the pair back. A
// payload over MaxRecordBytes is refused with ErrTooLarge, since no
// reader would accept it.
func Frame(hdr []byte, kind uint8, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("%w: %d bytes, limit %d", ErrTooLarge, len(payload), MaxRecordBytes)
	}
	hdr[0] = kind
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.ChecksumIEEE(payload))
	return nil
}

// ReadRecord reads one framed record from r, returning its kind and a
// payload the caller owns. A clean end of stream at a record boundary
// returns io.EOF; truncation mid-record returns io.ErrUnexpectedEOF; a
// length prefix beyond the limit or a payload failing its CRC returns
// an error wrapping ErrCorrupt. The payload buffer grows in bounded
// chunks as bytes arrive, never from the length prefix alone. It is
// ReadRecordBuf with no buffer to reuse.
func ReadRecord(r io.Reader) (uint8, []byte, error) { return ReadRecordBuf(r, nil) }

// ReadRecordBuf is ReadRecord reading into buf's storage: the frame
// header is read into buf first (so cap(buf) below RecordHeaderLen
// counts as no buffer), then a payload that fits cap(buf) over it,
// without allocating; that payload aliases buf, so it is valid only
// until buf is reused. A larger record grows a new buffer from
// buf in readChunk steps as its bytes arrive, exactly as ReadRecord
// does, so a hostile length prefix still costs at most one chunk. The
// errors are ReadRecord's. buf's contents are ignored.
func ReadRecordBuf(r io.Reader, buf []byte) (uint8, []byte, error) {
	if cap(buf) < RecordHeaderLen {
		// Room for a small payload too: an ack or an upload then costs
		// one allocation, not two.
		buf = make([]byte, RecordHeaderLen, 64)
	}
	rhdr := buf[:RecordHeaderLen]
	if _, err := io.ReadFull(r, rhdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, io.EOF
		}
		return 0, nil, err
	}
	kind := rhdr[0]
	size := int(binary.BigEndian.Uint32(rhdr[1:5]))
	sum := binary.BigEndian.Uint32(rhdr[5:9])
	if size > MaxRecordBytes {
		return 0, nil, fmt.Errorf("%w: length prefix claims %d bytes (limit %d)", ErrCorrupt, size, MaxRecordBytes)
	}
	// The header is parsed: its bytes are free to hold the payload.
	var body []byte
	if size <= cap(buf) {
		body = buf[:size]
		if _, err := io.ReadFull(r, body); err != nil {
			return 0, nil, unexpectedEOF(err)
		}
	} else {
		body = buf[:0]
		for len(body) < size {
			n := min(size-len(body), readChunk)
			off := len(body)
			body = append(body, zeroChunk[:n]...)
			if _, err := io.ReadFull(r, body[off:]); err != nil {
				return 0, nil, unexpectedEOF(err)
			}
		}
	}
	if crc32.ChecksumIEEE(body) != sum {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch (kind %d, %d bytes)", ErrCorrupt, kind, size)
	}
	return kind, body, nil
}

// CheckRecord checks that b is exactly one framed record, in place: it
// returns the kind and a payload that aliases b, so a caller that
// reads a record whole (one ReadAt of a known size) checks it without
// a copy. A b shorter than a frame header is io.ErrUnexpectedEOF; a
// length prefix that disagrees with len(b) or a payload failing its
// CRC returns an error wrapping ErrCorrupt.
func CheckRecord(b []byte) (uint8, []byte, error) {
	if len(b) < RecordHeaderLen {
		return 0, nil, io.ErrUnexpectedEOF
	}
	kind, payload := b[0], b[RecordHeaderLen:]
	if size := binary.BigEndian.Uint32(b[1:5]); int64(size) != int64(len(payload)) {
		return 0, nil, fmt.Errorf("%w: length prefix claims %d bytes, record holds %d", ErrCorrupt, size, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[5:9]) {
		return 0, nil, fmt.Errorf("%w: payload checksum mismatch (kind %d, %d bytes)", ErrCorrupt, kind, len(payload))
	}
	return kind, payload, nil
}

// unexpectedEOF maps a clean end of stream inside a record to
// io.ErrUnexpectedEOF: only a record boundary may end the stream.
func unexpectedEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// zeroChunk is the shared zero source ReadRecordBuf grows buffers from.
var zeroChunk [readChunk]byte

// Scan reads framed records from r in order and hands each to fn. It
// stops at a clean end of stream at a record boundary and returns nil,
// or at a record ReadRecordBuf refuses (torn or damaged) or fn refuses,
// and returns that error. Either way it also returns the bytes of the
// records fn accepted: the offset where a torn tail begins. Each
// payload is read as ReadRecordBuf reads it into buf: with a nil buf
// it is the caller's to keep; otherwise it is valid until fn returns.
func Scan(r io.Reader, buf []byte, fn func(kind uint8, payload []byte) error) (int64, error) {
	var n int64
	for {
		kind, payload, err := ReadRecordBuf(r, buf)
		if err == io.EOF {
			return n, nil
		}
		if err == nil {
			err = fn(kind, payload)
		}
		if err != nil {
			return n, err
		}
		n += RecordHeaderLen + int64(len(payload))
	}
}

// syncDir best-effort fsyncs a directory so a rename in it is durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// ListDirs returns the walog subdirectories under root matching the
// "prefixNNNN" naming convention, sorted by index, as (index, path)
// pairs — the discovery step of multi-log recovery (one log per
// controller shard).
func ListDirs(root, prefix string) (idx []int, paths []string, err error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	type dirEnt struct {
		i int
		p string
	}
	var dirs []dirEnt
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		i, perr := strconv.Atoi(strings.TrimPrefix(e.Name(), prefix))
		if perr != nil || i < 0 {
			continue
		}
		dirs = append(dirs, dirEnt{i: i, p: filepath.Join(root, e.Name())})
	}
	sort.Slice(dirs, func(a, b int) bool { return dirs[a].i < dirs[b].i })
	for _, d := range dirs {
		idx = append(idx, d.i)
		paths = append(paths, d.p)
	}
	return idx, paths, nil
}
