// Package walog is an append-only, CRC-framed write-ahead log with
// snapshot compaction — the durable state store under each controller
// shard (internal/fleet) and, by design, under anything else that
// needs crash-recoverable state without a database dependency.
//
// A log is a directory holding at most three kinds of file:
//
//	snapshot      header | one framed record (the compacted state)
//	wal-<gen>     header | stream of framed records (ops since snapshot)
//	snapshot.tmp  transient, only during WriteSnapshot
//
// Every record is framed by Frame and read back by ReadRecord.
// internal/transport frames its wire records with the same two
// functions, so a logged record and a wire record are the same bytes.
// The file header and the record frame:
//
//	header: uint32 magic | uint16 version | uint8 ftype | uint8 pad |
//	        uint64 dirID | uint64 gen
//	record: uint8 kind | uint32 length | uint32 crc32(payload) | payload
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
// power loss. Second, snapshots are generation-fenced: WriteSnapshot
// creates the next generation's empty wal file, atomically renames the
// new snapshot (which names that generation) into place, and only then
// deletes the old wal. Open replays exactly the wal file named by the
// surviving snapshot and discards every other generation, so a crash
// anywhere inside WriteSnapshot can neither lose acknowledged records
// nor replay pre-snapshot records on top of the new snapshot. A
// partially written final record — the torn tail of a crashed append —
// is truncated away on reopen; everything before it replays.
package walog

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// magic identifies a walog file (either type, see ftype).
const magic = 0xFFA10C01

// formatVersion is the on-disk layout revision.
const formatVersion = 1

// File types, stored in the header's ftype byte.
const (
	typeWAL      = 1
	typeSnapshot = 2
)

// MaxRecordBytes bounds a single record payload, keeping a damaged or
// hostile length prefix from forcing unbounded allocation.
const MaxRecordBytes = 16 << 20

// readChunk bounds how much ReadRecordBuf allocates ahead of the bytes
// actually arriving.
const readChunk = 64 << 10

// maxKeptFrame bounds the framing buffer a Log keeps between appends,
// so one large record does not pin its size for the log's life.
const maxKeptFrame = 1 << 20

// headerLen is the file header: magic + version + ftype + pad +
// dirID + gen.
const headerLen = 24

// RecordHeaderLen is the record frame header: kind + length + crc32.
const RecordHeaderLen = 9

// ErrCorrupt is wrapped by read errors caused by damage — a bad magic,
// a length prefix beyond the record limit, or a payload failing its
// CRC. Open treats a corrupt record inside the wal as the torn tail
// (truncates and recovers); a corrupt snapshot or header is surfaced,
// because silently dropping a snapshot would lose state.
var ErrCorrupt = errors.New("corrupt record")

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
	id  uint64
	gen uint64

	f       *os.File // active wal-<gen>
	size    int64    // bytes written to f, header included
	pending int      // records appended (or replayed) since last snapshot

	// frame is Append's reused framing buffer.
	frame []byte

	snapshot  []byte   // snapshot payload loaded at Open, nil if none
	records   []Record // wal records replayed at Open
	tornBytes int64    // bytes truncated from the wal tail at Open
	snapSize  int64    // snapshot file size at Open
}

// Open opens (creating if necessary) the log directory, loads the
// surviving snapshot, replays the active wal generation — truncating a
// torn tail — and deletes stale generations left by an interrupted
// WriteSnapshot.
func Open(dir string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, frame: make([]byte, RecordHeaderLen, 256)}

	snapPath := filepath.Join(dir, "snapshot")
	data, err := os.ReadFile(snapPath)
	switch {
	case err == nil:
		id, gen, payload, err := parseSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", snapPath, err)
		}
		l.id, l.gen, l.snapshot = id, gen, payload
		l.snapSize = int64(len(data))
	case errors.Is(err, os.ErrNotExist):
		// No snapshot: generation 0, identity comes from an existing
		// wal-0 or is minted fresh.
	default:
		return nil, err
	}
	// A snapshot.tmp is an interrupted WriteSnapshot that never reached
	// the rename; its generation was never committed.
	_ = os.Remove(filepath.Join(dir, "snapshot.tmp"))

	if err := l.openWAL(); err != nil {
		return nil, err
	}
	// Stale generations: wals before the snapshot's (their records are
	// inside it) or after it (created by an interrupted WriteSnapshot,
	// never appended to).
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || name == walName(l.gen) {
			continue
		}
		if _, perr := strconv.ParseUint(name[len("wal-"):], 10, 64); perr == nil {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
	return l, nil
}

func walName(gen uint64) string { return "wal-" + strconv.FormatUint(gen, 10) }

// openWAL opens (creating if absent or unusably short) the active
// generation's wal and replays its records, truncating the torn tail.
func (l *Log) openWAL() error {
	path := filepath.Join(l.dir, walName(l.gen))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if info.Size() < headerLen {
		// Empty or torn during creation: (re)write the header. Any
		// partial header bytes belong to no committed record.
		if l.id == 0 {
			l.id = newDirID()
		}
		if err := writeFileHeader(f, typeWAL, l.id, l.gen); err != nil {
			f.Close()
			return err
		}
		// WriteAt leaves the offset untouched; appends go after the
		// header, and a torn partial header is gone (truncate).
		if err := f.Truncate(headerLen); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(headerLen, io.SeekStart); err != nil {
			f.Close()
			return err
		}
		l.f, l.size = f, headerLen
		return nil
	}
	var hdr [headerLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		f.Close()
		return err
	}
	id, gen, err := parseFileHeader(hdr, typeWAL)
	if err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if l.snapshot != nil && id != l.id {
		f.Close()
		return fmt.Errorf("%s: %w: wal dirID %#x does not match snapshot dirID %#x", path, ErrCorrupt, id, l.id)
	}
	if gen != l.gen {
		f.Close()
		return fmt.Errorf("%s: %w: wal generation %d in file named for %d", path, ErrCorrupt, gen, l.gen)
	}
	l.id = id

	// Replay, remembering the end of the last whole record so the torn
	// tail — truncation mid-record, a failed CRC, an oversize length
	// claim — can be cut off. Bytes before the damage all replay.
	if _, err := f.Seek(headerLen, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	r := &offsetReader{f: f}
	good := int64(headerLen)
	for {
		kind, payload, err := ReadRecord(r)
		if err != nil {
			if errors.Is(err, io.EOF) {
				break // clean boundary
			}
			l.tornBytes = info.Size() - good
			if terr := f.Truncate(good); terr != nil {
				f.Close()
				return terr
			}
			break
		}
		l.records = append(l.records, Record{Kind: kind, Payload: payload})
		good = headerLen + r.off
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, good
	l.pending = len(l.records)
	return nil
}

// ID returns the directory's stable identity, minted when the
// directory was first created and preserved across snapshots.
func (l *Log) ID() uint64 { return l.id }

// Gen returns the active wal generation.
func (l *Log) Gen() uint64 { return l.gen }

// Dir returns the directory path.
func (l *Log) Dir() string { return l.dir }

// Snapshot returns the snapshot payload loaded at Open, nil when the
// directory had none. Replay order is Snapshot first, then Records.
func (l *Log) Snapshot() []byte { return l.snapshot }

// Records returns the wal records replayed at Open, in append order.
func (l *Log) Records() []Record { return l.records }

// TornBytes returns how many trailing bytes Open truncated from the
// wal (zero for a cleanly closed log).
func (l *Log) TornBytes() int64 { return l.tornBytes }

// SnapshotSize returns the snapshot file's size at Open (zero when the
// directory had none).
func (l *Log) SnapshotSize() int64 { return l.snapSize }

// Pending returns the records accumulated in the active wal since the
// last snapshot (replayed records included) — the compaction signal.
func (l *Log) Pending() int { return l.pending }

// Size returns the active wal's size in bytes, header included.
func (l *Log) Size() int64 { return l.size }

// Append frames one record and hands it to the OS in one write. The
// write is buffered only by the page cache: it survives a process crash
// as written; call Sync to also survive machine power loss. The frame
// is built in a buffer the log reuses, so an append allocates nothing;
// the caller keeps payload.
func (l *Log) Append(kind uint8, payload []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	buf := l.frame[:RecordHeaderLen]
	if err := Frame(buf, kind, payload); err != nil {
		return fmt.Errorf("walog: %w", err)
	}
	buf = append(buf, payload...)
	if cap(buf) <= maxKeptFrame {
		l.frame = buf
	}
	if _, err := l.f.Write(buf); err != nil {
		return err
	}
	l.size += int64(len(buf))
	l.pending++
	return nil
}

// Sync flushes the active wal to stable storage.
func (l *Log) Sync() error {
	if l.f == nil {
		return os.ErrClosed
	}
	return l.f.Sync()
}

// WriteSnapshot durably replaces the log's state with payload and
// resets the wal. The sequence is crash-safe at every step: the next
// generation's empty wal is created and synced first, then the
// snapshot naming that generation is written, synced, and atomically
// renamed into place, and only then is the old generation deleted.
// Open resolves any intermediate state to either the old snapshot+wal
// or the new ones, never a mixture.
func (l *Log) WriteSnapshot(payload []byte) error {
	if l.f == nil {
		return os.ErrClosed
	}
	var rhdr [RecordHeaderLen]byte
	if err := Frame(rhdr[:], typeSnapshot, payload); err != nil {
		return fmt.Errorf("walog: snapshot: %w", err)
	}
	next := l.gen + 1
	nf, err := os.OpenFile(filepath.Join(l.dir, walName(next)), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if err := writeFileHeader(nf, typeWAL, l.id, next); err != nil {
		nf.Close()
		return err
	}
	if _, err := nf.Seek(headerLen, io.SeekStart); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}

	tmp := filepath.Join(l.dir, "snapshot.tmp")
	sf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		nf.Close()
		return err
	}
	werr := writeFileHeader(sf, typeSnapshot, l.id, next)
	if werr == nil {
		_, werr = sf.WriteAt(rhdr[:], headerLen)
	}
	if werr == nil {
		_, werr = sf.WriteAt(payload, headerLen+RecordHeaderLen)
	}
	if werr == nil {
		werr = sf.Sync()
	}
	if cerr := sf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		nf.Close()
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, "snapshot")); err != nil {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	syncDir(l.dir)

	// The new snapshot+wal pair is committed; the old generation is now
	// garbage (Open would delete it too if this removal is lost).
	old := l.f
	oldGen := l.gen
	l.f, l.gen = nf, next
	l.size = headerLen
	l.pending = 0
	l.snapshot = payload
	l.snapSize = headerLen + RecordHeaderLen + int64(len(payload))
	l.records, l.tornBytes = nil, 0
	old.Close()
	_ = os.Remove(filepath.Join(l.dir, walName(oldGen)))
	return nil
}

// Close syncs and closes the active wal. The directory remains valid
// for a later Open.
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

// Abandon closes the active wal without syncing — test support for
// simulating a process crash: whatever the OS holds is what recovery
// sees.
func (l *Log) Abandon() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

// Frame writes the frame header of one record — its kind, the payload
// length and the payload's checksum — into hdr[:RecordHeaderLen]. The
// payload follows the header; ReadRecord reads the pair back. A
// payload over MaxRecordBytes is refused, since no reader would
// accept it.
func Frame(hdr []byte, kind uint8, payload []byte) error {
	if len(payload) > MaxRecordBytes {
		return fmt.Errorf("record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
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

// ParseSnapshot validates a snapshot file image and returns its dirID,
// generation, and payload. Exported for fuzzing; Open uses it
// internally.
func ParseSnapshot(data []byte) (id, gen uint64, payload []byte, err error) {
	return parseSnapshot(data)
}

func parseSnapshot(data []byte) (id, gen uint64, payload []byte, err error) {
	if len(data) < headerLen {
		return 0, 0, nil, fmt.Errorf("%w: snapshot of %d bytes, header needs %d", ErrCorrupt, len(data), headerLen)
	}
	var hdr [headerLen]byte
	copy(hdr[:], data)
	id, gen, err = parseFileHeader(hdr, typeSnapshot)
	if err != nil {
		return 0, 0, nil, err
	}
	kind, payload, err := ReadRecord(bytes.NewReader(data[headerLen:]))
	if err != nil {
		return 0, 0, nil, fmt.Errorf("%w: snapshot record: %v", ErrCorrupt, err)
	}
	if kind != typeSnapshot {
		return 0, 0, nil, fmt.Errorf("%w: snapshot record kind %d", ErrCorrupt, kind)
	}
	return id, gen, payload, nil
}

func writeFileHeader(f *os.File, ftype uint8, id, gen uint64) error {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], magic)
	binary.BigEndian.PutUint16(hdr[4:6], formatVersion)
	hdr[6] = ftype
	binary.BigEndian.PutUint64(hdr[8:16], id)
	binary.BigEndian.PutUint64(hdr[16:24], gen)
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

func parseFileHeader(hdr [headerLen]byte, wantType uint8) (id, gen uint64, err error) {
	if binary.BigEndian.Uint32(hdr[0:4]) != magic {
		return 0, 0, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, binary.BigEndian.Uint32(hdr[0:4]))
	}
	if v := binary.BigEndian.Uint16(hdr[4:6]); v != formatVersion {
		return 0, 0, fmt.Errorf("walog: unsupported format version %d", v)
	}
	if hdr[6] != wantType {
		return 0, 0, fmt.Errorf("%w: file type %d, want %d", ErrCorrupt, hdr[6], wantType)
	}
	return binary.BigEndian.Uint64(hdr[8:16]), binary.BigEndian.Uint64(hdr[16:24]), nil
}

// newDirID mints a random non-zero directory identity.
func newDirID() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic("walog: reading random identity: " + err.Error())
		}
		if id := binary.BigEndian.Uint64(b[:]); id != 0 {
			return id
		}
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

// offsetReader reads from an *os.File sequentially while tracking the
// offset consumed — how Open knows where the last whole record ended.
type offsetReader struct {
	f   *os.File
	off int64
}

func (r *offsetReader) Read(p []byte) (int, error) {
	n, err := r.f.Read(p)
	r.off += int64(n)
	return n, err
}
