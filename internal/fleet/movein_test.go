package fleet

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/walog"
)

// TestMoveInRoundTrip: a node record survives its move-in layout
// unchanged, maps of every shape included — nil, an empty stream's MC
// map, several entries — and a ledger of uploads whose ranges and bits
// span the varints' widths.
func TestMoveInRoundTrip(t *testing.T) {
	big := fullNode(1)
	big.Intent["cam1"] = map[string]deployment{}
	big.Intent["cam0"]["mc-2"] = deployment{Threshold: float32(math.Inf(-1))}
	big.Drift["cam0/mc-2"] = &driftState{PSI: math.MaxFloat64}
	for i, span := range []int{0, 1, -1, math.MaxInt, math.MinInt, 1 << 40} {
		big.DC.Receive(core.Upload{MCName: fmt.Sprintf("cam%d/mc-1", i%2), EventID: math.MaxUint64 >> i, Start: -span, End: span, Bits: int64(-span), Final: i%2 == 1})
	}
	for name, st := range map[string]*nodeState{"full": fullNode(0), "big": big, "empty": {DC: core.NewDatacenter()}} {
		payload, err := (&moveInRec{Name: name, Node: st}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(wrecMoveIn, payload)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := rec.(*moveInRec); got.Name != name || !reflect.DeepEqual(got.Node, st) {
			t.Errorf("%s: round trip gave %+v\n want %+v", name, got.Node, st)
		}
	}
}

// TestLedgerHeapPerUpload holds 100k uploads, spread over four MCs and
// applied through shardState.apply from decoded upload records as
// recovery and the live path apply them, and bounds the live heap the
// ledger takes per upload. A node's ledger keeps an upload's event,
// range, bits and Final flag in 40 bytes under its MC's name, stored
// once; 56 bytes leaves room for the slack of a growing slice.
func TestLedgerHeapPerUpload(t *testing.T) {
	const uploads, limit = 100_000, 56
	var payload []byte
	measure := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	s := newShardState()
	s.node("edge-1")
	before := measure()
	for seq := uint64(1); seq <= uploads; seq++ {
		start := 7 * int(seq)
		var err error
		payload, err = transport.AppendPayload(payload[:0], &uploadRec{Node: "edge-1", Rec: transport.UploadRecord{
			MCName: fmt.Sprintf("cam0/mc-%d", seq%4), EventID: seq / 3, Start: start, End: start + 5, Bits: 4000 + int64(seq%97), Final: seq%3 == 0, Seq: seq,
		}})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := decodeRecord(wrecUpload, payload)
		if err != nil {
			t.Fatal(err)
		}
		s.apply(rec)
	}
	payload = nil
	per := float64(measure()-before) / uploads
	runtime.KeepAlive(s)
	if n, _ := s.Nodes["edge-1"].DC.Totals(); n != uploads {
		t.Fatalf("ledger holds %d uploads, want %d", n, uploads)
	}
	t.Logf("%d uploads: %.1f B of live heap per upload", uploads, per)
	if per > limit {
		t.Fatalf("ledger takes %.1f B of live heap per upload, want at most %d", per, limit)
	}
}

// FuzzDecodeMoveIn feeds arbitrary payloads to the move-in layout's
// decoder: nothing panics, a refused input leaves the record
// untouched, a decode allocates at most a fixed multiple of the input's
// size (every count is bounded by the bytes left), and an accepted
// record re-encodes to bytes that decode back to the same node, bit for
// bit.
func FuzzDecodeMoveIn(f *testing.F) {
	f.Add(must((&moveInRec{Name: "edge-1", Node: fullNode(0)}).AppendBinary(nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sentinel := &nodeState{DC: core.NewDatacenter()}
		rec := moveInRec{Name: "sentinel", Node: sentinel}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := transport.DecodeRecord(data, &rec)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > moveInAllocPerByte*uint64(len(data))+moveInAllocFixed {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			if rec.Name != "sentinel" || rec.Node != sentinel {
				t.Fatalf("refused input %x still set the record: %+v", data, rec)
			}
			return
		}
		again := must(rec.AppendBinary(nil))
		var back moveInRec
		if err := transport.DecodeRecord(again, &back); err != nil || back.Name != rec.Name || !sameNode(back.Node, rec.Node) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x and decodes to %+v (err %v)", data, rec.Node, again, back.Node, err)
		}
	})
}

// The bound on what decoding one move-in allocates: per input byte, a
// few times what the densest entry costs — a two-byte intent stream (an
// empty name and a zero count), which gets a map of its own — plus the
// empty node's fixed cost.
const moveInAllocPerByte, moveInAllocFixed = 256, 4096

// sameNode is reflect.DeepEqual with every float compared bit for bit,
// so that a NaN read off the wire equals itself.
func sameNode(a, b *nodeState) bool {
	if !reflect.DeepEqual(withoutFloats(a), withoutFloats(b)) {
		return false
	}
	for stream, mcs := range a.Intent {
		for name, dep := range mcs {
			if math.Float32bits(dep.Threshold) != math.Float32bits(b.Intent[stream][name].Threshold) {
				return false
			}
		}
	}
	for key, ds := range a.Drift {
		if math.Float64bits(ds.PSI) != math.Float64bits(b.Drift[key].PSI) || math.Float64bits(ds.KS) != math.Float64bits(b.Drift[key].KS) {
			return false
		}
	}
	return true
}

// withoutFloats returns a copy of st with its thresholds and drift
// scores zeroed.
func withoutFloats(st *nodeState) nodeState {
	out := *st
	if st.Intent != nil {
		out.Intent = make(map[string]map[string]deployment, len(st.Intent))
		for stream, mcs := range st.Intent {
			out.Intent[stream] = make(map[string]deployment, len(mcs))
			for name, dep := range mcs {
				dep.Threshold = 0
				out.Intent[stream][name] = dep
			}
		}
	}
	if st.Drift != nil {
		out.Drift = make(map[string]*driftState, len(st.Drift))
		for key, ds := range st.Drift {
			c := *ds
			c.PSI, c.KS = 0, 0
			out.Drift[key] = &c
		}
	}
	return out
}

// TestMoveInCorpusRefusals pins what each malformed input in
// FuzzDecodeMoveIn's checked-in corpus exercises: the error decoding
// it must give, and that the valid ones decode.
func TestMoveInCorpusRefusals(t *testing.T) {
	for name, want := range map[string]string{
		"valid":                   "",
		"empty-node":              "",
		"truncated":               "truncated flag",
		"trailing-byte":           "1 trailing bytes",
		"ledger-count-past-bytes": "entries of at least 5 bytes",
		"intent-count-past-bytes": "entries of at least 7 bytes",
		"drift-count-past-bytes":  fmt.Sprintf("entries of at least %d bytes", minDriftBytes),
		"duplicate-key":           `ledger of "cam0/mc-1" twice`,
		"final-byte-2":            "flag byte 2",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzDecodeMoveIn", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var rec moveInRec
		err = rec.UnmarshalBinary([]byte(data))
		if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
			t.Errorf("%s: decode error %v, want %q", name, err, want)
		}
	}
}

// BenchmarkCompaction encodes the snapshot of a shard holding two
// nodes of 50k uploads each over four MCs, half of them logged before
// the shard's last snapshot and half after it, as a compaction finds
// them. B/op is what one compaction allocates, snapshot-B the snapshot
// it writes.
func BenchmarkCompaction(b *testing.B) {
	const uploads = 100_000
	sh := newShard(0, &Controller{cfg: ControllerConfig{SnapshotEvery: -1}})
	l, err := walog.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	sh.wal = l
	for seq := uint64(1); seq <= uploads; seq++ {
		if seq == uploads/2 {
			if err := sh.snapshotLocked(); err != nil {
				b.Fatal(err)
			}
		}
		start := 7 * int(seq)
		if _, err := sh.commit(&uploadRec{Node: fmt.Sprintf("edge-%d", seq%2), Rec: transport.UploadRecord{
			MCName: fmt.Sprintf("cam0/mc-%d", seq%4), EventID: seq / 3, Start: start, End: start + 5, Bits: 4000 + int64(seq%97), Final: seq%3 == 0, Seq: seq,
		}}); err != nil {
			b.Fatal(err)
		}
	}
	var state []byte
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if state, err = sh.encodeState(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(state)), "snapshot-B")
}
