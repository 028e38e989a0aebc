package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// sampleHeartbeat has one entry in every map it sets, so its encoding
// is the same on every call.
func sampleHeartbeat() Heartbeat {
	var h obs.Histogram
	for _, ns := range []int64{900, 1500, 1600, 70_000} {
		h.ObserveNs(ns)
	}
	var sk obs.ScoreSketch
	for _, s := range []float64{0.1, 0.2, 0.9} {
		sk.Observe(s, s >= 0.5)
	}
	return Heartbeat{
		Streams: map[string]StreamStats{"cam0": {
			Frames: 120, Uploads: 3, UploadedFrames: 36, UploadedBits: 120_000,
			MaxUplinkDelay: 0.25, ArchiveBytes: 1 << 20, ArchiveSegments: 2,
		}},
		Extract:        h.Snapshot(),
		UploadRTT:      h.Snapshot(),
		Scores:         map[string]map[string]obs.SketchSnapshot{"cam0": {"mc0": sk.Snapshot()}},
		ScoreVersions:  map[string]map[string]uint64{"cam0": {"mc0": 2}},
		PendingUploads: 1,
	}
}

// TestHeartbeatLayout pins the heartbeat's wire bytes field by field,
// and that WriteRecord and DecodeRecord go through the layout rather
// than gob.
func TestHeartbeatLayout(t *testing.T) {
	var lat obs.HistSnapshot
	lat.Count, lat.Sum, lat.Max = 3, 10, 6
	lat.Buckets[1], lat.Buckets[2] = 1, 2
	hb := Heartbeat{
		Streams:        map[string]StreamStats{"c": {Frames: 2, MaxUplinkDelay: 0.5}},
		Extract:        lat,
		ScoreVersions:  map[string]map[string]uint64{"c": {"m": 7}},
		PendingUploads: -1,
	}
	want := []byte{
		1, 1, 'c', // Streams: one entry, "c"
		4, 0, 0, 0, 0, 0, // Frames 2 (zigzag) … DemandFetches
		0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // MaxUplinkDelay 0.5
		0, 0, 0, 0, 0, // ArchivedBits … ArchiveEvictedBytes
		3, 20, 12, 2, 2, 1, 1, 2, // Extract: Count, Sum, Max, 2 buckets: index 1 ×1, index 2 ×2
		0, 0, 0, 0, // MCPush
		0, 0, 0, 0, // QueueWait
		0, 0, 0, 0, // UploadRTT
		0,                       // Scores
		1, 1, 'c', 1, 1, 'm', 7, // ScoreVersions
		1, // PendingUploads -1 (zigzag)
	}
	got, err := hb.MarshalBinary()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("layout %x (err %v), want %x", got, err, want)
	}
	var buf bytes.Buffer
	if err := transport.WriteRecord(&buf, transport.KindHeartbeat, hb); err != nil {
		t.Fatal(err)
	}
	_, body, err := transport.ReadRecord(&buf)
	if err != nil || !bytes.Equal(body, want) {
		t.Fatalf("record body %x (err %v), want the layout %x", body, err, want)
	}
	var back Heartbeat
	if err := transport.DecodeRecord(body, &back); err != nil || !reflect.DeepEqual(back, hb) {
		t.Fatalf("decoded %+v (err %v), want %+v", back, err, hb)
	}
}

// malformedHeartbeats are the layouts the decoder must refuse, by
// name; the checked-in FuzzDecodeHeartbeat corpus holds the same cases.
func malformedHeartbeats(tb testing.TB) map[string][]byte {
	tb.Helper()
	valid, err := sampleHeartbeat().MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	// empty is Heartbeat{}: a zero stream count, four histograms of
	// four zero bytes, two zero map counts and PendingUploads.
	empty, err := Heartbeat{}.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	one, err := Heartbeat{Streams: map[string]StreamStats{"cam0": {Frames: 1}}}.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	entry := one[1 : len(one)-len(empty)+1]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return map[string][]byte{
		"empty":               {},
		"truncated":           valid[:len(valid)-1],
		"trailing-byte":       cat(valid, []byte{0}),
		"count-beyond-bytes":  cat(binary.AppendUvarint(nil, 1<<40), empty[1:]),
		"duplicate-stream":    cat([]byte{2}, entry, entry, empty[1:]),
		"bucket-index-40":     cat([]byte{0, 1, 0, 0, 1, 41, 1}, empty[5:]),
		"bucket-index-repeat": cat([]byte{0, 2, 0, 0, 2, 3, 1, 0, 1}, empty[5:]),
	}
}

// TestHeartbeatLayoutRefusesMalformed: every strict prefix of a
// heartbeat and every malformed case is an error that leaves the
// target as it was, never a half-filled heartbeat.
func TestHeartbeatLayoutRefusesMalformed(t *testing.T) {
	valid, err := sampleHeartbeat().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := malformedHeartbeats(t)
	for n := range valid {
		bad[fmt.Sprintf("prefix-%d", n)] = valid[:n]
	}
	for name, b := range bad {
		hb := sampleHeartbeat()
		if err := transport.DecodeRecord(b, &hb); err == nil {
			t.Fatalf("%s: %x decoded to %+v, want an error", name, b, hb)
		}
		if !reflect.DeepEqual(hb, sampleHeartbeat()) {
			t.Fatalf("%s: refused input changed the heartbeat to %+v", name, hb)
		}
	}
	// The last valid bucket index still decodes.
	var hb Heartbeat
	top := append([]byte{0, 1, 0, 0, 1, obs.NumBuckets, 1}, must(Heartbeat{}.MarshalBinary())[5:]...)
	if err := transport.DecodeRecord(top, &hb); err != nil || hb.Extract.Buckets[obs.NumBuckets-1] != 1 {
		t.Fatalf("top bucket: %+v, err %v", hb.Extract, err)
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// FuzzDecodeHeartbeat feeds arbitrary payloads to the heartbeat
// layout's decoder: nothing panics, a refused input leaves the
// heartbeat untouched, and an accepted one re-encodes to bytes that
// decode back to the same heartbeat.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(must(sampleHeartbeat().MarshalBinary()))
	f.Fuzz(func(t *testing.T, data []byte) {
		hb := sampleHeartbeat()
		if err := transport.DecodeRecord(data, &hb); err != nil {
			if !reflect.DeepEqual(hb, sampleHeartbeat()) {
				t.Fatalf("refused input %x still set fields: %+v", data, hb)
			}
			return
		}
		again, err := hb.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Heartbeat
		if err := transport.DecodeRecord(again, &back); err != nil || !sameHeartbeat(back, hb) {
			t.Fatalf("%x decoded to %+v, which re-encodes to %x and decodes to %+v (err %v)", data, hb, again, back, err)
		}
	})
}

// sameHeartbeat is reflect.DeepEqual with MaxUplinkDelay compared bit
// for bit, so that a NaN read off the wire equals itself.
func sameHeartbeat(a, b Heartbeat) bool {
	if len(a.Streams) != len(b.Streams) {
		return false
	}
	for name, sa := range a.Streams {
		sb, ok := b.Streams[name]
		if !ok || math.Float64bits(sa.MaxUplinkDelay) != math.Float64bits(sb.MaxUplinkDelay) {
			return false
		}
	}
	a.Streams, b.Streams = withoutDelays(a.Streams), withoutDelays(b.Streams)
	return reflect.DeepEqual(a, b)
}

func withoutDelays(m map[string]StreamStats) map[string]StreamStats {
	if m == nil {
		return nil
	}
	out := make(map[string]StreamStats, len(m))
	for name, st := range m {
		st.MaxUplinkDelay = 0
		out[name] = st
	}
	return out
}

// randomHeartbeat draws a heartbeat whose maps are each nil, empty or
// populated, whose inner maps are too, and whose histograms hold a few
// sparse buckets, with values across each field's range.
func randomHeartbeat(rng *rand.Rand) Heartbeat {
	i64 := func() int64 { return rng.Int63() - rng.Int63() }
	name := func() string { return fmt.Sprintf("s%d", rng.Intn(50)) }
	var hb Heartbeat
	if k := rng.Intn(4) - 1; k >= 0 {
		hb.Streams = make(map[string]StreamStats)
		for ; k > 0; k-- {
			hb.Streams[name()] = StreamStats{
				Frames: int(i64()), Uploads: rng.Int(), UploadedFrames: rng.Intn(100),
				UploadedBits: i64(), DemandFetchBits: i64(), DemandFetches: rng.Intn(3),
				MaxUplinkDelay: []float64{0, rng.NormFloat64(), math.Inf(1), math.Inf(-1)}[rng.Intn(4)],
				ArchivedBits:   i64(), ArchiveBytes: i64(), ArchiveSegments: rng.Intn(9),
				ArchiveEvictedSegments: rng.Intn(9), ArchiveEvictedBytes: i64(),
			}
		}
	}
	for _, h := range []*obs.HistSnapshot{&hb.Extract, &hb.MCPush, &hb.QueueWait, &hb.UploadRTT} {
		if rng.Intn(3) == 0 {
			continue
		}
		h.Count, h.Sum, h.Max = rng.Uint64(), i64(), i64()
		for k := rng.Intn(6); k > 0; k-- {
			h.Buckets[rng.Intn(obs.NumBuckets)] = rng.Uint64() >> uint(rng.Intn(64))
		}
	}
	sketch := func() obs.SketchSnapshot {
		s := obs.SketchSnapshot{Count: rng.Uint64(), Passes: uint64(rng.Intn(1000)), Sum: i64(), SumSq: i64()}
		for b := range s.Bins {
			s.Bins[b] = uint64(rng.Intn(500))
		}
		return s
	}
	version := func() uint64 { return rng.Uint64() >> uint(rng.Intn(64)) }
	hb.Scores = randomNested(rng, name, sketch)
	hb.ScoreVersions = randomNested(rng, name, version)
	hb.PendingUploads = int(i64())
	return hb
}

// randomNested returns nil, an empty map, or up to three streams whose
// inner maps are each nil, empty or populated.
func randomNested[V any](rng *rand.Rand, name func() string, value func() V) map[string]map[string]V {
	k := rng.Intn(5) - 1
	if k < 0 {
		return nil
	}
	m := make(map[string]map[string]V)
	for ; k > 0; k-- {
		var inner map[string]V
		if j := rng.Intn(4) - 1; j >= 0 {
			inner = make(map[string]V)
			for ; j > 0; j-- {
				inner[name()] = value()
			}
		}
		m[name()] = inner
	}
	return m
}

// decodedForm is what a heartbeat decodes to: every map of no entries,
// inner maps included, is nil.
func decodedForm(hb Heartbeat) Heartbeat {
	if len(hb.Streams) == 0 {
		hb.Streams = nil
	}
	hb.Scores = nilEmpty(hb.Scores)
	hb.ScoreVersions = nilEmpty(hb.ScoreVersions)
	return hb
}

func nilEmpty[V any](m map[string]map[string]V) map[string]map[string]V {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]map[string]V, len(m))
	for k, inner := range m {
		if len(inner) == 0 {
			inner = nil
		}
		out[k] = inner
	}
	return out
}

// TestHeartbeatLayoutRoundTrip is the layout's property test: random
// heartbeats — nil and empty maps at both levels, sparse and
// extreme buckets — decode to exactly what was encoded.
func TestHeartbeatLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed))
	for i := 0; i < 2000; i++ {
		hb := randomHeartbeat(rng)
		b, err := hb.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Heartbeat
		if err := transport.DecodeRecord(b, &back); err != nil {
			t.Fatalf("heartbeat %d: %v\n%+v", i, err, hb)
		}
		if want := decodedForm(hb); !reflect.DeepEqual(back, want) {
			t.Fatalf("heartbeat %d round trip:\n got %+v\nwant %+v", i, back, want)
		}
	}
}

// TestHeartbeatHandlingObservesWithoutAllocating pins the shard's
// heartbeat timing at zero cost in allocations: handling a heartbeat
// with the gap and handling histograms allocates exactly what it does
// without them.
func TestHeartbeatHandlingObservesWithoutAllocating(t *testing.T) {
	body := must(sampleHeartbeat().MarshalBinary())
	bare := newSession(1, Hello{Node: "bare"}, nil, 0, 0, nil, nil, nil)
	timed := newSession(2, Hello{Node: "timed"}, nil, 0, 0, &obs.Histogram{}, &obs.Histogram{}, nil)
	allocs := func(s *Session) float64 {
		return testing.AllocsPerRun(200, func() {
			if err := s.handleHeartbeat(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	if without, with := allocs(bare), allocs(timed); with != without {
		t.Fatalf("heartbeat handling allocates %v objects with timing, %v without", with, without)
	}
	if timed.hbHandle.Count() == 0 || timed.hbGap.Count() == 0 {
		t.Fatalf("timing observed nothing: handle %d, gap %d", timed.hbHandle.Count(), timed.hbGap.Count())
	}
}

// TestFleetLatencyQuantilesExact is the merged-quantile acceptance
// check: per-node histograms travel in heartbeats to a two-shard
// controller, become NodeLoads, and roll up through SummarizeFleet and
// MergeFleet — and the fleet p50 and p99 equal those of one histogram
// fed every observation, under the controller's shard grouping and
// under a different one.
func TestFleetLatencyQuantilesExact(t *testing.T) {
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second, Shards: 2})
	ctrl.Serve(ln)
	defer ctrl.Close()

	rng := rand.New(rand.NewSource(chaosSeed))
	var all obs.Histogram
	for i := 0; i < 6; i++ {
		// Node speeds differ by powers of four, so no node's quantiles
		// are the fleet's.
		var h obs.Histogram
		scale := int64(1) << uint(10+2*i)
		for k := 50 + rng.Intn(200); k > 0; k-- {
			ns := scale + rng.Int63n(scale)
			h.ObserveNs(ns)
			all.ObserveNs(ns)
		}
		edge := dialScripted(t, n, Hello{Node: fmt.Sprintf("lat-%d", i)})
		edge.send(transport.KindHeartbeat, Heartbeat{Extract: h.Snapshot()})
	}
	var shards [][]metrics.NodeLoad
	waitFor(t, "every node's heartbeat", func() bool {
		shards = ctrl.ShardLoads()
		var seen uint64
		for _, loads := range shards {
			for _, l := range loads {
				seen += l.ExtractLat.Count
			}
		}
		return seen == all.Count()
	})
	if len(shards) != 2 || len(shards[0]) == 0 || len(shards[1]) == 0 {
		t.Fatalf("nodes not spread over both shards: %d and %d loads", len(shards[0]), len(shards[1]))
	}
	var flat []metrics.NodeLoad
	for _, loads := range shards {
		flat = append(flat, loads...)
	}
	regrouped := make([][]metrics.NodeLoad, 3)
	for i, l := range flat {
		regrouped[i%3] = append(regrouped[i%3], l)
	}

	want := all.Snapshot()
	for name, groups := range map[string][][]metrics.NodeLoad{"by shard": shards, "three groups": regrouped} {
		var parts []metrics.FleetSummary
		for _, g := range groups {
			parts = append(parts, metrics.SummarizeFleet(g))
		}
		got := metrics.MergeFleet(parts).ExtractLat
		for _, q := range []float64{0.50, 0.99} {
			if g, w := got.Quantile(q), want.Quantile(q); g != w {
				t.Errorf("%s: fleet p%.0f %d, one histogram of every observation says %d", name, q*100, g, w)
			}
		}
		if got != want {
			t.Errorf("%s: merged histogram %+v, want %+v", name, got, want)
		}
	}
}
