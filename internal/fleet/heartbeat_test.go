package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
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

// otherHeartbeat shares no name with sampleHeartbeat, sets every
// histogram and more buckets, and nests more entries: a target holding
// it has something in every place a later decode must clear.
func otherHeartbeat() Heartbeat {
	var h obs.Histogram
	for ns := int64(1); ns < 1<<30; ns *= 3 {
		h.ObserveNs(ns)
	}
	sketch := func(seed float64) obs.SketchSnapshot {
		var sk obs.ScoreSketch
		for i := 0; i < 40; i++ {
			sk.Observe(float64(i)/40*seed, i%3 == 0)
		}
		return sk.Snapshot()
	}
	return Heartbeat{
		Streams: map[string]StreamStats{
			"door": {Frames: 9, MaxUplinkDelay: 1.5},
			"yard": {Frames: 7, ArchiveEvictedBytes: 3},
		},
		Extract: h.Snapshot(), MCPush: h.Snapshot(), QueueWait: h.Snapshot(), UploadRTT: h.Snapshot(),
		Scores: map[string]map[string]obs.SketchSnapshot{
			"door": {"person": sketch(1), "car": sketch(0.5)},
			"yard": {"dog": sketch(0.9)},
			"roof": nil,
		},
		ScoreVersions:  map[string]map[string]uint64{"door": {"person": 1, "car": 9}, "yard": {"dog": 4}},
		PendingUploads: 12,
	}
}

// decodeInPlace decodes data the way a session does: into a record
// that already holds each of priors in turn, through one decoder. It
// reports the first result that differs from want and wantErr, a fresh
// UnmarshalBinary's.
func decodeInPlace(data []byte, want Heartbeat, wantErr error, priors ...Heartbeat) error {
	var dec hbDecoder
	target := new(hbRecord)
	for _, prior := range priors {
		if err := target.decode(must(prior.AppendBinary(nil)), &dec); err != nil {
			return fmt.Errorf("prior %+v: %v", prior, err)
		}
		err := target.decode(data, &dec)
		switch {
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
			return fmt.Errorf("over %+v: error %v, a fresh decode says %v", prior, err, wantErr)
		case wantErr == nil && err != nil:
			return fmt.Errorf("over %+v: error %v, a fresh decode accepts it", prior, err)
		case wantErr == nil && !sameHeartbeat(target.heartbeat(), want):
			return fmt.Errorf("over %+v: decoded %+v, a fresh decode gives %+v", prior, target.heartbeat(), want)
		}
	}
	return nil
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
	got, err := hb.AppendBinary(nil)
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
	valid, err := sampleHeartbeat().AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	// empty is Heartbeat{}: a zero stream count, four histograms of
	// four zero bytes, two zero map counts and PendingUploads.
	empty, err := Heartbeat{}.AppendBinary(nil)
	if err != nil {
		tb.Fatal(err)
	}
	one, err := Heartbeat{Streams: map[string]StreamStats{"cam0": {Frames: 1}}}.AppendBinary(nil)
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
	valid, err := sampleHeartbeat().AppendBinary(nil)
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
		if err := decodeInPlace(b, Heartbeat{}, hb.UnmarshalBinary(b), sampleHeartbeat(), otherHeartbeat()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// The last valid bucket index still decodes.
	var hb Heartbeat
	top := append([]byte{0, 1, 0, 0, 1, obs.NumBuckets, 1}, must(Heartbeat{}.AppendBinary(nil))[5:]...)
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
// decode back to the same heartbeat. A session's in-place decode,
// into a target holding sampleHeartbeat and then otherHeartbeat, gives
// the same heartbeat or the same refusal.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(must(sampleHeartbeat().AppendBinary(nil)))
	f.Add(must(otherHeartbeat().AppendBinary(nil)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var fresh Heartbeat
		freshErr := fresh.UnmarshalBinary(data)
		if err := decodeInPlace(data, fresh, freshErr, sampleHeartbeat(), otherHeartbeat()); err != nil {
			t.Fatalf("%x: %v", data, err)
		}
		hb := sampleHeartbeat()
		if err := transport.DecodeRecord(data, &hb); err != nil {
			if !reflect.DeepEqual(hb, sampleHeartbeat()) {
				t.Fatalf("refused input %x still set fields: %+v", data, hb)
			}
			return
		}
		again, err := hb.AppendBinary(nil)
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
// extreme buckets — decode to exactly what was encoded, and so does
// each decoded in place over the one before it, as a session decodes.
func TestHeartbeatLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed))
	var dec hbDecoder
	target := new(hbRecord)
	for i := 0; i < 2000; i++ {
		hb := randomHeartbeat(rng)
		b, err := hb.AppendBinary(nil)
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
		if err := target.decode(b, &dec); err != nil || !reflect.DeepEqual(target.heartbeat(), back) {
			t.Fatalf("heartbeat %d decoded in place over heartbeat %d: %+v (err %v), want %+v", i, i-1, target.heartbeat(), err, back)
		}
	}
}

// TestHeartbeatDecodeKeysPerLevel: a name may key a stream and an MC
// at once, and decoding in place keeps the two apart, both in what it
// keeps and in what it refuses as a duplicate.
func TestHeartbeatDecodeKeysPerLevel(t *testing.T) {
	var sk obs.SketchSnapshot
	sk.Count, sk.Bins[3] = 1, 1
	shared := Heartbeat{
		Streams:       map[string]StreamStats{"x": {Frames: 1}},
		Scores:        map[string]map[string]obs.SketchSnapshot{"x": {"x": sk, "y": sk}, "y": {"x": sk}},
		ScoreVersions: map[string]map[string]uint64{"y": {"y": 3}},
	}
	b := must(shared.AppendBinary(nil))
	if err := decodeInPlace(b, shared, nil, otherHeartbeat(), shared, sampleHeartbeat()); err != nil {
		t.Fatal(err)
	}
	// Stream "x" twice, the second holding MC "x", which is read
	// between the two claims of stream "x".
	empty := must(Heartbeat{}.AppendBinary(nil))
	sketch := appendSketch(nil, &sk)
	dup := bytes.Join([][]byte{
		empty[:len(empty)-3],
		{2, 1, 'x', 1, 1, 'y'}, sketch,
		{1, 'x', 1, 1, 'x'}, sketch,
		empty[len(empty)-2:],
	}, nil)
	var fresh Heartbeat
	err := fresh.UnmarshalBinary(dup)
	if err == nil || !strings.Contains(err.Error(), `duplicate key "x"`) {
		t.Fatalf("a repeated stream decoded: %+v (err %v)", fresh, err)
	}
	if err := decodeInPlace(dup, Heartbeat{}, err, shared, sampleHeartbeat()); err != nil {
		t.Fatal(err)
	}
}

// gridHeartbeats encodes n cumulative heartbeats of a node with 8
// streams of 8 MCs each, every one adding perMC scores to each MC's
// sketch: the shape of a fleet node the drift detector scores.
func gridHeartbeats(n, perMC int) [][]byte {
	rng := rand.New(rand.NewSource(chaosSeed))
	hb := Heartbeat{
		Streams:       make(map[string]StreamStats),
		Scores:        make(map[string]map[string]obs.SketchSnapshot),
		ScoreVersions: make(map[string]map[string]uint64),
	}
	var lat obs.Histogram
	out := make([][]byte, n)
	for i := range out {
		for s := 0; s < 8; s++ {
			stream := fmt.Sprintf("cam%d", s)
			st := hb.Streams[stream]
			st.Frames += perMC
			hb.Streams[stream] = st
			if hb.Scores[stream] == nil {
				hb.Scores[stream] = make(map[string]obs.SketchSnapshot)
				hb.ScoreVersions[stream] = make(map[string]uint64)
			}
			for m := 0; m < 8; m++ {
				mc := fmt.Sprintf("mc%d", m)
				var sk obs.ScoreSketch
				for k := 0; k < perMC; k++ {
					score := rng.Float64() * rng.Float64()
					sk.Observe(score, score >= 0.5)
				}
				cum := hb.Scores[stream][mc]
				cum.Merge(sk.Snapshot())
				hb.Scores[stream][mc] = cum
				hb.ScoreVersions[stream][mc] = 1
			}
		}
		lat.ObserveNs(int64(1000 + rng.Intn(100_000)))
		hb.Extract = lat.Snapshot()
		out[i] = must(hb.AppendBinary(nil))
	}
	return out
}

// TestHeartbeatHandlingObservesWithoutAllocating pins heartbeat
// handling at zero allocations once warm: the decode into the spare
// heartbeat reuses its maps and interned names, the gap and handling
// histograms cost nothing, and neither does the shard's drift hook
// scoring every MC of an 8-stream × 8-MC heartbeat against its frozen
// baseline.
func TestHeartbeatHandlingObservesWithoutAllocating(t *testing.T) {
	ctrl := NewController(ControllerConfig{
		Timeout: time.Second,
		// No threshold: a window's scores never flip a pair to drifted,
		// so no event is logged, and every window is still scored.
		Drift: DriftConfig{PSI: driftOff, KS: driftOff},
	})
	defer ctrl.Close()
	sh := ctrl.shards[0]
	sh.mu.Lock()
	sh.node("hooked")
	sh.mu.Unlock()

	sample := must(sampleHeartbeat().AppendBinary(nil))
	// Each grid heartbeat adds a window of MinCount scores per MC, so
	// the first freezes every baseline and each later one is scored.
	grid := gridHeartbeats(240, defaultDriftMinCount)
	for _, tc := range []struct {
		name   string
		s      *Session
		bodies [][]byte
	}{
		{"bare", newSession(1, Hello{Node: "bare"}, nil, 0, 0, nil, nil, nil), [][]byte{sample}},
		{"timed", newSession(2, Hello{Node: "timed"}, nil, 0, 0, &obs.Histogram{}, &obs.Histogram{}, nil), [][]byte{sample}},
		{"drift hook", newSession(3, Hello{Node: "hooked"}, nil, 0, 0, sh.hbGap, sh.hbHandle, sh.noteHeartbeat), grid},
	} {
		next := 0
		handle := func() {
			if err := tc.s.handleHeartbeat(tc.bodies[next%len(tc.bodies)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for i := 0; i < 3; i++ { // fill the current and the spare heartbeat
			handle()
		}
		if allocs := testing.AllocsPerRun(200, handle); allocs != 0 {
			t.Errorf("%s: handling a heartbeat allocates %v objects, want 0", tc.name, allocs)
		}
	}
	for _, h := range []*obs.Histogram{sh.hbHandle, sh.hbGap} {
		if h.Count() == 0 {
			t.Fatal("the shard's heartbeat timing observed nothing")
		}
	}
	reports := driftReports(ctrl)
	if len(reports) != 64 {
		t.Fatalf("%d drift pairs tracked, want 64", len(reports))
	}
	for _, r := range reports {
		if r.Baseline == 0 || r.Windows < 200 {
			t.Fatalf("%s/%s: baseline %d, %d windows scored; want a frozen baseline and every heartbeat scored", r.Stream, r.MC, r.Baseline, r.Windows)
		}
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

// TestHeartbeatReadWhileDecodedInPlace: a session decodes heartbeats
// into its reused records — the Streams map and the score table — and
// the shard's drift hook scores them, while another goroutine reads
// them through ShardLoads and ListNodes and writes to every map
// ListNodes returns. The fleet flake guard runs it under -race: readers
// get copies or read under the session's lock, so nothing here may
// race.
func TestHeartbeatReadWhileDecodedInPlace(t *testing.T) {
	const beats = 300
	n := simnet.New(chaosSeed)
	ln, err := n.Listen("dc")
	if err != nil {
		t.Fatal(err)
	}
	ctrl := NewController(ControllerConfig{Timeout: 5 * time.Second, Shards: 2})
	ctrl.Serve(ln)
	defer ctrl.Close()
	edge := dialScripted(t, n, Hello{Node: "reused"})

	stop, done := make(chan struct{}), make(chan struct{})
	var reads atomic.Int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, loads := range ctrl.ShardLoads() {
				for _, l := range loads {
					_ = l.Scores.Count + l.ExtractLat.Count + l.MCVersion
				}
			}
			for _, info := range ctrl.ListNodes() {
				hb := info.Heartbeat
				for name, st := range hb.Streams {
					st.Frames = -1
					hb.Streams[name] = st
				}
				if hb.Streams != nil {
					hb.Streams["added"] = StreamStats{}
				}
				for stream, inner := range hb.Scores {
					for mc := range inner {
						delete(inner, mc)
						inner["added-"+mc] = obs.SketchSnapshot{Count: 1}
					}
					delete(hb.Scores, stream)
				}
				for _, inner := range hb.ScoreVersions {
					clear(inner)
				}
			}
			reads.Add(1)
		}
	}()
	// Send at least beats heartbeats, and go on until the reader has
	// run: on one loaded CPU it may not be scheduled before the first
	// beats have all been decoded.
	// The grid heartbeat holds eight MCs on cam0, the stream the edge
	// announces, so ShardLoads reads them out of the score table.
	var grid Heartbeat
	if err := grid.UnmarshalBinary(gridHeartbeats(1, defaultDriftMinCount)[0]); err != nil {
		t.Fatal(err)
	}
	shapes := []Heartbeat{sampleHeartbeat(), otherHeartbeat(), {}, grid}
	sent, deadline := 0, time.Now().Add(10*time.Second)
	for sent < beats || reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the reader goroutine never read the heartbeats")
		}
		sent++
		hb := shapes[sent%len(shapes)]
		hb.PendingUploads = sent
		edge.send(transport.KindHeartbeat, hb)
	}
	waitFor(t, "the last heartbeat", func() bool {
		nodes := ctrl.ListNodes()
		return len(nodes) == 1 && nodes[0].Heartbeat.PendingUploads == sent
	})
	close(stop)
	<-done
	// The last heartbeat decoded as sent, untouched by the writes to
	// the copies.
	want := shapes[sent%len(shapes)]
	want.PendingUploads = sent
	if got := ctrl.ListNodes()[0].Heartbeat; !sameHeartbeat(got, decodedForm(want)) {
		t.Fatalf("latest heartbeat %+v, sent %+v", got, want)
	}
	var wantScores, gotScores obs.SketchSnapshot
	for _, sk := range want.Scores["cam0"] {
		wantScores.Merge(sk)
	}
	for _, loads := range ctrl.ShardLoads() {
		for _, l := range loads {
			gotScores.Merge(l.Scores)
		}
	}
	if gotScores != wantScores {
		t.Fatalf("loads carry cam0 scores %+v, the latest heartbeat %+v", gotScores, wantScores)
	}
}
