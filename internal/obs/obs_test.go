package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramUnderflowOverflow(t *testing.T) {
	var h Histogram
	h.ObserveNs(0)
	h.ObserveNs(-37)
	h.ObserveNs(1)
	s := h.Snapshot()
	if s.Buckets[0] != 3 {
		t.Fatalf("underflow bucket = %d, want 3", s.Buckets[0])
	}

	huge := int64(1) << (NumBuckets + 5) // far beyond the top bucket's lower bound
	h.ObserveNs(huge)
	h.ObserveNs(huge * 2)
	s = h.Snapshot()
	if s.Buckets[NumBuckets-1] != 2 {
		t.Fatalf("overflow bucket = %d, want 2", s.Buckets[NumBuckets-1])
	}
	if s.Max != huge*2 {
		t.Fatalf("max = %d, want %d", s.Max, huge*2)
	}
	// The overflow bucket's quantiles are capped at the observed max:
	// never a value beyond anything actually seen.
	if q := s.Quantile(1.0); q > huge*2 {
		t.Fatalf("p100 = %d beyond max %d", q, huge*2)
	}
	if q := h.Quantile(0.99); q > huge*2 || q < huge {
		t.Fatalf("p99 = %d outside overflow range [%d, %d]", q, huge, huge*2)
	}
}

func TestHistogramQuantileSparse(t *testing.T) {
	// Two sparse buckets: 90 samples at ~1µs, 10 at ~1ms. p50 must
	// interpolate inside the low bucket, p95+ inside the high one.
	var h Histogram
	for i := 0; i < 90; i++ {
		h.ObserveNs(1024) // bucket 10: [1024, 2048)
	}
	for i := 0; i < 10; i++ {
		h.ObserveNs(1 << 20) // bucket 20: [1048576, 2097152)
	}
	p50 := h.Quantile(0.50)
	if p50 < 1024 || p50 >= 2048 {
		t.Fatalf("p50 = %d, want within [1024, 2048)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 1<<20 || p99 > h.Snapshot().Max {
		t.Fatalf("p99 = %d, want within [%d, max]", p99, 1<<20)
	}
	// Interpolation is monotone in q.
	if h.Quantile(0.95) > p99 {
		t.Fatalf("p95 %d > p99 %d", h.Quantile(0.95), p99)
	}
	// All mass in one bucket: quantiles stay inside it, and are capped
	// by the real max.
	var one Histogram
	one.ObserveNs(5000)
	one.ObserveNs(5000)
	if q := one.Quantile(0.99); q < 4096 || q > 5000 {
		t.Fatalf("single-bucket p99 = %d, want within [4096, 5000]", q)
	}
	var empty Histogram
	if q := empty.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram quantile = %d, want 0", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	const writers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.ObserveNs(rng.Int63n(1 << 30))
				if i%512 == 0 {
					// Read while others write: snapshots must be safe.
					_ = h.Snapshot()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != writers*per {
		t.Fatalf("count = %d, want %d", s.Count, writers*per)
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != writers*per {
		t.Fatalf("bucket total = %d, want %d", total, writers*per)
	}
}

// TestHistSnapshotMergeExact pins that merging snapshots is the
// snapshot of the combined observations: counts, sums and buckets add,
// the max takes the larger, so merged quantiles are the quantiles of
// everything observed, and the empty snapshot is the identity.
func TestHistSnapshotMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var fast, slow, all Histogram
	for i := 0; i < 1000; i++ {
		ns := 500 + rng.Int63n(5000)
		fast.ObserveNs(ns)
		all.ObserveNs(ns)
	}
	for i := 0; i < 40; i++ {
		ns := 1<<22 + rng.Int63n(1<<24)
		slow.ObserveNs(ns)
		all.ObserveNs(ns)
	}
	merged := fast.Snapshot()
	merged.Merge(slow.Snapshot())
	merged.Merge(HistSnapshot{})
	if want := all.Snapshot(); merged != want {
		t.Fatalf("merge = %+v, want %+v", merged, want)
	}
	// 40 of the 1040 observations are slow, so the combined p99 falls
	// among them although the fast node, with most of the traffic,
	// never saw one.
	if p99 := merged.Quantile(0.99); p99 < 1<<22 {
		t.Fatalf("merged p99 %d ignores the slow node", p99)
	}
}

func TestRegistrySnapshotAndPrometheus(t *testing.T) {
	r := newRegistry()
	c := r.counter("ff_frames_total")
	c.Add(41)
	c.Inc()
	if again := r.counter("ff_frames_total"); again != c {
		t.Fatal("Counter is not get-or-create")
	}
	r.Gauge("ff_queue_depth").Set(7)
	h := r.histogram("ff_extract_ns")
	h.ObserveNs(1000)
	h.ObserveNs(3000)

	snap := r.Snapshot()
	byName := map[string]float64{}
	for _, m := range snap {
		byName[m.Name] = m.Value
	}
	if byName["ff_frames_total"] != 42 {
		t.Fatalf("counter snapshot = %v", byName["ff_frames_total"])
	}
	if byName["ff_extract_ns/count"] != 2 {
		t.Fatalf("histogram count snapshot = %v", byName["ff_extract_ns/count"])
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name > snap[i].Name {
			t.Fatalf("snapshot not sorted: %q > %q", snap[i-1].Name, snap[i].Name)
		}
	}

	var buf bytes.Buffer
	if err := r.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE ff_frames_total counter\nff_frames_total 42\n",
		"# TYPE ff_queue_depth gauge\nff_queue_depth 7\n",
		"# TYPE ff_extract_ns summary\n",
		"ff_extract_ns{quantile=\"0.95\"}",
		"ff_extract_ns_count 2",
		"ff_extract_ns_sum 4000",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(8)
	sid := tr.StreamID("cam0")
	epoch := time.Now()
	for i := 0; i < 20; i++ {
		tr.Record(StageExtract, sid, int64(i), epoch.Add(time.Duration(i)*time.Millisecond), time.Millisecond)
	}
	if got := tr.Recorded(); got != 20 {
		t.Fatalf("recorded = %d, want 20", got)
	}
	spans := tr.Snapshot()
	if len(spans) != 8 {
		t.Fatalf("snapshot len = %d, want ring capacity 8", len(spans))
	}
	for i, sp := range spans {
		if want := int64(12 + i); sp.Frame != want {
			t.Fatalf("span %d frame = %d, want %d (oldest-first last 8)", i, sp.Frame, want)
		}
	}
}

func TestTracerConcurrentDumpWhileRecording(t *testing.T) {
	tr := NewTracer(64)
	sid := tr.StreamID("cam0")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		epoch := time.Now()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tr.Record(Stage(i%int(numStages)), sid, int64(i), epoch, time.Microsecond)
		}
	}()
	for i := 0; i < 50; i++ {
		_ = tr.Snapshot()
		var buf bytes.Buffer
		if err := tr.writeTraceJSON(&buf); err != nil {
			t.Errorf("dump %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTraceJSONFormat(t *testing.T) {
	tr := NewTracer(16)
	sid := tr.StreamID("cam0")
	tr.Record(StageExtract, sid, 3, tr.epoch.Add(10*time.Microsecond), 5*time.Microsecond)
	var buf bytes.Buffer
	if err := tr.writeTraceJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	var sawThread, sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "stream:cam0" {
			sawThread = true
		}
		if ev.Ph == "X" && ev.Name == "extract" {
			sawSpan = true
			if ev.Ts != 10 || ev.Dur != 5 {
				t.Fatalf("span ts/dur = %v/%v µs, want 10/5", ev.Ts, ev.Dur)
			}
			if ev.Args["frame"] != float64(3) {
				t.Fatalf("span frame = %v, want 3", ev.Args["frame"])
			}
		}
	}
	if !sawThread || !sawSpan {
		t.Fatalf("trace missing thread metadata (%v) or span (%v)", sawThread, sawSpan)
	}
}

func TestSlowFrameTrigger(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(32)
	tr.setSlowFrame(10*time.Millisecond, log)
	sid := tr.StreamID("cam0")
	epoch := time.Now()
	tr.Record(StageDecode, sid, 7, epoch, time.Millisecond)
	tr.Record(StageExtract, sid, 7, epoch.Add(time.Millisecond), 14*time.Millisecond)
	tr.RecordFrame(sid, 6, epoch, 2*time.Millisecond) // fast: no log
	if buf.Len() != 0 {
		t.Fatalf("fast frame logged: %s", buf.String())
	}
	tr.RecordFrame(sid, 7, epoch, 15*time.Millisecond)
	out := buf.String()
	for _, want := range []string{"slow frame", "stream=cam0", "frame=7", "decode=", "extract="} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-frame log missing %q:\n%s", want, out)
		}
	}
}

func TestDebugServer(t *testing.T) {
	o := NewObserver(Options{Log: slog.New(slog.NewTextHandler(io.Discard, nil))})
	o.Frames.Inc()
	o.Extract.Observe(time.Millisecond)
	o.Trace.Record(StageExtract, o.Trace.StreamID("cam0"), 0, time.Now(), time.Millisecond)

	srv, err := ServeDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "ff_frames_total 1") ||
		!strings.Contains(body, "ff_extract_ns_count 1") {
		t.Fatalf("/metrics missing expected series:\n%s", body)
	}
	if body := get("/debug/trace.json"); !strings.Contains(body, `"extract"`) {
		t.Fatalf("/debug/trace.json missing span:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

func TestObserveAllocFree(t *testing.T) {
	var h Histogram
	if allocs := testing.AllocsPerRun(1000, func() { h.ObserveNs(12345) }); allocs != 0 {
		t.Fatalf("Histogram.ObserveNs allocates %v/op, want 0", allocs)
	}
	tr := NewTracer(128)
	sid := tr.StreamID("cam0")
	start := time.Now()
	if allocs := testing.AllocsPerRun(1000, func() {
		tr.Record(StageExtract, sid, 1, start, time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Tracer.Record allocates %v/op, want 0", allocs)
	}
	var c Counter
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %v/op, want 0", allocs)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveNs(int64(i)&0xfffff + 1)
	}
}

func BenchmarkTracerRecord(b *testing.B) {
	tr := NewTracer(4096)
	sid := tr.StreamID("cam0")
	start := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(StageMCPush, sid, int64(i), start, time.Microsecond)
	}
}

func ExampleRegistry() {
	r := newRegistry()
	r.counter("ff_frames_total").Add(3)
	var buf bytes.Buffer
	r.writePrometheus(&buf)
	fmt.Print(buf.String())
	// Output:
	// # TYPE ff_frames_total counter
	// ff_frames_total 3
}
