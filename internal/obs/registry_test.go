package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestWritePrometheusHelpGolden pins the full exposition output for a
// described registry: # HELP ahead of # TYPE, escaping, and stable
// ordering — the contract metric linters check.
func TestWritePrometheusHelpGolden(t *testing.T) {
	r := newRegistry()
	r.Describe("ff_frames_total", "Frames processed across all streams.")
	r.counter("ff_frames_total").Add(42)
	r.Describe("ff_queue_depth", `Depth with a \ backslash
and a newline.`)
	r.Gauge("ff_queue_depth").Set(7)
	r.Describe("ff_extract_ns", "Extraction latency in nanoseconds.")
	h := r.histogram("ff_extract_ns")
	h.ObserveNs(1000)
	h.ObserveNs(1000)
	// Undescribed instruments get no HELP line, only TYPE.
	r.counter("ff_undescribed_total").Inc()

	var buf bytes.Buffer
	if err := r.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	p50 := h.Quantile(0.50)
	p95 := h.Quantile(0.95)
	p99 := h.Quantile(0.99)
	want := "# HELP ff_frames_total Frames processed across all streams.\n" +
		"# TYPE ff_frames_total counter\n" +
		"ff_frames_total 42\n" +
		"# TYPE ff_undescribed_total counter\n" +
		"ff_undescribed_total 1\n" +
		`# HELP ff_queue_depth Depth with a \\ backslash\nand a newline.` + "\n" +
		"# TYPE ff_queue_depth gauge\n" +
		"ff_queue_depth 7\n" +
		"# HELP ff_extract_ns Extraction latency in nanoseconds.\n" +
		"# TYPE ff_extract_ns summary\n" +
		fmt.Sprintf("ff_extract_ns{quantile=\"0.5\"} %d\n", p50) +
		fmt.Sprintf("ff_extract_ns{quantile=\"0.95\"} %d\n", p95) +
		fmt.Sprintf("ff_extract_ns{quantile=\"0.99\"} %d\n", p99) +
		"ff_extract_ns_sum 2000\n" +
		"ff_extract_ns_count 2\n"
	if got := buf.String(); got != want {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusSketch(t *testing.T) {
	r := newRegistry()
	r.Describe("ff_mc_scores", "MC score distribution.")
	sk := r.sketch("ff_mc_scores")
	sk.Observe(0.10, false) // bin 3  (0.09375–0.125)
	sk.Observe(0.90, true)  // bin 28 (0.875–0.90625)
	sk.Observe(0.95, true)  // bin 30 (0.9375–0.96875)

	var buf bytes.Buffer
	if err := r.writePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP ff_mc_scores MC score distribution.\n# TYPE ff_mc_scores histogram\n",
		"ff_mc_scores_bucket{le=\"0.125\"} 1\n",   // cumulative through bin 3
		"ff_mc_scores_bucket{le=\"0.875\"} 1\n",   // nothing between
		"ff_mc_scores_bucket{le=\"0.90625\"} 2\n", // + bin 28
		"ff_mc_scores_bucket{le=\"1\"} 3\n",       // top edge sees all
		"ff_mc_scores_bucket{le=\"+Inf\"} 3\n",
		"ff_mc_scores_count 3\n",
		"ff_mc_scores_passes 2\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("sketch exposition missing %q:\n%s", want, text)
		}
	}
	// Registry snapshot carries the semantic views.
	byName := map[string]float64{}
	for _, m := range r.Snapshot() {
		byName[m.Name] = m.Value
	}
	if byName["ff_mc_scores/count"] != 3 {
		t.Fatalf("sketch snapshot count = %v", byName["ff_mc_scores/count"])
	}
	if got := byName["ff_mc_scores/pass_rate"]; got < 0.66 || got > 0.67 {
		t.Fatalf("sketch snapshot pass_rate = %v, want 2/3", got)
	}
}

// TestShardGaugeNames pins the shard-gauge naming scheme: the same
// (shard, name) pair always resolves to the same instrument, the
// composite name aliases a directly-registered gauge of that name
// (one instrument, not two drifting copies), and distinct shards can
// never collide because the shard index is a complete %d prefix.
func TestShardGaugeNames(t *testing.T) {
	r := newRegistry()
	a := r.ShardGauge(3, "nodes")
	if again := r.ShardGauge(3, "nodes"); again != a {
		t.Fatal("ShardGauge is not get-or-create")
	}
	if alias := r.Gauge("ff_fleet_shard_3_nodes"); alias != a {
		t.Fatal("ShardGauge and the literal composite name must alias one gauge")
	}
	// Adjacent shard/name splits that concatenate similarly still
	// produce distinct names: the underscore separators are fixed.
	b := r.ShardGauge(1, "2_nodes")
	c := r.ShardGauge(12, "nodes")
	if b == c {
		t.Fatal("ShardGauge(1, \"2_nodes\") collided with ShardGauge(12, \"nodes\")")
	}
	b.Set(5)
	c.Set(9)
	byName := map[string]float64{}
	for _, m := range r.Snapshot() {
		byName[m.Name] = m.Value
	}
	if byName["ff_fleet_shard_1_2_nodes"] != 5 || byName["ff_fleet_shard_12_nodes"] != 9 {
		t.Fatalf("shard gauge snapshot = %v", byName)
	}
}

// TestSnapshotOrderingUnderConcurrentCreation registers instruments
// from many goroutines while snapshotting: every snapshot must be
// sorted and internally consistent (a histogram's expanded entries
// all present), and the final snapshot complete.
func TestSnapshotOrderingUnderConcurrentCreation(t *testing.T) {
	r := newRegistry()
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				switch rng.Intn(4) {
				case 0:
					r.counter(fmt.Sprintf("ff_c_%d_%d", w, i)).Inc()
				case 1:
					r.Gauge(fmt.Sprintf("ff_g_%d_%d", w, i)).Set(1)
				case 2:
					r.histogram(fmt.Sprintf("ff_h_%d_%d", w, i)).ObserveNs(10)
				default:
					r.sketch(fmt.Sprintf("ff_s_%d_%d", w, i)).Observe(0.5, true)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func(snap []Metric) {
		for i := 1; i < len(snap); i++ {
			if snap[i-1].Name > snap[i].Name {
				t.Fatalf("snapshot not sorted: %q > %q", snap[i-1].Name, snap[i].Name)
			}
		}
	}
	for {
		select {
		case <-done:
			snap := r.Snapshot()
			check(snap)
			names := map[string]bool{}
			for _, m := range snap {
				names[m.Name] = true
			}
			for _, m := range snap {
				if strings.HasPrefix(m.Name, "ff_h_") {
					base := m.Name[:strings.LastIndex(m.Name, "/")]
					for _, suffix := range []string{"/count", "/mean", "/p50", "/p95", "/p99", "/max"} {
						if !names[base+suffix] {
							t.Fatalf("histogram %s missing expanded entry %s", base, suffix)
						}
					}
				}
			}
			return
		default:
			check(r.Snapshot())
		}
	}
}
