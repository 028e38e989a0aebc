package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Workload names. They are fixed: later issues name a claim as one
// end-to-end metric on one of these.
const (
	wlFewMC      = "edge-few-mc"
	wlManyMC     = "edge-many-mc"
	wlEventHeavy = "edge-event-heavy"
	wlCtrlIngest = "ctrl-ingest"
)

var (
	edgeWorkloads = []string{wlFewMC, wlManyMC, wlEventHeavy}
	allWorkloads  = []string{wlFewMC, wlManyMC, wlEventHeavy, wlCtrlIngest}
)

// workloadDef is one benchmark workload. Work is a fixed count, never
// calibrated per run: OpsPerSecond was measured once at the commit
// that added the benchmark and is frozen, so a run of --seconds S does
// round(OpsPerSecond*S) operations on every commit and both sides of
// a comparison do identical work.
type workloadDef struct {
	Name string
	Why  string
	// OpsPerSecond sizes the timed phase: frames (edge-*) or
	// first-time uploads (ctrl-ingest) per requested second.
	OpsPerSecond float64
	// Warmup is the untimed operation count that precedes timing and
	// counts toward setup_s (frames per stream, or uploads).
	Warmup int
}

var workloads = []workloadDef{
	{
		Name:         wlFewMC,
		Why:          "one stream, 2 MCs, nothing encoded: the shared base DNN is most of the frame, so tensor/nn/mobilenet work shows here; single-threaded baseline",
		OpsPerSecond: 1150, Warmup: 240,
	},
	{
		Name:         wlManyMC,
		Why:          "one stream, 50 MCs (Fig. 5's right edge): MC.Push dominates extraction, so MC-side work shows and a base-DNN kernel change moves it far less",
		OpsPerSecond: 220, Warmup: 240,
	},
	{
		Name:         wlEventHeavy,
		Why:          "fleet agent, 2 streams on 2 workers, trained MCs on an event-dense clip, archive + uplink + durable controller: codec, archive, event and the upload/ack path carry the time",
		OpsPerSecond: 900, Warmup: 240,
	},
	{
		Name:         wlCtrlIngest,
		Why:          "control plane alone, no DNN: 2 synthetic edge sessions feed a 2-shard durable controller, then crash and recover it; an edge-side optimisation must not move it",
		OpsPerSecond: 13000, Warmup: 4096,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the baseline median by which an
	// end-to-end metric may worsen before diff calls it a regression.
	Bound float64
	// On lists the workloads that measure the metric; a per-layer
	// metric reads 0 on the others (the output contract wants every
	// name on every run).
	On []string
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it should move.
	Moves string
	// Count marks an exact count that must repeat bit for bit between
	// two runs of one commit with one seed.
	Count bool
}

// endToEnd lists the metrics a user of the system sees. Each is
// measured on every workload: ops are frames on edge-* and first-time
// acked uploads on ctrl-ingest. The bounds are about three times the
// widest ten-seed inter-quartile spread seen on any workload on the
// shared 2-core box the benchmark was calibrated on (see
// baseline/calibration.md): a bound inside the noise would reject
// unchanged code.
var endToEnd = []metricDef{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20, On: allWorkloads},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.20, On: allWorkloads},
	{Name: "op_ms_p90", Unit: "ms", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15, On: allWorkloads},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: allWorkloads},
}

const (
	fewFps   = "ops_per_s on edge-few-mc"
	manyFps  = "ops_per_s on edge-many-mc"
	heavyFps = "ops_per_s on edge-event-heavy"
	heavyP99 = "op_ms_p90 and the op_ms_p95/p99 tail on edge-event-heavy"
	ctrlUps  = "ops_per_s on ctrl-ingest"
	ctrlP99  = "op_ms_p90 and the op_ms_p95/p99 tail on ctrl-ingest"
	rssAll   = "peak_rss_mb on every workload"
)

var (
	onHeavy = []string{wlEventHeavy}
	onCtrl  = []string{wlCtrlIngest}
	onFew   = []string{wlFewMC}
	onAtRef = []string{wlFewMC, wlManyMC}
	onWire  = []string{wlEventHeavy, wlCtrlIngest}
)

// perLayer lists the single-layer metrics (layer = package name),
// taken in the traced run or by a microbench in bench/layers around
// exported calls only. They have no bound.
var perLayer = []metricDef{
	// End-to-end numbers that exist on one workload only. The output
	// contract wants every end-to-end metric on every workload, so
	// these keep the issue's names but sit in this tier.
	{Name: "uplink_bits_per_frame", Unit: "bits", Better: "lower", On: onHeavy, Moves: "Fig. 4 x-axis; itself", Count: true},
	{Name: "event_f1", Unit: "ratio", Better: "higher", On: onHeavy, Moves: "Fig. 4 y-axis; itself", Count: true},
	{Name: "event_to_ledger_ms_p50", Unit: "ms", Better: "lower", On: onHeavy, Moves: heavyP99},
	{Name: "event_to_ledger_ms_p99", Unit: "ms", Better: "lower", On: onHeavy, Moves: heavyP99},
	{Name: "recovery_ms_per_krec", Unit: "ms", Better: "lower", On: onCtrl, Moves: "itself (restart time)"},
	{Name: "op_ms_p95", Unit: "ms", Better: "lower", On: allWorkloads, Moves: "itself: the tail beyond op_ms_p90, over all samples; it spread by up to 24 % between ten seeds, so it has no bound"},
	{Name: "op_ms_p99", Unit: "ms", Better: "lower", On: allWorkloads, Moves: "itself: the far tail, over all samples; no bound"},
	{Name: "failed_share", Unit: "ratio", Better: "lower", On: allWorkloads, Moves: "any rise is a regression", Count: true},

	{Name: "vision.to_tensor_us", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},

	{Name: "tensor.gemm_gmadds_per_s", Unit: "GMAdd/s", Better: "higher", On: edgeWorkloads, Moves: fewFps},
	{Name: "tensor.gemm_small_m_gmadds_per_s", Unit: "GMAdd/s", Better: "higher", On: edgeWorkloads, Moves: manyFps},
	{Name: "tensor.gemm_computed_bytes_per_madd", Unit: "B", Better: "lower", On: edgeWorkloads, Moves: fewFps, Count: true},

	{Name: "nn.program_run_us", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "nn.conv1_us", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "nn.dw_us", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "nn.pw_us", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "nn.allocs_per_run", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: rssAll, Count: true},

	{Name: "mobilenet.extract_us_p50", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "mobilenet.extract_us_p99", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: "op_ms_p90 and the op_ms_p95/p99 tail on edge-few-mc"},
	{Name: "mobilenet.madds_per_frame", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: fewFps, Count: true},
	{Name: "mobilenet.gmadds_per_s", Unit: "GMAdd/s", Better: "higher", On: edgeWorkloads, Moves: fewFps},
	{Name: "mobilenet.allocs_per_frame", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: rssAll, Count: true},

	{Name: "filter.push_us.localized", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: manyFps},
	{Name: "filter.push_us.windowed", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: manyFps},
	{Name: "filter.push_us.detector", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: manyFps},
	{Name: "filter.madds_per_push.localized", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: manyFps, Count: true},
	{Name: "filter.madds_per_push.windowed", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: manyFps, Count: true},
	{Name: "filter.madds_per_push.detector", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: manyFps, Count: true},
	{Name: "filter.allocs_per_push", Unit: "count", Better: "lower", On: edgeWorkloads, Moves: rssAll, Count: true},
	{Name: "filter.pass_ratio", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: "uplink_bits_per_frame and event_f1 on edge-event-heavy", Count: true},
	{Name: "filter.load_ms", Unit: "ms", Better: "lower", On: edgeWorkloads, Moves: "setup_s on edge-*"},

	{Name: "event.smooth_ns", Unit: "ns", Better: "lower", On: edgeWorkloads, Moves: heavyFps},
	{Name: "event.events_per_kframe", Unit: "count", Better: "lower", On: onHeavy, Moves: heavyFps, Count: true},

	{Name: "codec.encode_us_per_frame", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: heavyFps},
	{Name: "codec.bits_per_frame", Unit: "bits", Better: "lower", On: edgeWorkloads, Moves: "uplink_bits_per_frame on edge-event-heavy", Count: true},
	{Name: "codec.segment_encode_ms", Unit: "ms", Better: "lower", On: edgeWorkloads, Moves: heavyP99},

	{Name: "archive.append_us_p50", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: heavyFps},
	{Name: "archive.append_us_p99", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: heavyP99},
	{Name: "archive.read_range_ms", Unit: "ms", Better: "lower", On: edgeWorkloads, Moves: "fleet.fetch_ms, then the op_ms_p95/p99 tail on edge-event-heavy"},
	{Name: "archive.bytes_per_frame", Unit: "B", Better: "lower", On: edgeWorkloads, Moves: heavyFps, Count: true},
	{Name: "archive.sync_ms", Unit: "ms", Better: "lower", On: edgeWorkloads, Moves: heavyP99},

	{Name: "core.stage_share.decode", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: "ops_per_s on edge-*"},
	{Name: "core.stage_share.extract", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: fewFps},
	{Name: "core.stage_share.mc", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: manyFps},
	{Name: "core.stage_share.encode", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: heavyFps},
	{Name: "core.stage_share.archive", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: heavyFps},
	{Name: "core.self_us_per_frame", Unit: "us", Better: "lower", On: edgeWorkloads, Moves: "ops_per_s on edge-*"},
	{Name: "core.unattributed_share", Unit: "ratio", Better: "lower", On: edgeWorkloads, Moves: "ops_per_s on edge-*"},
	{Name: "core.sched_wait_us_p50", Unit: "us", Better: "lower", On: onHeavy, Moves: "op_ms_p50 on edge-event-heavy"},
	{Name: "core.sched_wait_us_p99", Unit: "us", Better: "lower", On: onHeavy, Moves: heavyP99},
	{Name: "core.uplink_delay_s_max", Unit: "s", Better: "lower", On: onHeavy, Moves: "event_to_ledger_ms_p99 on edge-event-heavy", Count: true},

	{Name: "transport.write_record_us", Unit: "us", Better: "lower", On: onWire, Moves: ctrlUps},
	{Name: "transport.read_record_us", Unit: "us", Better: "lower", On: onWire, Moves: ctrlUps},
	{Name: "transport.bytes_per_upload", Unit: "B", Better: "lower", On: onWire, Moves: ctrlUps, Count: true},

	{Name: "fleet.hello_ms", Unit: "ms", Better: "lower", On: onCtrl, Moves: "setup_s on ctrl-ingest"},
	{Name: "fleet.heartbeat_us", Unit: "us", Better: "lower", On: onCtrl, Moves: ctrlUps},
	{Name: "fleet.heartbeat_bytes", Unit: "B", Better: "lower", On: onCtrl, Moves: ctrlUps, Count: true},
	{Name: "fleet.deploy_rtt_ms", Unit: "ms", Better: "lower", On: onCtrl, Moves: "setup_s on edge-event-heavy"},
	{Name: "fleet.dedup_share", Unit: "ratio", Better: "lower", On: onCtrl, Moves: ctrlUps, Count: true},
	{Name: "fleet.rollup_us", Unit: "us", Better: "lower", On: onCtrl, Moves: ctrlP99},
	{Name: "fleet.fetch_ms", Unit: "ms", Better: "lower", On: onHeavy, Moves: heavyP99},
	{Name: "fleet.agent_pending_max", Unit: "count", Better: "lower", On: onHeavy, Moves: "event_to_ledger_ms_p99 on edge-event-heavy"},
	{Name: "fleet.replayed_records", Unit: "count", Better: "lower", On: onCtrl, Moves: "recovery_ms_per_krec on ctrl-ingest", Count: true},
	{Name: "fleet.snapshot_bytes", Unit: "B", Better: "lower", On: onCtrl, Moves: "recovery_ms_per_krec on ctrl-ingest", Count: true},
	{Name: "fleet.close_ms", Unit: "ms", Better: "lower", On: onWire, Moves: "itself (shutdown time)"},

	{Name: "walog.append_us_p50", Unit: "us", Better: "lower", On: onWire, Moves: ctrlUps},
	{Name: "walog.append_us_p99", Unit: "us", Better: "lower", On: onWire, Moves: ctrlP99},
	{Name: "walog.snapshot_ms_per_mb", Unit: "ms", Better: "lower", On: onWire, Moves: ctrlP99},
	{Name: "walog.open_ms_per_krec", Unit: "ms", Better: "lower", On: onWire, Moves: "recovery_ms_per_krec on ctrl-ingest"},
	{Name: "walog.state_bytes", Unit: "B", Better: "lower", On: onCtrl, Moves: "recovery_ms_per_krec on ctrl-ingest", Count: true},
	{Name: "walog.sync_us", Unit: "us", Better: "lower", On: onWire, Moves: "informational: disk-dependent"},

	{Name: "obs.observe_ns", Unit: "ns", Better: "lower", On: edgeWorkloads, Moves: "obs.overhead_share"},
	{Name: "obs.sketch_observe_ns", Unit: "ns", Better: "lower", On: allWorkloads, Moves: manyFps},
	{Name: "obs.overhead_share", Unit: "ratio", Better: "lower", On: onFew, Moves: fewFps},

	{Name: "metrics.merge_fleet_us", Unit: "us", Better: "lower", On: onCtrl, Moves: "fleet.rollup_us, then the op_ms_p95/p99 tail on ctrl-ingest"},
	{Name: "simnet.pipe_mb_per_s", Unit: "MB/s", Better: "higher", On: onWire, Moves: "none: proves the loopback is not the bottleneck"},

	{Name: "bench.cpu_speed", Unit: "ratio", Better: "higher", On: onAtRef, Moves: "none: the CPU speed the end-to-end timings of edge-few-mc and edge-many-mc are scaled by (speed.go)"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", On: allWorkloads, Moves: "none: cost of the harness's own spans"},
	{Name: "bench.spans", Unit: "count", Better: "lower", On: allWorkloads, Moves: "none: size of the trace", Count: true},
}

// runSeconds is how long one run measures at the frozen rates.
const runSeconds = 12

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []benchWorkload  `json:"workloads"`
	EndToEnd   []benchE2EMetric `json:"end_to_end"`
	PerLayer   []benchMetric    `json:"per_layer"`
}

type benchWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchE2EMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchWorkload{Name: w.Name, Why: w.Why})
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, benchE2EMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}

func printBenchmarkJSON() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(benchmarkJSON()); err != nil {
		return fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return nil
}

func reportsOn(m metricDef, workload string) bool { return slices.Contains(m.On, workload) }
