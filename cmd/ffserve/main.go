// Command ffserve runs the datacenter side of FilterForward as a
// network service: the fleet controller accepts edge sessions (see
// ffrun -connect), optionally deploys a microclassifier to every node
// that connects, demand-fetches event context from edge archives, and
// periodically prints the fleet registry and per-application upload
// summaries.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// contextArchiver persists demand-fetched context video into
// datacenter-side archive stores, one per node/stream. Each fetch's
// frames land contiguously and in frame order; concurrent fetches of
// the same stream are serialized in completion order (the store
// assigns its own append indices — the stream-range attribution for
// each fetch is in ffserve's "fetched context" log lines). It gives
// operators a reviewable on-disk record of every piece of context
// the controller pulled, bounded by the same retention policy the
// edges use.
type contextArchiver struct {
	dir    string
	budget int64

	mu     sync.Mutex // guards stores AND serializes Save's append loop
	stores map[string]*archive.Store
}

func newContextArchiver(dir string, budget int64) *contextArchiver {
	return &contextArchiver{dir: dir, budget: budget, stores: make(map[string]*archive.Store)}
}

// Save appends fetched frames under the node/stream's store, spreading
// the fetch's coded-bit accounting evenly across them (the first
// bits % len(frames) frames carry one bit more, so the store accounts
// every bit). Saves are serialized so each fetch's frames stay
// contiguous on disk.
func (c *contextArchiver) Save(node, stream string, frames []*vision.Image, bits int64) error {
	if len(frames) == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := node + "/" + stream
	st, ok := c.stores[key]
	if !ok {
		var err error
		st, err = archive.Open(archive.Config{
			Dir:    filepath.Join(c.dir, node, stream),
			Width:  frames[0].W,
			Height: frames[0].H,
			Budget: c.budget,
		})
		if err != nil {
			return err
		}
		c.stores[key] = st
	}
	n := int64(len(frames))
	for i, f := range frames {
		share := bits / n
		if int64(i) < bits%n {
			share++
		}
		if _, err := st.Append(f, share); err != nil {
			return err
		}
	}
	return st.Sync()
}

func (c *contextArchiver) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, st := range c.stores {
		st.Close()
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, serves until
// SIGINT or SIGTERM, writing its summaries to stdout and its log to stderr,
// and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("listen", "127.0.0.1:7004", "listen address")
		interval = fs.Duration("interval", 5*time.Second, "summary interval")
		frames   = fs.Int("frames", 2000, "stream length assumed when printing coverage")
		hbMiss   = fs.Int("heartbeat-miss", 5, "evict a session after this many missed heartbeat intervals (0 disables liveness eviction)")
		shards   = fs.Int("shards", 1, "controller shards; nodes are placed by consistent hashing and per-shard summaries are merged into the fleet rollup")

		stateDir = fs.String("state-dir", "", "persist per-shard control-plane state (intent, ledgers, drift baselines) under this directory and recover it on restart (empty keeps state in memory)")
		walSync  = fs.Bool("wal-sync", false, "fsync every wal append (survives machine power loss; default page-cache durability survives process crashes)")

		deploy    = fs.String("deploy", "", "MC weights file (from fftrain) to deploy to every connecting node")
		deployTo  = fs.String("deploy-stream", "", "stream to deploy onto (default: each node's first advertised stream)")
		threshold = fs.Float64("threshold", 0.5, "decision threshold for -deploy")

		fetchCtx     = fs.Int("fetch-context", 0, "frames of archived context to demand-fetch before each completed event (0 disables)")
		fetchBitrate = fs.Float64("fetch-bitrate", 30_000, "demand-fetch re-encode bitrate (b/s)")

		archiveDir    = fs.String("archive-dir", "", "persist demand-fetched context frames into per-node/stream archive stores under this directory")
		archiveBudget = fs.Int64("archive-budget", 0, "per-stream byte budget for -archive-dir stores (0 = unbounded; oldest segments evicted first)")

		debugAddr = fs.String("debug-addr", "", "serve /metrics, /healthz, /debug/health, /debug/trace.json, and /debug/pprof on this address (empty disables)")
		logJSON   = fs.Bool("log-json", false, "emit structured logs as JSON lines")
		sloSpec   = fs.String("slo", "", "SLO threshold overrides as name=warn[:crit] or name=off, comma-separated (e.g. \"extract_p99_ms=20:100,drift_psi=0.1\"); empty keeps the defaults")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *interval <= 0 {
		fmt.Fprintf(stderr, "ffserve: -interval must be positive, got %s\n", *interval)
		return 2
	}
	log := obs.NewLogger(stderr, *logJSON, slog.LevelInfo)

	// The controller-side observer carries fleet rollup gauges (updated
	// every summary tick from heartbeat data) rather than hot-path
	// histograms; -debug-addr exposes it alongside pprof.
	observer := obs.NewObserver(obs.Options{Log: log})
	describeFleetGauges(observer.Reg)
	sloRules, err := health.Parse(*sloSpec, fleetSLOs())
	if err != nil {
		log.Error("ffserve: bad -slo spec", "spec", *sloSpec, "err", err)
		return 1
	}
	ht := &healthTick{eng: health.New(sloRules), log: log}
	if *debugAddr != "" {
		mux := obs.NewDebugMux(observer)
		ht.eng.Register(mux)
		dbg, err := obs.ServeMux(*debugAddr, mux)
		if err != nil {
			log.Error("ffserve: debug server failed", "err", err)
			return 1
		}
		defer dbg.Close()
		log.Info("ffserve: debug server listening",
			"addr", dbg.Addr, "endpoints", "/metrics /healthz /debug/health /debug/trace.json /debug/pprof/")
	}

	var ctxArchive *contextArchiver
	if *archiveDir != "" {
		ctxArchive = newContextArchiver(*archiveDir, *archiveBudget)
		defer ctxArchive.Close()
	}

	var mcBytes []byte
	if *deploy != "" {
		var err error
		mcBytes, err = os.ReadFile(*deploy)
		if err != nil {
			log.Error("ffserve: read deploy weights failed", "file", *deploy, "err", err)
			return 1
		}
	}

	var ctrl *fleet.Controller
	cfg := fleet.ControllerConfig{
		HeartbeatMiss: *hbMiss,
		Shards:        *shards,
		Log:           log,
		OnSession: func(s *fleet.Session) {
			log.Info("ffserve: node joined",
				"session", s.ID(), "node", s.Node(),
				"resumed", s.Resumed(), "streams", len(s.Streams()))
			streams := s.Streams()
			if mcBytes == nil || len(streams) == 0 || s.Resumed() {
				// Resumed sessions are reconciled against recorded
				// intent; re-deploying here would only be rejected as
				// a duplicate.
				return
			}
			target := *deployTo
			if target == "" {
				target = streams[0].Name
			}
			// Controller.Deploy records intent, so the node gets the
			// MC re-pushed if it ever comes back without it.
			if err := ctrl.Deploy(s.Node(), target, mcBytes, float32(*threshold)); err != nil {
				log.Error("ffserve: deploy failed", "node", s.Node(), "stream", target, "err", err)
				return
			}
			log.Info("ffserve: deployed",
				"weights", *deploy, "node", s.Node(), "stream", target, "threshold", *threshold)
		},
		OnUpload: func(s *fleet.Session, up core.Upload) {
			if *fetchCtx <= 0 || !up.Final {
				return
			}
			stream, _ := splitStream(up.MCName)
			lo := up.Start - *fetchCtx
			if lo < 0 {
				lo = 0
			}
			if lo >= up.Start || stream == "" {
				return
			}
			// Round trips must not run on the session's reader
			// goroutine.
			go func() {
				// With an archive dir the pixels come back over the
				// wire and land in the datacenter-side context store;
				// otherwise only the accounting crosses.
				var resp fleet.FetchResponse
				var frames []*vision.Image
				var err error
				if ctxArchive != nil {
					frames, resp, err = s.FetchFrames(stream, lo, up.Start, *fetchBitrate)
				} else {
					resp, err = s.Fetch(stream, lo, up.Start, *fetchBitrate)
				}
				if err != nil {
					log.Error("ffserve: fetch context failed",
						"mc", up.MCName, "start", lo, "end", up.Start, "err", err)
					return
				}
				if ctxArchive != nil {
					if err := ctxArchive.Save(s.Node(), stream, frames, resp.Bits); err != nil {
						log.Error("ffserve: archive context failed",
							"node", s.Node(), "stream", stream, "err", err)
					}
				}
				log.Info("ffserve: fetched context",
					"mc", up.MCName, "event", up.EventID,
					"start", resp.Start, "end", resp.End, "bits", resp.Bits)
			}()
		},
	}
	// OpenController replays the state dir (and logs the recovery
	// stats) before accepting any session.
	cfg.StateDir = *stateDir
	cfg.WALSync = *walSync
	ctrl, _, err = fleet.OpenController(cfg)
	if err != nil {
		log.Error("ffserve: open controller failed", "state-dir", *stateDir, "err", err)
		return 1
	}
	// The stop signals are caught before the listener opens: a signal
	// sent once a client has been served must stop ffserve gracefully.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	bound, err := ctrl.Listen("tcp", *addr)
	if err != nil {
		log.Error("ffserve: listen failed", "addr", *addr, "err", err)
		ctrl.Close()
		return 1
	}
	log.Info("ffserve: listening", "addr", bound.String(), "kernel", tensor.Kernel())

	ht.interval = *interval
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			printSummary(stdout, ctrl, *frames, observer, ht)
		case <-stop:
			log.Info("ffserve: shutting down")
			ctrl.Close()
			return 0
		}
	}
}

// fleetSLOs is ffserve's declared SLO set over the rollup signals the
// summary tick computes. Signal units are milliseconds for latencies,
// counts for the backlog, per-minute for eviction churn, and raw
// statistic values for the drift scores; -slo overrides the
// thresholds without changing the signal wiring.
func fleetSLOs() []health.Rule {
	return []health.Rule{
		{Name: "extract_p99_ms", Signal: "extract_p99_ms", Warn: 50, Crit: 250, For: 2, ClearFor: 2},
		{Name: "hb_gap_p95_ms", Signal: "hb_gap_p95_ms", Warn: 2000, Crit: 10_000, For: 2, ClearFor: 2},
		{Name: "upload_backlog", Signal: "upload_backlog", Warn: 64, Crit: 512, For: 2, ClearFor: 2},
		{Name: "evictions_per_min", Signal: "evictions_per_min", Warn: 2, Crit: 10, ClearFor: 2},
		{Name: "drift_psi", Signal: "drift_psi", Warn: fleet.DefaultDriftPSI, Crit: 2 * fleet.DefaultDriftPSI, ClearFor: 2},
		{Name: "drift_ks", Signal: "drift_ks", Warn: fleet.DefaultDriftKS, ClearFor: 2},
	}
}

// healthTick folds one summary interval's fleet rollup into the SLO
// engine. Signals without data this tick (no instrumented nodes, no
// heartbeats yet) are omitted rather than zeroed, so their rules hold
// state instead of flapping.
type healthTick struct {
	eng      *health.Engine
	interval time.Duration
	log      *slog.Logger
	// lastEvicted/started derive the eviction rate from consecutive
	// lifecycle totals.
	lastEvicted int
	started     bool
}

func (h *healthTick) eval(sum metrics.FleetSummary, stats []fleet.ShardStat, evicted int) health.Status {
	signals := make(map[string]float64)
	if sum.Nodes > 0 {
		signals["upload_backlog"] = float64(sum.PendingUploads)
		signals["drift_psi"] = sum.MaxDriftPSI
		signals["drift_ks"] = sum.MaxDriftKS
	}
	if sum.ExtractLat.Count > 0 {
		signals["extract_p99_ms"] = float64(sum.ExtractLat.Quantile(0.99)) / 1e6
	}
	// The slowest shard's cadence, not the fleet's: one stalled shard
	// must not hide behind healthy ones.
	var gap int64
	for _, s := range stats {
		gap = max(gap, s.HeartbeatGap.Quantile(0.95))
	}
	if gap > 0 {
		signals["hb_gap_p95_ms"] = float64(gap) / 1e6
	}
	if h.started && h.interval > 0 {
		signals["evictions_per_min"] = float64(evicted-h.lastEvicted) / h.interval.Minutes()
	}
	h.lastEvicted, h.started = evicted, true
	status, alerts := h.eng.Eval(signals)
	for _, a := range alerts {
		if a.Status == health.Healthy {
			h.log.Info("ffserve: slo recovered", "rule", a.Rule, "value", a.Value)
		} else {
			h.log.Warn("ffserve: slo breached",
				"rule", a.Rule, "status", a.Status.String(), "value", a.Value, "threshold", a.Threshold)
		}
	}
	return status
}

// printSummary prints the fleet registry, the uplink rollup (including
// the heartbeat-carried latency tails), drift status, and the
// per-application upload summaries, all deterministically sorted. It
// also evaluates the SLO engine for the tick and refreshes the
// observer's fleet gauges, so -debug-addr's /metrics and /healthz
// track the same rollup the console shows.
func printSummary(w io.Writer, ctrl *fleet.Controller, frames int, observer *obs.Observer, ht *healthTick) {
	nodes := ctrl.ListNodes()
	// Application summaries come from one merged snapshot of the
	// ledgers, consistent per shard against concurrent session uploads.
	type appLine struct {
		name    string
		covered int
		bits    int64
		events  int
	}
	var apps []appLine
	dc := ctrl.Datacenter()
	for _, name := range dc.KnownApplications() { // sorted
		covered := 0
		for _, l := range dc.PredictedLabels(name, frames) {
			if l {
				covered++
			}
		}
		apps = append(apps, appLine{name, covered, dc.TotalBits(name), len(dc.Events(name))})
	}
	// The fleet view is the cross-shard rollup: each shard summarizes
	// its own sessions' heartbeat loads, and the summaries merge. This
	// is exactly what a multi-process deployment would do — no code
	// path here ever needs the flattened fleet-wide load list.
	perShard := ctrl.ShardLoads()
	summaries := make([]metrics.FleetSummary, 0, len(perShard))
	for _, l := range perShard {
		summaries = append(summaries, metrics.SummarizeFleet(l))
	}
	stats := ctrl.ShardStats()
	sum := metrics.MergeFleet(summaries)
	// Lifecycle totals come from the controller's durable node
	// records, not the live-session loads: an evicted node with no
	// current session is exactly the one that must not vanish from
	// the rollup.
	ev, rc := ctrl.Lifecycle()
	// The SLO engine runs every tick, connected nodes or not: rules
	// must keep their hysteresis state (and the eviction-rate window
	// its baseline) across idle intervals.
	status := health.Healthy
	if ht != nil {
		status = ht.eval(sum, stats, ev)
	}
	if observer != nil {
		observer.Reg.Gauge("ff_fleet_health").Set(int64(status))
	}

	if len(nodes) == 0 && len(apps) == 0 {
		return
	}

	fmt.Fprintf(w, "-- %d node(s) connected --\n", len(nodes))
	for _, n := range nodes {
		fmt.Fprintf(w, "  session %-3d %-16s shard %d, %d stream(s), %d uploads\n",
			n.ID, n.Node, n.Shard, len(n.Streams), n.Uploads)
		for _, si := range n.Streams {
			st := n.Heartbeat.Streams[si.Name]
			fmt.Fprintf(w, "    %-20s %dx%d@%d  %6d frames, %8d bits uplinked\n",
				si.Name, si.Width, si.Height, si.FPS, st.Frames, st.UploadedBits)
		}
	}
	if len(stats) > 1 {
		for _, s := range stats {
			fmt.Fprintf(w, "  shard %d: %d node(s), %d session(s), %d ledger uploads, hb gap p95 %s\n",
				s.Shard, s.Nodes, s.Sessions, s.Uploads,
				time.Duration(s.HeartbeatGap.Quantile(0.95)))
		}
	}
	if observer != nil {
		updateShardGauges(observer, stats)
	}
	if ht != nil {
		printHealthLine(w, ht.eng, status)
	}
	if sum.Frames > 0 {
		fmt.Fprintf(w, "  fleet: %d uploads, %d bits, avg %.1f kb/s, hottest %s at %.1f kb/s\n",
			sum.Uploads, sum.UploadedBits, sum.AverageBitrate/1000, sum.MaxNode, sum.MaxNodeBitrate/1000)
		// Fleet-wide quantiles: the nodes' histograms merge exactly.
		if sum.ExtractLat.Count > 0 {
			fmt.Fprintf(w, "  fleet latency: extract p50 %s p95 %s p99 %s; mc push p95 %s; queue wait p95 %s\n",
				time.Duration(sum.ExtractLat.Quantile(0.50)), time.Duration(sum.ExtractLat.Quantile(0.95)),
				time.Duration(sum.ExtractLat.Quantile(0.99)), time.Duration(sum.MCPushLat.Quantile(0.95)),
				time.Duration(sum.QueueWaitLat.Quantile(0.95)))
		}
		if sum.UploadRTTLat.Count > 0 {
			fmt.Fprintf(w, "  fleet upload rtt: p50 %s p95 %s p99 %s (max %s)\n",
				time.Duration(sum.UploadRTTLat.Quantile(0.50)), time.Duration(sum.UploadRTTLat.Quantile(0.95)),
				time.Duration(sum.UploadRTTLat.Quantile(0.99)), time.Duration(sum.UploadRTTLat.Max))
		}
		// Drift status comes from the same rollup the gauges export:
		// the worst recent window and how many (stream, MC) pairs are
		// currently flagged.
		if sum.Scores.Count > 0 {
			fmt.Fprintf(w, "  fleet drift: %d score obs, pass rate %.3f, worst psi %.3f (%s), worst ks %.3f, %d pair(s) drifted\n",
				sum.Scores.Count, sum.Scores.PassRate(), sum.MaxDriftPSI, sum.MaxDriftNode, sum.MaxDriftKS, sum.Drifted)
		}
		if sum.MaxMCVersion > 0 {
			fmt.Fprintf(w, "  fleet models: max version %d\n", sum.MaxMCVersion)
		}
		if ev > 0 || rc > 0 {
			fmt.Fprintf(w, "  fleet lifecycle: %d session(s) evicted, %d reconnect(s)\n", ev, rc)
		}
		if observer != nil {
			sum.Evicted, sum.Reconnects = ev, rc
			updateFleetGauges(observer, sum)
		}
		if sum.ArchiveBytes > 0 || sum.ArchiveEvictedSegments > 0 {
			fmt.Fprintf(w, "  edge archives: %.1f MB on disk, %d segments evicted (%.1f MB reclaimed)\n",
				float64(sum.ArchiveBytes)/1e6, sum.ArchiveEvictedSegments, float64(sum.ArchiveEvictedBytes)/1e6)
		}
	}

	for _, a := range apps {
		fmt.Fprintf(w, "  %-32s %6d frames, %8d bits, %d events\n",
			a.name, a.covered, a.bits, a.events)
	}
}

// updateFleetGauges mirrors the fleet rollup into the observer's
// registry, so /metrics exposes what the console summary prints.
func updateFleetGauges(o *obs.Observer, sum metrics.FleetSummary) {
	o.Reg.Gauge("ff_fleet_nodes").Set(int64(sum.Nodes))
	o.Reg.Gauge("ff_fleet_frames").Set(int64(sum.Frames))
	o.Reg.Gauge("ff_fleet_uploads").Set(int64(sum.Uploads))
	o.Reg.Gauge("ff_fleet_uploaded_bits").Set(sum.UploadedBits)
	o.Reg.Gauge("ff_fleet_evicted_sessions").Set(int64(sum.Evicted))
	o.Reg.Gauge("ff_fleet_reconnects").Set(int64(sum.Reconnects))
	o.Reg.Gauge("ff_fleet_extract_p95_ns").Set(sum.ExtractLat.Quantile(0.95))
	o.Reg.Gauge("ff_fleet_extract_p99_ns").Set(sum.ExtractLat.Quantile(0.99))
	o.Reg.Gauge("ff_fleet_mc_push_p95_ns").Set(sum.MCPushLat.Quantile(0.95))
	o.Reg.Gauge("ff_fleet_queue_wait_p95_ns").Set(sum.QueueWaitLat.Quantile(0.95))
	o.Reg.Gauge("ff_fleet_upload_rtt_p95_ns").Set(sum.UploadRTTLat.Quantile(0.95))
	o.Reg.Gauge("ff_fleet_pending_uploads").Set(int64(sum.PendingUploads))
	// Drift gauges scale the float statistics by 1e3 (gauges are
	// integers): ff_fleet_drift_score 250 == PSI 0.25.
	o.Reg.Gauge("ff_fleet_drift_score").Set(int64(sum.MaxDriftPSI * 1000))
	o.Reg.Gauge("ff_fleet_drift_ks").Set(int64(sum.MaxDriftKS * 1000))
	o.Reg.Gauge("ff_fleet_drift_pairs").Set(int64(sum.Drifted))
	o.Reg.Gauge("ff_fleet_score_observations").Set(int64(sum.Scores.Count))
	o.Reg.Gauge("ff_fleet_mc_version").Set(int64(sum.MaxMCVersion))
}

// describeFleetGauges registers HELP text for the summary-tick gauges
// so /metrics documents them (the hot-path instruments are described
// by NewObserver).
func describeFleetGauges(reg *obs.Registry) {
	for name, help := range map[string]string{
		"ff_fleet_health":             "SLO engine overall status (0 healthy, 1 degraded, 2 critical)",
		"ff_fleet_extract_p95_ns":     "fleet-wide p95 base-DNN extraction latency, from every node's merged histogram (not the worst node's p95)",
		"ff_fleet_extract_p99_ns":     "fleet-wide p99 base-DNN extraction latency, from every node's merged histogram (not the worst node's p99)",
		"ff_fleet_mc_push_p95_ns":     "fleet-wide p95 MC push latency, from every node's merged histogram (not the worst node's p95)",
		"ff_fleet_queue_wait_p95_ns":  "fleet-wide p95 scheduler queue wait, from every node's merged histogram (not the worst node's p95)",
		"ff_fleet_upload_rtt_p95_ns":  "fleet-wide p95 upload send-to-ack round trip, from every node's merged histogram (not the worst node's p95)",
		"ff_fleet_pending_uploads":    "edge-side upload backlog awaiting controller acks",
		"ff_fleet_drift_score":        "worst per-stream PSI drift score across the fleet, scaled by 1e3",
		"ff_fleet_drift_ks":           "worst per-stream binned KS drift score across the fleet, scaled by 1e3",
		"ff_fleet_drift_pairs":        "(stream, MC) pairs currently above a drift alert threshold",
		"ff_fleet_score_observations": "MC score observations aggregated across the fleet",
		"ff_fleet_mc_version":         "highest deployed MC model version across the fleet",
	} {
		reg.Describe(name, help)
	}
}

// printHealthLine prints the tick's SLO outcome: the overall status
// and, when not healthy, the firing rules with their current values.
func printHealthLine(w io.Writer, eng *health.Engine, status health.Status) {
	if status == health.Healthy {
		fmt.Fprintln(w, "  health: ok")
		return
	}
	_, rules := eng.Status()
	line := "  health: " + status.String()
	for _, rs := range rules {
		if rs.Status != health.Healthy {
			line += fmt.Sprintf(" [%s %.3g]", rs.Rule.Name, rs.Value)
		}
	}
	fmt.Fprintln(w, line)
}

// updateShardGauges mirrors per-shard load, heartbeat-cadence and
// compaction stats into ff_fleet_shard_<i>_* gauges, the balance view
// that shows a hot or empty shard at a glance, and each shard's
// heartbeat handling and wal append times into
// ff_ctrl_shard_<i>_heartbeat_* and ff_ctrl_shard_<i>_wal_append_*
// gauges.
// ledger_uploads and ledger_bits total the ledgers of the nodes a shard
// owns, uploads they delivered before a restart re-homed them included:
// a re-home moves them between shards, and their sum over shards is the
// fleet's.
func updateShardGauges(o *obs.Observer, stats []fleet.ShardStat) {
	o.Reg.Gauge("ff_fleet_shards").Set(int64(len(stats)))
	for _, s := range stats {
		o.Reg.ShardGauge(s.Shard, "nodes").Set(int64(s.Nodes))
		o.Reg.ShardGauge(s.Shard, "sessions").Set(int64(s.Sessions))
		o.Reg.Describe(fmt.Sprintf("ff_fleet_shard_%d_ledger_uploads", s.Shard),
			"deduplicated uploads in the ledgers of the nodes the shard owns, those delivered before a re-home included")
		o.Reg.ShardGauge(s.Shard, "ledger_uploads").Set(int64(s.Uploads))
		o.Reg.Describe(fmt.Sprintf("ff_fleet_shard_%d_ledger_bits", s.Shard),
			"coded bits of the uploads counted by ledger_uploads")
		o.Reg.ShardGauge(s.Shard, "ledger_bits").Set(s.UploadBits)
		o.Reg.ShardGauge(s.Shard, "hb_gap_p95_ns").Set(s.HeartbeatGap.Quantile(0.95))
		o.Reg.ShardGauge(s.Shard, "snapshots").Set(int64(s.Snapshots))
		o.Reg.ShardGauge(s.Shard, "snapshot_bytes").Set(s.SnapshotBytes)
		for _, q := range []float64{0.50, 0.99} {
			name := fmt.Sprintf("ff_ctrl_shard_%d_heartbeat_p%.0f_ns", s.Shard, q*100)
			o.Reg.Describe(name, "time the shard took to handle a heartbeat, from reading the record to the end of its drift evaluation")
			o.Reg.Gauge(name).Set(s.HeartbeatHandling.Quantile(q))
			name = fmt.Sprintf("ff_ctrl_shard_%d_wal_append_p%.0f_ns", s.Shard, q*100)
			o.Reg.Describe(name, "time a committed record took to append to the shard's wal, its fsync included under -wal-sync")
			o.Reg.Gauge(name).Set(s.WALAppend.Quantile(q))
		}
	}
}

// splitStream splits a "stream/mc" upload name into its parts; the
// stream is empty when the name carries no prefix.
func splitStream(mcName string) (stream, mc string) {
	for i := 0; i < len(mcName); i++ {
		if mcName[i] == '/' {
			return mcName[:i], mcName[i+1:]
		}
	}
	return "", mcName
}
