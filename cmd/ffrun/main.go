// Command ffrun runs the FilterForward edge pipeline end to end on a
// synthetic camera stream: it deploys a microclassifier (trained by
// fftrain), processes the test day, and reports uploads, bandwidth,
// and event F1 against ground truth. With -connect it runs as a fleet
// agent: uploads stream to an ffserve controller, which can also
// deploy additional MCs to the node and demand-fetch archived context
// (the dataset doubles as the node's local archive).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/mobilenet"
	"repro/internal/obs"
	"repro/internal/pretrain"
	"repro/internal/tensor"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the stream
// writing its report to stdout and its log to stderr, and returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dsName    = fs.String("dataset", "roadway", "jackson|roadway")
		width     = fs.Int("width", 96, "working-scale frame width")
		frames    = fs.Int("frames", 1200, "stream length")
		seed      = fs.Int64("seed", 2, "stream seed (2 = the test day)")
		bdrift    = fs.Float64("brightness-drift", -1, "override the dataset's sinusoidal lighting-drift amplitude (-1 keeps the dataset default; e.g. 0.7 induces a strong day-night shift for drift-detection smokes)")
		weights   = fs.String("weights", "", "MC weights from fftrain (required unless the controller deploys one)")
		threshold = fs.Float64("threshold", 0.5, "decision threshold from fftrain")
		bitrate   = fs.Float64("bitrate", 60_000, "upload re-encode bitrate (b/s)")
		uplink    = fs.Float64("uplink", 0, "uplink capacity in b/s (0 = unmodelled)")
		connect   = fs.String("connect", "", "optional ffserve address to join as a fleet agent")
		nodeName  = fs.String("node", "edge", "node name announced to the controller")
		stream    = fs.String("stream", "cam0", "stream name announced to the controller")

		archiveDir     = fs.String("archive-dir", "", "archive the full original stream to per-stream segment files under this directory; demand-fetch then serves from disk")
		archiveBudget  = fs.Int64("archive-budget", 0, "archive byte budget (0 = unbounded; oldest segments evicted first)")
		archiveBitrate = fs.Float64("archive-bitrate", 0, "codec-model bitrate accounted for the continuous archive (b/s; default 4x -bitrate)")

		debugAddr = fs.String("debug-addr", "", "serve /metrics, /debug/trace.json, and /debug/pprof on this address (empty disables)")
		logJSON   = fs.Bool("log-json", false, "emit structured logs as JSON lines")
		slowFrame = fs.Duration("slow-frame", 0, "log the full span chain of frames slower than this (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	log := obs.NewLogger(stderr, *logJSON, slog.LevelInfo)
	if *weights == "" && *connect == "" {
		log.Error("ffrun: -weights is required (train one with fftrain), unless -connect lets the controller deploy one")
		return 1
	}

	var cfg dataset.Config
	switch *dsName {
	case "jackson":
		cfg = dataset.Jackson(*width, *frames, *seed)
	case "roadway":
		cfg = dataset.Roadway(*width, *frames, *seed)
	default:
		log.Error("ffrun: unknown dataset", "dataset", *dsName)
		return 1
	}
	if *bdrift >= 0 {
		cfg.BrightnessDrift = float32(*bdrift)
	}
	if *archiveDir != "" && cfg.Width*cfg.Height > archive.MaxFramePixels {
		log.Error("ffrun: frames too large to archive", "size", fmt.Sprintf("%dx%d", cfg.Width, cfg.Height), "max_pixels", archive.MaxFramePixels)
		return 1
	}
	d := dataset.Generate(cfg)
	log.Info("ffrun: starting", "dataset", *dsName, "frames", cfg.Frames,
		"size", fmt.Sprintf("%dx%d", cfg.Width, cfg.Height), "kernel", tensor.Kernel())

	// The base DNN must match fftrain's (same seed derivation).
	base := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 1 + 100})
	if _, err := pretrain.Run(base, pretrain.Config{Seed: 1 + 101}); err != nil {
		log.Error("ffrun: pretrain failed", "err", err)
		return 1
	}

	// Observability is always on: the instrumentation is alloc-free on
	// the hot path, and the observer doubles as the slow-frame trigger
	// and the -debug-addr data source.
	observer := obs.NewObserver(obs.Options{SlowFrame: *slowFrame, Log: log})
	if *debugAddr != "" {
		dbg, err := obs.ServeDebug(*debugAddr, observer)
		if err != nil {
			log.Error("ffrun: debug server failed", "err", err)
			return 1
		}
		defer dbg.Close()
		log.Info("ffrun: debug server listening",
			"addr", dbg.Addr, "endpoints", "/metrics /debug/trace.json /debug/pprof/")
	}

	// The edge pipeline runs inside a fleet agent; without -connect it
	// stays offline and behaves exactly like the local pipeline.
	agent, err := fleet.NewAgent(fleet.AgentConfig{
		Node: *nodeName,
		Edge: core.Config{
			FrameWidth: cfg.Width, FrameHeight: cfg.Height, FPS: cfg.FPS,
			Base: base, UploadBitrate: *bitrate, UplinkBandwidth: *uplink,
			ArchiveToDisk: *archiveDir != "", ArchiveBitrate: *archiveBitrate,
			Obs: observer,
		},
		ArchiveDir:    *archiveDir,
		ArchiveBudget: *archiveBudget,
	})
	if err != nil {
		log.Error("ffrun: agent setup failed", "err", err)
		return 1
	}
	// The dataset is also the node's local archive for demand-fetch.
	edge, err := agent.AddStream(*stream, cfg.Width, cfg.Height, d)
	if err != nil {
		log.Error("ffrun: add stream failed", "stream", *stream, "err", err)
		return 1
	}

	var mcName string
	if *weights != "" {
		mc, err := filter.LoadMCFile(*weights, base, cfg.Width, cfg.Height)
		if err != nil {
			log.Error("ffrun: load weights failed", "weights", *weights, "err", err)
			return 1
		}
		if err := edge.Deploy(mc, float32(*threshold)); err != nil {
			log.Error("ffrun: deploy failed", "mc", mc.Spec().Name, "err", err)
			return 1
		}
		mcName = mc.Spec().Name
	}

	// Closing the agent also drains and fsyncs the on-disk archive, so
	// it runs in offline mode too (it is a no-op on the network side
	// when never connected). Stats print before the deferred close;
	// ArchiveStats barriers on the archive writer itself.
	defer agent.Close()

	if *connect != "" {
		if err := agent.Connect("tcp", *connect); err != nil {
			log.Error("ffrun: connect failed", "addr", *connect, "err", err)
			return 1
		}
		log.Info("ffrun: connected", "addr", *connect, "node", *nodeName, "session", agent.SessionID())
	}

	// With no local weights, the controller must deploy an MC (ffserve
	// -deploy) before the stream can start.
	if mcName == "" {
		log.Info("ffrun: waiting for the controller to deploy a microclassifier")
		// A session lost meanwhile resumes on its own, and the
		// controller re-deploys from intent.
		for len(agent.DeployedMCs(*stream)) == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		mcName = agent.DeployedMCs(*stream)[0]
		log.Info("ffrun: controller deployed", "mc", mcName)
	}

	dc := core.NewDatacenter()
	for i := 0; i < cfg.Frames; i++ {
		ups, err := agent.ProcessFrame(*stream, d.Frame(i))
		if err != nil {
			log.Error("ffrun: process frame failed", "frame", i, "err", err)
			return 1
		}
		for _, u := range ups {
			fmt.Fprintf(stdout, "upload: mc=%s event=%d frames=[%d,%d) bits=%d final=%v\n",
				u.MCName, u.EventID, u.Start, u.End, u.Bits, u.Final)
		}
		dc.ReceiveAll(ups)
	}
	ups, err := agent.Flush()
	if err != nil {
		log.Error("ffrun: flush failed", "err", err)
		return 1
	}
	dc.ReceiveAll(ups)

	// Give in-flight acks a moment to land so the resilience line
	// reports steady state, not the race with the last upload.
	for end := time.Now().Add(2 * time.Second); ; {
		if p, _ := agent.PendingUploads(); p == 0 || time.Now().After(end) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if pending, dropped := agent.PendingUploads(); agent.Reconnects() > 0 || dropped > 0 || pending > 0 {
		fmt.Fprintf(stdout, "fleet resilience   %d reconnects (last shard %d), %d uploads awaiting ack, %d dropped by buffer cap\n",
			agent.Reconnects(), agent.Shard(), pending, dropped)
	}

	if vers := agent.MCVersions(*stream); len(vers) > 0 {
		names := make([]string, 0, len(vers))
		for name := range vers {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stdout, "deployed model     %s v%d\n", name, vers[name])
		}
	}

	st := agent.Stats()
	fmt.Fprintf(stdout, "\nframes processed   %d\n", st.Frames)
	fmt.Fprintf(stdout, "uploads            %d (%d frames, %d bits)\n", st.Uploads, st.UploadedFrames, st.UploadedBits)
	fmt.Fprintf(stdout, "average uplink     %.1f kb/s\n", st.AverageUploadBitrate(cfg.FPS)/1000)
	if s := observer.Frame.Snapshot(); s.Count > 0 {
		fmt.Fprintf(stdout, "frame latency      p50 %s, p95 %s, p99 %s, max %s\n",
			time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.95)), time.Duration(s.Quantile(0.99)), time.Duration(s.Max))
	}
	if s := observer.Extract.Snapshot(); s.Count > 0 {
		fmt.Fprintf(stdout, "extract latency    p50 %s, p95 %s, p99 %s\n",
			time.Duration(s.Quantile(0.50)), time.Duration(s.Quantile(0.95)), time.Duration(s.Quantile(0.99)))
	}
	if ast, ok := agent.ArchiveStats(*stream); ok {
		fmt.Fprintf(stdout, "archive            %d frames in %d segments, %.1f MB on disk (%d bits coded)\n",
			ast.Frames, ast.Segments, float64(ast.Bytes)/1e6, ast.ArchivedBits)
		if ast.EvictedSegments > 0 {
			fmt.Fprintf(stdout, "archive retention  %d segments evicted, %.1f MB reclaimed; oldest retained frame %d\n",
				ast.EvictedSegments, float64(ast.EvictedBytes)/1e6, ast.OldestFrame)
		}
		if st.DemandFetches > 0 {
			fmt.Fprintf(stdout, "demand fetches     %d (%d bits served from disk)\n", st.DemandFetches, st.DemandFetchBits)
		}
	}
	if mcName != "" {
		pred := dc.PredictedLabels(*stream+"/"+mcName, cfg.Frames)
		r := metrics.Evaluate(d.Labels, pred)
		fmt.Fprintf(stdout, "event precision    %.3f\n", r.Precision)
		fmt.Fprintf(stdout, "event recall       %.3f\n", r.Recall)
		fmt.Fprintf(stdout, "event F1           %.3f\n", r.F1)
	}
	return 0
}
