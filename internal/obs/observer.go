package obs

import (
	"log/slog"
	"time"
)

// Options parameterizes an Observer.
type Options struct {
	// SlowFrame arms the slow-frame trigger: frames whose envelope
	// exceeds it have their span chains logged. Zero disables.
	SlowFrame time.Duration
	// Log receives slow-frame chains and is the Observer's structured
	// logger (default slog.Default()).
	Log *slog.Logger
}

// Observer bundles one node's observability surface: the metric
// registry, the span tracer, the structured logger, and direct
// handles onto the pipeline's latency histograms so hot paths skip
// the registry lookup. A nil *Observer disables instrumentation
// everywhere it is threaded.
type Observer struct {
	Reg   *Registry
	Trace *Tracer
	Log   *slog.Logger

	// Frames counts processed frames across streams.
	Frames *Counter

	// Per-stage latency histograms, all in ns. Frame is the whole
	// ProcessFrame envelope; QueueWait is scheduler mailbox time;
	// ArchiveEncode is the ingest path's codec-model encode;
	// ArchiveAppend is the persistent store's disk write; Upload is
	// the wire send of one upload record; UploadRTT is send-to-ack.
	Frame, QueueWait, Decode, Extract, MCPush, Encode *Histogram
	ArchiveEncode, ArchiveAppend, Upload, UploadRTT   *Histogram
	Fetch                                             *Histogram

	// Scores is the node-level aggregate of every deployed MC's score
	// sketch — the semantic twin of the latency histograms. It shows
	// up on /metrics as the ff_mc_scores histogram; per-MC sketches
	// additionally ride heartbeats to the fleet controller.
	Scores *ScoreSketch
}

// NewObserver constructs an observer with its registry, tracer, and
// pipeline histograms wired up.
func NewObserver(opts Options) *Observer {
	log := opts.Log
	if log == nil {
		log = slog.Default()
	}
	o := &Observer{
		Reg:   newRegistry(),
		Trace: NewTracer(traceCapacity),
		Log:   log,
	}
	o.Trace.setSlowFrame(opts.SlowFrame, log)
	instrument := func(name, help string) {
		o.Reg.Describe(name, help)
	}
	instrument("ff_frames_total", "Frames processed across all streams.")
	o.Frames = o.Reg.counter("ff_frames_total")
	instrument("ff_frame_ns", "Whole ProcessFrame envelope latency in nanoseconds.")
	o.Frame = o.Reg.histogram("ff_frame_ns")
	instrument("ff_queue_wait_ns", "Scheduler mailbox wait before a frame is served, in nanoseconds.")
	o.QueueWait = o.Reg.histogram("ff_queue_wait_ns")
	instrument("ff_decode_ns", "Frame decode latency in nanoseconds.")
	o.Decode = o.Reg.histogram("ff_decode_ns")
	instrument("ff_extract_ns", "Base-DNN feature extraction latency in nanoseconds.")
	o.Extract = o.Reg.histogram("ff_extract_ns")
	instrument("ff_mc_push_ns", "Microclassifier push latency in nanoseconds.")
	o.MCPush = o.Reg.histogram("ff_mc_push_ns")
	instrument("ff_encode_ns", "Event-segment encode latency in nanoseconds.")
	o.Encode = o.Reg.histogram("ff_encode_ns")
	instrument("ff_archive_encode_ns", "Continuous-archive codec-model encode latency in nanoseconds.")
	o.ArchiveEncode = o.Reg.histogram("ff_archive_encode_ns")
	instrument("ff_archive_append_ns", "Continuous-archive disk append latency in nanoseconds.")
	o.ArchiveAppend = o.Reg.histogram("ff_archive_append_ns")
	instrument("ff_upload_send_ns", "Wire send latency of one upload record in nanoseconds.")
	o.Upload = o.Reg.histogram("ff_upload_send_ns")
	instrument("ff_upload_rtt_ns", "Upload send-to-ack round trip in nanoseconds.")
	o.UploadRTT = o.Reg.histogram("ff_upload_rtt_ns")
	instrument("ff_fetch_ns", "Demand-fetch service latency in nanoseconds.")
	o.Fetch = o.Reg.histogram("ff_fetch_ns")
	instrument("ff_mc_scores", "Microclassifier score distribution across all deployed MCs on this node.")
	o.Scores = o.Reg.sketch("ff_mc_scores")
	return o
}
