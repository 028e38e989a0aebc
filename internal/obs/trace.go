package obs

import (
	"encoding/json"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Stage identifies which pipeline phase a span covers.
type Stage uint8

// Pipeline stages, in rough frame order. StageFrame is the whole
// ProcessFrame envelope; the rest are its phases plus the async paths
// (archive disk append, fleet upload send, demand fetch).
const (
	StageFrame Stage = iota
	StageQueueWait
	StageDecode
	StageArchiveEncode
	StageExtract
	StageMCPush
	StageEncode
	StageArchiveAppend
	StageUpload
	StageFetch
	numStages
)

var stageNames = [numStages]string{
	"frame", "queue_wait", "decode", "archive_encode", "extract",
	"mc_push", "encode", "archive_append", "upload", "fetch",
}

// String returns the stage's snake_case name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one fixed-size pipeline trace record. No pointers, no
// strings: recording a span never allocates, and the ring's memory is
// bounded at construction.
type Span struct {
	// Stage is the pipeline phase.
	Stage Stage
	// Stream is the interned stream ID (see Tracer.StreamID).
	Stream uint32
	// Frame is the stream frame index the span applies to.
	Frame int64
	// Start is ns since the tracer's epoch.
	Start int64
	// Dur is the span length in ns.
	Dur int64
}

// Tracer records pipeline spans into a fixed-size ring buffer. Record
// is mutex-guarded (a single uncontended lock, no allocation) and safe
// for concurrent writers; Snapshot and writeTraceJSON may run while
// recording continues. An optional slow-frame trigger logs the full
// span chain of any frame whose envelope exceeds a threshold.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	buf     []Span
	next    uint64 // spans recorded since construction
	streams []string
	ids     map[string]uint32

	slowNs  int64
	slowLog *slog.Logger
}

// traceCapacity is the ring size of an Observer's tracer — enough for
// a few hundred frames of a full pipeline.
const traceCapacity = 4096

// NewTracer constructs a tracer with a fixed, positive ring capacity.
func NewTracer(capacity int) *Tracer {
	return &Tracer{
		epoch: time.Now(),
		buf:   make([]Span, capacity),
		ids:   make(map[string]uint32),
	}
}

// setSlowFrame arms the slow-frame trigger: any StageFrame span with
// duration at or above threshold has its full span chain logged to
// log. A zero threshold (or nil logger) disables the trigger. Not
// concurrency-safe with recording; configure before the pipeline runs.
func (t *Tracer) setSlowFrame(threshold time.Duration, log *slog.Logger) {
	t.slowNs = int64(threshold)
	t.slowLog = log
}

// StreamID interns a stream name and returns its compact ID. Intern
// at setup time; Record then carries the uint32, keeping the hot path
// free of strings.
func (t *Tracer) StreamID(name string) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id := uint32(len(t.streams))
	t.streams = append(t.streams, name)
	t.ids[name] = id
	return id
}

// StreamName resolves an interned stream ID, "" when unknown.
func (t *Tracer) StreamName(id uint32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if int(id) < len(t.streams) {
		return t.streams[id]
	}
	return ""
}

// Record appends one span to the ring, overwriting the oldest when
// full. Allocation-free.
func (t *Tracer) Record(stage Stage, stream uint32, frame int64, start time.Time, dur time.Duration) {
	t.mu.Lock()
	t.buf[t.next%uint64(len(t.buf))] = Span{
		Stage:  stage,
		Stream: stream,
		Frame:  frame,
		Start:  start.Sub(t.epoch).Nanoseconds(),
		Dur:    int64(dur),
	}
	t.next++
	t.mu.Unlock()
}

// RecordFrame records a frame's StageFrame envelope span and fires
// the slow-frame trigger when armed. The trigger path allocates (it
// collects and logs the chain); the normal path does not.
func (t *Tracer) RecordFrame(stream uint32, frame int64, start time.Time, dur time.Duration) {
	t.Record(StageFrame, stream, frame, start, dur)
	if t.slowNs > 0 && int64(dur) >= t.slowNs && t.slowLog != nil {
		t.logSlow(stream, frame, dur)
	}
}

// Recorded returns the total spans recorded since construction
// (including any that have been overwritten).
func (t *Tracer) Recorded() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Snapshot copies the ring's live spans, oldest first.
func (t *Tracer) Snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.snapshotLocked()
}

func (t *Tracer) snapshotLocked() []Span {
	capa := uint64(len(t.buf))
	n := t.next
	if n > capa {
		n = capa
	}
	out := make([]Span, 0, n)
	start := t.next - n
	for i := uint64(0); i < n; i++ {
		out = append(out, t.buf[(start+i)%capa])
	}
	return out
}

// logSlow logs the span chain of one slow frame.
func (t *Tracer) logSlow(stream uint32, frame int64, dur time.Duration) {
	t.mu.Lock()
	var chain []Span
	for _, sp := range t.snapshotLocked() {
		if sp.Stream == stream && sp.Frame == frame && sp.Stage != StageFrame {
			chain = append(chain, sp)
		}
	}
	t.mu.Unlock()
	sort.Slice(chain, func(i, j int) bool { return chain[i].Start < chain[j].Start })
	attrs := make([]any, 0, 6+2*len(chain))
	attrs = append(attrs, "stream", t.StreamName(stream), "frame", frame, "dur", dur)
	for _, sp := range chain {
		attrs = append(attrs, sp.Stage.String(), time.Duration(sp.Dur))
	}
	t.slowLog.Warn("slow frame", attrs...)
}

// traceEvent is one Chrome trace_event record (the Perfetto/about:
// tracing JSON schema). Complete ("X") events carry microsecond
// timestamps and durations.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  uint32         `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeTraceJSON dumps the ring as Chrome trace_event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each stream is a
// named thread; spans are complete events with the frame index in
// args. Safe to call while recording continues.
func (t *Tracer) writeTraceJSON(w io.Writer) error {
	spans := t.Snapshot()
	t.mu.Lock()
	streams := append([]string(nil), t.streams...)
	t.mu.Unlock()

	events := make([]traceEvent, 0, len(spans)+len(streams)+1)
	events = append(events, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "filterforward"},
	})
	for id, name := range streams {
		events = append(events, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: uint32(id),
			Args: map[string]any{"name": "stream:" + name},
		})
	}
	for _, sp := range spans {
		events = append(events, traceEvent{
			Name: sp.Stage.String(), Ph: "X", Pid: 1, Tid: sp.Stream,
			Ts:  float64(sp.Start) / 1e3,
			Dur: float64(sp.Dur) / 1e3,
			Args: map[string]any{
				"frame": sp.Frame,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}
