package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer. Spans nest
// through parent (an index into the tracer's list, -1 for a root) and
// spans of one frame or upload share id.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	id         int64
	lane       int
}

// tracer records spans in memory and writes them out when the run
// ends. A nil *tracer records nothing, so the untraced run pays one
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, id int64, lane int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, id: id, lane: lane})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[h].end = now
	t.mu.Unlock()
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part
// its child spans cover, and counts the spans.
func (t *tracer) selfTimes() (self map[string]time.Duration, n map[string]int) {
	self = make(map[string]time.Duration)
	n = make(map[string]int)
	if t == nil {
		return self, n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		self[s.name] += s.end - s.start - children[i]
		n[s.name]++
	}
	return self, n
}

// chromeEvent is one complete ("X") event of the Chrome trace format,
// which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as Chrome trace JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "span": i, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
