package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vision"
)

// Result is one processed frame's outcome, delivered to the
// scheduler's OnResult callback: serially and in submission order for
// any one stream, concurrently across streams.
type Result struct {
	// Stream names the source stream.
	Stream string
	// Frame is the stream-local frame index (0 for the stream's first
	// submitted frame).
	Frame int
	// Uploads carries any segments that became ready, MC names
	// prefixed "<stream>/".
	Uploads []Upload
	// Err is the pipeline error, if any. The stream keeps accepting
	// frames after an error; callers decide whether to stop.
	Err error
}

// SchedulerConfig parameterizes a Scheduler.
type SchedulerConfig struct {
	// Workers is the worker-pool size (default GOMAXPROCS). Workers
	// are shared across streams; one stream never occupies more than
	// one worker at a time, so per-stream execution stays in order.
	Workers int
	// OnResult, when set, receives every processed frame's outcome.
	// It is invoked from worker goroutines — do not call back into the
	// scheduler from it (Submit is fine; the blocking ops Do, Flush,
	// FlushAll, Wait, and Close are not).
	OnResult func(Result)
}

// schedItem is one unit of per-stream work: a frame, or a control op
// (deploy, undeploy, flush, fetch) that must serialize with frames.
type schedItem struct {
	img   *vision.Image
	frame int
	enq   time.Time // submission time, for the queue-wait span
	op    func(e *EdgeNode)
}

// streamQueue is one stream's FIFO mailbox. Items run strictly in
// submission order; `active` marks the queue as owned by a worker, so
// at most one worker drives a stream at any moment.
type streamQueue struct {
	name      string
	edge      *EdgeNode
	items     []schedItem
	submitted int // frames submitted so far: the next frame index
	active    bool
}

// Scheduler drives a MultiStreamNode's streams concurrently on a
// fixed worker pool — the paper's many-streams edge box (§3.2) run at
// hardware speed. Every stream's pipeline executes on at most one
// worker at a time and in submission order, so per-stream results
// (upload sequences, event IDs, bit accounting) are identical to
// running the node serially; only cross-stream interleaving differs.
//
// Single-owner execution is also what makes the inference fast path's
// workspace arenas sound: each EdgeNode owns a mobilenet.Extractor
// (and each deployed MC its own program workspace), reused frame to
// frame without allocation, and the scheduler's per-stream hand-off
// (its mutex) provides the happens-before edge when a stream migrates
// between workers.
//
// While a scheduler is running, drive its streams only through the
// scheduler: direct calls to an EdgeNode's ProcessFrame, Deploy or
// Flush would race with the workers. The node takes no new streams
// once it has had a scheduler. Observer methods
// (MultiStreamNode.Stats, EdgeNode.Stats/MCNames) remain safe at
// any time.
type Scheduler struct {
	node *MultiStreamNode
	cfg  SchedulerConfig

	mu      sync.Mutex
	cond    *sync.Cond // signals work available or shutdown
	idle    *sync.Cond // signals pending == 0
	queues  map[string]*streamQueue
	runq    []*streamQueue // streams with items, not currently owned
	pending int            // submitted items not yet completed
	closed  bool

	wg sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// NewScheduler starts a worker pool over the node's streams, after
// which the node takes no new ones. Close it to release the workers.
func (m *MultiStreamNode) NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	m.scheduled = true
	s := &Scheduler{node: m, cfg: cfg, queues: make(map[string]*streamQueue, len(m.order))}
	s.cond = sync.NewCond(&s.mu)
	s.idle = sync.NewCond(&s.mu)
	for _, name := range m.order {
		s.queues[name] = &streamQueue{name: name, edge: m.streams[name]}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// ErrSchedulerClosed is what every entry point of a closed scheduler
// returns.
var ErrSchedulerClosed = errors.New("core: scheduler closed")

// Submit enqueues one frame of the named stream and returns without
// waiting for it to be processed. Frames of a stream are processed in
// submission order; the outcome reaches OnResult.
func (s *Scheduler) Submit(stream string, img *vision.Image) error {
	q, err := s.queue(stream)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	s.push(q, schedItem{img: img, frame: q.submitted, enq: time.Now()})
	q.submitted++
	s.mu.Unlock()
	return nil
}

// Do runs fn on the named stream's pipeline, serialized with that
// stream's in-flight frames (fn runs after everything submitted
// before it, before anything submitted after). It blocks until fn
// returns, and returns fn's uploads with MC names prefixed
// "<stream>/", as Result.Uploads carries them. This is the
// live-control path: deploys, undeploys, flushes and demand fetches
// interleave with a running stream race-free.
func (s *Scheduler) Do(stream string, fn func(e *EdgeNode) ([]Upload, error)) ([]Upload, error) {
	q, err := s.queue(stream)
	if err != nil {
		return nil, err
	}
	var ups []Upload
	done := make(chan error, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSchedulerClosed
	}
	s.push(q, schedItem{op: func(e *EdgeNode) {
		var err error
		ups, err = fn(e)
		done <- err
	}})
	s.mu.Unlock()
	if err := <-done; err != nil {
		return nil, err
	}
	return prefixUploads(stream, ups), nil
}

// Flush drains the named stream's pipeline tail after its in-flight
// frames, returning the final uploads with stream-prefixed MC names.
func (s *Scheduler) Flush(stream string) ([]Upload, error) {
	return s.Do(stream, (*EdgeNode).Flush)
}

// FlushAll drains every stream in registration order.
func (s *Scheduler) FlushAll() ([]Upload, error) {
	var all []Upload
	for _, name := range s.node.streamNames() {
		ups, err := s.Flush(name)
		if err != nil {
			return nil, err
		}
		all = append(all, ups...)
	}
	return all, nil
}

// Wait blocks until every item submitted so far has been processed.
func (s *Scheduler) Wait() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Err returns the first pipeline error any stream hit, nil if none.
func (s *Scheduler) Err() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.firstErr
}

// Close waits for in-flight work, stops the workers, and releases
// them. The scheduler accepts no submissions afterwards; the node can
// then be used directly again (or handed to a new scheduler).
func (s *Scheduler) Close() {
	s.Wait()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Scheduler) queue(stream string) (*streamQueue, error) {
	q, ok := s.queues[stream] // read-only map after construction
	if !ok {
		return nil, fmt.Errorf("core: unknown stream %q", stream)
	}
	return q, nil
}

// push appends an item to q and makes q runnable if no worker owns
// it. Callers hold s.mu.
func (s *Scheduler) push(q *streamQueue, it schedItem) {
	q.items = append(q.items, it)
	s.pending++
	if !q.active {
		q.active = true
		s.runq = append(s.runq, q)
		s.cond.Signal()
	}
}

// worker pops one runnable stream at a time, runs its oldest item,
// and requeues the stream if more work arrived meanwhile — FIFO
// across streams, so k busy streams share the pool fairly.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.runq) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.runq) == 0 && s.closed {
			s.mu.Unlock()
			return
		}
		q := s.runq[0]
		s.runq = s.runq[1:]
		it := q.items[0]
		q.items = q.items[1:]
		s.mu.Unlock()

		// q is owned by this worker until it is returned below, so
		// the stream's EdgeNode has a single goroutine driving it.
		if it.op != nil {
			it.op(q.edge)
		} else {
			if o := q.edge.obs; o != nil {
				wait := time.Since(it.enq)
				o.QueueWait.Observe(wait)
				o.Trace.Record(obs.StageQueueWait, q.edge.sid, int64(it.frame), it.enq, wait)
			}
			ups, err := q.edge.ProcessFrame(it.img)
			if err != nil {
				s.recordErr(fmt.Errorf("core: stream %q frame %d: %w", q.name, it.frame, err))
			}
			if s.cfg.OnResult != nil {
				s.cfg.OnResult(Result{Stream: q.name, Frame: it.frame, Uploads: prefixUploads(q.name, ups), Err: err})
			}
		}

		s.mu.Lock()
		if len(q.items) > 0 {
			s.runq = append(s.runq, q)
			s.cond.Signal()
		} else {
			q.active = false
		}
		s.pending--
		if s.pending == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

func (s *Scheduler) recordErr(err error) {
	s.errMu.Lock()
	if s.firstErr == nil {
		s.firstErr = err
	}
	s.errMu.Unlock()
}

// prefixUploads rewrites MC names to "<stream>/<mc>", the naming every
// scheduler result carries.
func prefixUploads(stream string, ups []Upload) []Upload {
	for i := range ups {
		ups[i].MCName = stream + "/" + ups[i].MCName
	}
	return ups
}
