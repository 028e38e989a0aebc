package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/bench/synthedge"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/simnet"
	"repro/internal/transport"
)

const (
	heavyNode       = "edge-heavy"
	heavyClipFrames = 1200
	heavyShards     = 2
	// fetchEvery and fetchSpan: one demand fetch of a 48-frame range
	// every 200 rounds, so archive reads run beside appends.
	fetchEvery = 200
	fetchSpan  = 48
	// fetchLag keeps the fetched range behind the ingest point but
	// inside the archive's retention budget.
	fetchLag = 120
	// uploadBitrate and uplinkBandwidth are the working-scale stand-ins
	// for the paper's 250 kb/s segments on a constrained uplink.
	uploadBitrate   = 60_000
	uplinkBandwidth = 50_000
	// archiveBudget bounds each stream's on-disk archive (a frame is
	// 45 KB raw), so retention runs during the measurement.
	archiveBudget = 32 << 20
	ackWait       = 5 * time.Second
)

var heavyStreams = []string{"cam0", "cam1"}

// heavyRun is edge-event-heavy: a fleet.Agent with two streams on the
// concurrent scheduler, trained MCs, archive to disk, a modelled
// uplink, and uploads shipped over an in-process network to a durable
// two-shard controller. One driver goroutine feeds the streams in
// lockstep rounds (one frame each, then wait for both), a second one
// issues the demand fetches.
type heavyRun struct {
	def  workloadDef
	seed int64
	// tmpRoot is where the run may create its directory; dir holds
	// the controller state and the archives.
	tmpRoot, dir string
	man          *manifest

	base    *mobilenet.Model
	clips   []*clip
	network *simnet.Network
	ctrl    *fleet.Controller
	agent   *fleet.Agent
	round   int // next per-stream frame index

	mu        sync.Mutex
	submitAt  [][]time.Time // [stream][frame] submit time
	measuring bool
	ledgerLat []time.Duration
	received  int

	fetchLat  []time.Duration
	fetchErrs []string
	pendMax   int
}

func (r *heavyRun) edgeConfig() core.Config {
	c := r.clips[0].cfg
	return core.Config{
		FrameWidth: c.Width, FrameHeight: c.Height, FPS: c.FPS, Base: r.base,
		UploadBitrate: uploadBitrate, UplinkBandwidth: uplinkBandwidth,
		ArchiveToDisk: true, MCWorkers: 1,
	}
}

func streamIndex(name string) int {
	for i, s := range heavyStreams {
		if s == name {
			return i
		}
	}
	return -1
}

// onUpload runs on the controller's session reader after the upload is
// persisted and applied: event → durable ledger.
func (r *heavyRun) onUpload(_ *fleet.Session, up core.Upload) {
	now := time.Now()
	stream, _, _ := strings.Cut(up.MCName, "/")
	si := streamIndex(stream)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.received++
	last := up.End - 1
	if !r.measuring || si < 0 || last < r.def.Warmup || last >= len(r.submitAt[si]) {
		return
	}
	if at := r.submitAt[si][last]; !at.IsZero() {
		r.ledgerLat = append(r.ledgerLat, now.Sub(at))
	}
}

// setup renders both clips, starts controller and agent, deploys the
// trained fixtures over the wire and warms both streams up.
func (r *heavyRun) setup(maxRounds int) error {
	nn.Workers = 1 // the two scheduler workers already fill both cores
	r.base = newBase()
	r.clips = nil
	for i := range heavyStreams {
		r.clips = append(r.clips, heavyClip(heavyClipFrames, 2*r.seed+int64(i)))
	}
	r.submitAt = make([][]time.Time, len(heavyStreams))
	for i := range r.submitAt {
		r.submitAt[i] = make([]time.Time, maxRounds)
	}
	dir, err := os.MkdirTemp(r.tmpRoot, "heavy-")
	if err != nil {
		return err
	}
	r.dir = dir
	r.network = simnet.New(r.seed)
	ln, err := r.network.Listen("dc")
	if err != nil {
		return err
	}
	r.ctrl, _, err = fleet.OpenController(fleet.ControllerConfig{
		Timeout: 10 * time.Second, Shards: heavyShards,
		StateDir: filepath.Join(dir, "state"), OnUpload: r.onUpload,
	})
	if err != nil {
		return err
	}
	r.ctrl.Serve(ln)
	r.agent, err = fleet.NewAgent(fleet.AgentConfig{
		Node: heavyNode, Edge: r.edgeConfig(), Heartbeat: 200 * time.Millisecond,
		ArchiveDir: filepath.Join(dir, "archive"), ArchiveBudget: archiveBudget,
		Dial: func(_, addr string) (net.Conn, error) { return r.network.Dial(heavyNode, addr) },
	})
	if err != nil {
		return err
	}
	c := r.clips[0].cfg
	for _, s := range heavyStreams {
		if _, err := r.agent.AddStream(s, c.Width, c.Height, nil); err != nil {
			return err
		}
	}
	if err := r.agent.Connect("sim", "dc"); err != nil {
		return err
	}
	for _, f := range r.man.MCs {
		if err := r.ctrl.Deploy(heavyNode, f.Stream, f.data, f.Threshold); err != nil {
			return fmt.Errorf("deploy %s/%s: %w", f.Stream, f.Name, err)
		}
	}
	if err := r.agent.StartScheduler(len(heavyStreams)); err != nil {
		return err
	}
	for r.round = 0; r.round < r.def.Warmup; r.round++ {
		if err := r.submitRound(nil); err != nil {
			return fmt.Errorf("warm-up round %d: %w", r.round, err)
		}
	}
	return nil
}

// submitRound feeds frame r.round of every stream and waits for all of
// them: a closed loop with one frame per stream in flight.
func (r *heavyRun) submitRound(tr *tracer) error {
	now := time.Now()
	r.mu.Lock()
	for si := range heavyStreams {
		r.submitAt[si][r.round] = now
	}
	r.mu.Unlock()
	for si, s := range heavyStreams {
		h := tr.begin("fleet.Agent.Submit", -1, int64(r.round), si)
		err := r.agent.Submit(s, r.clips[si].frame(r.round))
		tr.end(h)
		if err != nil {
			return err
		}
	}
	h := tr.begin("fleet.Agent.Wait", -1, int64(r.round), 0)
	err := r.agent.Wait()
	tr.end(h)
	return err
}

// run times count frames (count/2 rounds). In a traced run it also
// returns, per round, the round's wall time minus the busier stream's
// stage time: what the scheduler and the wait for the other stream
// add.
func (r *heavyRun) run(count int, tr *tracer) (*timed, []time.Duration) {
	rounds := count / len(heavyStreams)
	t := &timed{ops: rounds * len(heavyStreams), lat: make([]time.Duration, rounds), stats0: r.agent.Stats()}
	schedWait := make([]time.Duration, 0, rounds)
	streams := make([]*core.EdgeNode, len(heavyStreams))
	for i, s := range heavyStreams {
		streams[i] = r.agent.Node().Stream(s)
	}
	busy := func() []time.Duration {
		out := make([]time.Duration, len(streams))
		for i, e := range streams {
			st := e.Stats()
			out[i] = st.DecodeTime + st.BaseDNNTime + st.MCTime + st.EncodeTime + st.ArchiveTime
		}
		return out
	}

	fetchCh := make(chan int, 4) // a fetch in flight plus a few queued: the driver rarely blocks on the fetcher
	var fetchWG sync.WaitGroup
	fetchWG.Add(1)
	go func() {
		defer fetchWG.Done()
		n := 0
		for at := range fetchCh {
			stream := heavyStreams[n%len(heavyStreams)]
			n++
			start := at - fetchLag
			h := tr.begin("fleet.Controller.FetchFrames", -1, int64(at), 2)
			t0 := time.Now()
			frames, _, err := r.ctrl.FetchFrames(heavyNode, stream, start, start+fetchSpan, uploadBitrate)
			d := time.Since(t0)
			tr.end(h)
			if err == nil && len(frames) != fetchSpan {
				err = fmt.Errorf("fetch returned %d frames, want %d", len(frames), fetchSpan)
			}
			r.mu.Lock()
			r.fetchLat = append(r.fetchLat, d)
			if err != nil {
				r.fetchErrs = append(r.fetchErrs, err.Error())
			}
			r.mu.Unlock()
		}
	}()

	r.mu.Lock()
	r.measuring = true
	r.mu.Unlock()
	parts, meter := newSlicer(t.ops, numParts, false), newOverheadMeter()
	for i := 0; i < rounds; i++ {
		var b0 []time.Duration
		if tr != nil {
			b0 = busy()
		}
		t0 := time.Now()
		err := r.submitRound(tr.in(i))
		t.lat[i] = time.Since(t0)
		if err != nil {
			t.failed += len(heavyStreams)
			t.notes = append(t.notes, err.Error())
		}
		if tr != nil {
			b1 := busy()
			var most time.Duration
			for k := range b1 {
				if d := b1[k] - b0[k]; d > most {
					most = d
				}
			}
			schedWait = append(schedWait, t.lat[i]-most)
		}
		if pending, _ := r.agent.PendingUploads(); pending > r.pendMax {
			r.pendMax = pending
		}
		r.round++
		if r.round%fetchEvery == 0 && r.round >= fetchLag {
			fetchCh <- r.round
		}
		for range heavyStreams {
			parts.tick()
		}
		meter.tick(i)
	}
	t.parts, t.traceOverhead = parts, meter.share()
	close(fetchCh)
	fetchWG.Wait()
	t.stats1 = r.agent.Stats()
	return t, schedWait
}

// heavyOutcome is what verify derives from the controller-side ledger.
type heavyOutcome struct {
	digest          string
	frames          int // frames processed over both streams
	bitsPerFrame    float64
	eventF1         float64
	eventsPerKFrame float64
	passRatio       float64
	uplinkDelayMax  float64
}

func sortUploads(ups []core.Upload) {
	sort.Slice(ups, func(i, j int) bool {
		a, b := ups[i], ups[j]
		if a.MCName != b.MCName {
			return a.MCName < b.MCName
		}
		if a.EventID != b.EventID {
			return a.EventID < b.EventID
		}
		return a.Start < b.Start
	})
}

// uploadDigest fingerprints an upload sequence: MC name, event ID,
// start, end, bits.
func uploadDigest(ups []core.Upload) string {
	h := sha256.New()
	for _, u := range ups {
		fmt.Fprintf(h, "%s %d %d %d %d\n", u.MCName, u.EventID, u.Start, u.End, u.Bits)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// verify drains the pipeline, waits for every upload to be acked, and
// checks the controller's ledger: exactly once against the edge's own
// counters, record for record against a sequential MCWorkers=1
// reference over the warm-up frames, and against the golden digest of
// the whole run when one is recorded.
func (r *heavyRun) verify(t *timed, golden goldenSet) (heavyOutcome, []string) {
	var out heavyOutcome
	var bad []string
	bad = append(bad, r.fetchErrs...)
	if _, err := r.agent.Flush(); err != nil {
		bad = append(bad, "flush: "+err.Error())
	}
	deadline := time.Now().Add(ackWait)
	for {
		pending, dropped := r.agent.PendingUploads()
		if pending == 0 && dropped == 0 {
			break
		}
		if dropped > 0 || time.Now().After(deadline) {
			bad = append(bad, fmt.Sprintf("%d uploads unacked after %v, %d dropped", pending, ackWait, dropped))
			t.failed += pending + dropped
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stats := r.agent.Stats()
	ups, err := nodeLedger(r.ctrl, heavyNode)
	if err != nil {
		return out, append(bad, "ledger: "+err.Error())
	}
	var bits int64
	coded := 0 // the edge's counters leave out the empty segment that closes an event on its first frame
	seen := make(map[string]bool, len(ups))
	events := make(map[string]bool)
	for _, u := range ups {
		bits += u.Bits
		if u.End > u.Start {
			coded++
		}
		key := fmt.Sprintf("%s %d %d", u.MCName, u.EventID, u.Start)
		if seen[key] {
			bad = append(bad, "ledger holds "+key+" twice")
			t.failed++
		}
		seen[key] = true
		events[fmt.Sprintf("%s %d", u.MCName, u.EventID)] = true
	}
	if coded != stats.Uploads || bits != stats.UploadedBits {
		bad = append(bad, fmt.Sprintf("ledger holds %d coded uploads / %d bits, the edge sent %d / %d", coded, bits, stats.Uploads, stats.UploadedBits))
		if d := stats.Uploads - coded; d > 0 {
			t.failed += d
		}
	}
	r.mu.Lock()
	if r.received != len(ups) {
		bad = append(bad, fmt.Sprintf("OnUpload fired %d times for %d ledger records", r.received, len(ups)))
	}
	r.mu.Unlock()
	if stats.Frames != r.round*len(heavyStreams) {
		bad = append(bad, fmt.Sprintf("edge counted %d frames, %d were submitted", stats.Frames, r.round*len(heavyStreams)))
	}

	// Sequential reference over the warm-up frames. A segment that
	// ends a few frames before the cut has left both pipelines by then.
	cut := r.def.Warmup - 16
	var ref []core.Upload
	for si, s := range heavyStreams {
		node, err := core.NewEdgeNode(r.edgeConfig())
		if err != nil {
			return out, append(bad, "reference: "+err.Error())
		}
		for _, f := range r.man.MCs {
			if f.Stream != s {
				continue
			}
			mc, err := filter.LoadMC(bytes.NewReader(f.data), r.base, r.clips[si].cfg.Width, r.clips[si].cfg.Height)
			if err != nil {
				return out, append(bad, "reference: "+err.Error())
			}
			if err := node.Deploy(mc, f.Threshold); err != nil {
				return out, append(bad, "reference: "+err.Error())
			}
		}
		for i := 0; i < r.def.Warmup; i++ {
			got, err := node.ProcessFrame(r.clips[si].frame(i))
			if err != nil {
				return out, append(bad, "reference: "+err.Error())
			}
			for _, u := range got {
				if u.End <= cut {
					u.MCName = s + "/" + u.MCName
					ref = append(ref, u)
				}
			}
		}
	}
	sortUploads(ref)
	var head []core.Upload
	for _, u := range ups {
		if u.End <= cut {
			head = append(head, u)
		}
	}
	if uploadDigest(head) != uploadDigest(ref) {
		bad = append(bad, fmt.Sprintf("the first %d frames' uploads (%d) differ from the sequential reference's (%d)", cut, len(head), len(ref)))
	}

	out.digest, out.frames = uploadDigest(ups), stats.Frames
	if msg := golden.check(r.def.Name, r.seed, stats.Frames, out.digest); msg != "" {
		bad = append(bad, msg)
	}

	// Fig. 4: uplink bits per frame against event F1 of what reached
	// the datacenter.
	out.bitsPerFrame = float64(stats.UploadedBits) / float64(stats.Frames)
	out.uplinkDelayMax = stats.MaxUplinkDelay
	out.eventsPerKFrame = 1000 * float64(len(events)) / float64(stats.Frames)
	var f1 float64
	_ = r.ctrl.WithNodeDatacenter(heavyNode, func(dc *core.Datacenter) {
		for _, f := range r.man.MCs {
			si := streamIndex(f.Stream)
			pred := dc.PredictedLabels(f.Stream+"/"+f.Name, r.round)
			f1 += metrics.Evaluate(r.clips[si].truth(r.round), pred).F1
		}
	})
	out.eventF1 = f1 / float64(len(r.man.MCs))
	var count, passes uint64
	for _, s := range heavyStreams {
		for _, sk := range r.agent.Node().Stream(s).ScoreSketches() {
			count += sk.Count
			passes += sk.Passes
		}
	}
	if count > 0 {
		out.passRatio = float64(passes) / float64(count)
	}
	return out, bad
}

// replayShipper opens a second, synthetic edge session to the run's
// controller and returns a function that sends one upload over it and
// waits for the ack: the last leg of a frame's path, for the replay.
func (r *heavyRun) replayShipper() (func(core.Upload) error, error) {
	const node = "edge-replay"
	conn, err := r.network.Dial(node, "dc")
	if err != nil {
		return nil, err
	}
	e, err := synthedge.Handshake(conn, fleet.Hello{Node: node, Streams: synthedge.Streams()}, ackWait)
	if err != nil {
		return nil, err
	}
	seq := uint64(0)
	return func(up core.Upload) error {
		seq++
		rec := transport.ToRecord(up)
		rec.Seq = seq
		if err := e.SendUpload(rec); err != nil {
			return err
		}
		_, err := e.ReadAck(ackWait)
		return err
	}, nil
}

// close shuts agent and controller down and removes the run's files,
// returning how long the controller's Close (final snapshots) took.
// A second call does nothing.
func (r *heavyRun) close() time.Duration {
	var d time.Duration
	if r.agent != nil {
		r.agent.Close()
		r.agent = nil
	}
	if r.ctrl != nil {
		t0 := time.Now()
		r.ctrl.Close()
		d = time.Since(t0)
		r.ctrl = nil
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
		r.dir = ""
	}
	return d
}
