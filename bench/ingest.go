package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/synthedge"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/transport"
)

const (
	ingestSessions = 2 // one per shard, one driver goroutine each
	ingestShards   = 2
	ingestWindow   = 8    // uploads in flight per session
	heartbeatEvery = 16   // uploads per heartbeat
	resendEvery    = 20   // every 20th upload is sent twice: 5 % duplicates
	rollupEvery    = 1000 // acks per fleet rollup read
)

// ingestRun is ctrl-ingest: the control plane alone. Two synthetic
// edge sessions, one per shard of a durable controller, each keep 8
// uploads in flight, send a heartbeat every 16 uploads, re-send 5 % of
// their uploads, and read the fleet rollup every 1000 acks. The run
// ends by crashing the controller and recovering it from its state
// directory.
type ingestRun struct {
	def  workloadDef
	seed int64
	// tmpRoot is where the run may create its directory; dir holds
	// the controller state.
	tmpRoot, dir string

	network *simnet.Network
	cfg     fleet.ControllerConfig
	ctrl    *fleet.Controller
	nodes   []string
	edges   []*synthedge.Edge
	hbs     []*synthedge.Heartbeats
	recs    [][]transport.UploadRecord
	sent    []int // per session: records sent so far

	mu        sync.Mutex
	rollupLat []time.Duration
}

// pickNodes finds one node name per shard.
func pickNodes(ctrl *fleet.Controller) ([]string, error) {
	nodes := make([]string, ingestShards)
	found := 0
	for i := 0; found < ingestShards && i < 1000; i++ {
		name := fmt.Sprintf("synth-%03d", i)
		if sh := ctrl.ShardOf(name); nodes[sh] == "" {
			nodes[sh] = name
			found++
		}
	}
	if found < ingestShards {
		return nil, errors.New("no node name hashes to every shard")
	}
	return nodes, nil
}

func (r *ingestRun) dial(i int, resume bool) (*synthedge.Edge, error) {
	conn, err := r.network.Dial(r.nodes[i], "dc")
	if err != nil {
		return nil, err
	}
	return synthedge.Handshake(conn, fleet.Hello{
		Node: r.nodes[i], Streams: synthedge.Streams(), Resume: resume,
		HeartbeatEvery: time.Second,
	}, ackWait)
}

// setup opens the controller, records one deployment of intent per
// node, connects both sessions and warms them up. perSession is how
// many uploads each session will send in total.
func (r *ingestRun) setup(perSession int) error {
	dir, err := os.MkdirTemp(r.tmpRoot, "ingest-")
	if err != nil {
		return err
	}
	r.dir = dir
	r.network = simnet.New(r.seed)
	ln, err := r.network.Listen("dc")
	if err != nil {
		return err
	}
	r.cfg = fleet.ControllerConfig{Timeout: 10 * time.Second, Shards: ingestShards, StateDir: filepath.Join(dir, "state")}
	if r.ctrl, _, err = fleet.OpenController(r.cfg); err != nil {
		return err
	}
	r.ctrl.Serve(ln)
	if r.nodes, err = pickNodes(r.ctrl); err != nil {
		return err
	}
	r.sent = make([]int, ingestSessions)
	for i, node := range r.nodes {
		art, err := synthedge.Artifact("mc0", r.seed+int64(i))
		if err != nil {
			return err
		}
		// The node is offline: the controller records the intent and
		// pushes it when the session opens.
		if err := r.ctrl.Deploy(node, "cam0", art, 0.5); !errors.Is(err, fleet.ErrDeferred) {
			return fmt.Errorf("deploy to offline %s: %v", node, err)
		}
		r.recs = append(r.recs, synthedge.Uploads(r.seed*10+int64(i), 1, perSession))
		r.hbs = append(r.hbs, synthedge.NewHeartbeats(r.seed*10+int64(i)))
	}
	for i := range r.nodes {
		e, err := r.dial(i, false)
		if err != nil {
			return err
		}
		r.edges = append(r.edges, e)
	}
	if _, err := r.pump(r.def.Warmup, 1, nil); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for i, e := range r.edges {
		if e.Deploys != 1 {
			return fmt.Errorf("session %d answered %d deploy requests during warm-up, want 1", i, e.Deploys)
		}
	}
	return nil
}

// ingestStats is what one pump measured.
type ingestStats struct {
	// phases holds, per session, the first-time uploads' write → ack
	// times in ack order and the throughput of the phase's parts.
	phases  []phase
	sends   int // upload records written, re-sends included
	dupAcks int
	failed  int
	notes   []string
	// traceOverhead and untraced (the samples timed with tracing off)
	// are set by a traced pump: see traceBlock.
	traceOverhead float64
	untraced      []time.Duration
}

// acked is how many first-time uploads were acked.
func (st *ingestStats) acked() int {
	n := 0
	for _, p := range st.phases {
		n += len(p.lat)
	}
	return n
}

// pump sends n more uploads on every session, each from its own
// goroutine, cutting each session's phase into nparts parts, and
// returns once every ack is in.
func (r *ingestRun) pump(n, nparts int, tr *tracer) (*ingestStats, error) {
	st := &ingestStats{phases: make([]phase, ingestSessions)}
	type result struct {
		sends, dupAcks int
		overhead       float64
		err            error
	}
	results := make([]result, ingestSessions)
	var wg sync.WaitGroup
	for si := 0; si < ingestSessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			e, recs := r.edges[si], r.recs[si]
			lat := make([]time.Duration, 0, n)
			res := &results[si]
			end := r.sent[si] + n
			acked := 0
			parts, meter := newSlicer(n, nparts, false), newOverheadMeter()
			defer func() { st.phases[si], res.overhead = phase{lat, 1, parts}, meter.share() }()
			for r.sent[si] < end || e.Pending() > 0 {
				tr := tr.in(acked)
				for e.InFlight() < ingestWindow && r.sent[si] < end {
					rec := recs[r.sent[si]]
					r.sent[si]++
					h := tr.begin("synthedge.SendUpload", -1, int64(rec.Seq), si)
					err := e.SendUpload(rec)
					tr.end(h)
					if err != nil {
						res.err = err
						return
					}
					res.sends++
					if r.sent[si]%resendEvery == 0 {
						if res.err = e.ResendUpload(rec); res.err != nil {
							return
						}
						res.sends++
					}
					if r.sent[si]%heartbeatEvery == 0 {
						h := tr.begin("synthedge.SendHeartbeat", -1, int64(rec.Seq), si)
						err := e.SendHeartbeat(r.hbs[si].Next())
						tr.end(h)
						if err != nil {
							res.err = err
							return
						}
					}
				}
				h := tr.begin("synthedge.ReadAck", -1, -1, si)
				a, err := e.ReadAck(ackWait)
				tr.end(h)
				if err != nil {
					res.err = err
					return
				}
				if a.Duplicate {
					res.dupAcks++
					continue
				}
				lat = append(lat, a.RTT)
				parts.tick()
				meter.tick(acked)
				if acked++; acked%rollupEvery == 0 {
					h := tr.begin("fleet.Controller.ShardLoads+metrics.MergeFleet", -1, int64(a.Seq), si)
					t0 := time.Now()
					rollup(r.ctrl)
					d := time.Since(t0)
					tr.end(h)
					r.mu.Lock()
					r.rollupLat = append(r.rollupLat, d)
					r.mu.Unlock()
				}
			}
		}(si)
	}
	wg.Wait()
	for si, res := range results {
		st.sends += res.sends
		st.dupAcks += res.dupAcks
		st.traceOverhead += res.overhead / ingestSessions
		st.untraced = append(st.untraced, untraced(st.phases[si].lat)...)
		if res.err != nil {
			// An upload not acked within the deadline, or a broken
			// session: everything still in flight failed.
			st.failed += n - len(st.phases[si].lat)
			st.notes = append(st.notes, fmt.Sprintf("session %d: %v", si, res.err))
		}
	}
	if len(st.notes) > 0 {
		return st, errors.New(st.notes[0])
	}
	return st, nil
}

// rollup reads the fleet summary the way the controller's status
// output does: per-shard loads, summarized, merged.
func rollup(ctrl *fleet.Controller) metrics.FleetSummary {
	loads := ctrl.ShardLoads()
	parts := make([]metrics.FleetSummary, len(loads))
	for i, l := range loads {
		parts[i] = metrics.SummarizeFleet(l)
	}
	return metrics.MergeFleet(parts)
}

// nodeLedger returns a node's controller-side uploads, sorted.
func nodeLedger(ctrl *fleet.Controller, node string) ([]core.Upload, error) {
	var ups []core.Upload
	err := ctrl.WithNodeDatacenter(node, func(dc *core.Datacenter) {
		for _, app := range dc.KnownApplications() {
			ups = append(ups, dc.Uploads(app)...)
		}
	})
	sortUploads(ups)
	return ups, err
}

// controlState is what must survive a controller crash.
type controlState struct {
	ledgers []string // per node: digest of the ledger
	counts  []int
	intent  []string // per node: deployed names, generation, artifact size
}

func (r *ingestRun) controlState(ctrl *fleet.Controller) (controlState, error) {
	var cs controlState
	for _, node := range r.nodes {
		ups, err := nodeLedger(ctrl, node)
		if err != nil {
			return cs, err
		}
		cs.ledgers = append(cs.ledgers, uploadDigest(ups))
		cs.counts = append(cs.counts, len(ups))
		deployed, gen := ctrl.Intent(node)
		art, _ := ctrl.IntentMCBytes(node, "cam0", "mc0")
		cs.intent = append(cs.intent, fmt.Sprintf("%v gen=%d artifact=%d", deployed, gen, len(art)))
	}
	return cs, nil
}

// ingestOutcome is what the crash/recovery epilogue measured.
type ingestOutcome struct {
	digest          string
	uploads         int // first-time uploads sent over both sessions
	stateBytes      int64
	replayed        int
	snapshotBytes   int64
	recoveryPerKRec float64
}

// crashAndRecover checks the ledgers, kills the controller, reopens it
// on the same state directory and checks that nothing moved: ledgers
// record for record, intent, and the dedup high-water mark (a re-sent
// last upload is acked but not counted; the next sequence number is
// accepted).
func (r *ingestRun) crashAndRecover(golden goldenSet) (ingestOutcome, []string) {
	var out ingestOutcome
	var bad []string
	before, err := r.controlState(r.ctrl)
	if err != nil {
		return out, []string{"ledger: " + err.Error()}
	}
	digest := ""
	for i := range r.nodes {
		if before.counts[i] != r.sent[i] {
			bad = append(bad, fmt.Sprintf("%s: ledger holds %d uploads, %d were sent once", r.nodes[i], before.counts[i], r.sent[i]))
		}
		want := make([]core.Upload, r.sent[i])
		for k, rec := range r.recs[i][:r.sent[i]] {
			want[k] = rec.ToUpload()
		}
		sortUploads(want)
		if uploadDigest(want) != before.ledgers[i] {
			bad = append(bad, r.nodes[i]+": ledger differs from the records sent")
		}
		digest += before.ledgers[i]
	}
	out.digest, out.uploads = digest, r.sent[0]+r.sent[1]
	if msg := golden.check(r.def.Name, r.seed, out.uploads, digest); msg != "" {
		bad = append(bad, msg)
	}

	r.ctrl.Crash()
	for _, e := range r.edges {
		e.Close()
	}
	out.stateBytes = dirSize(r.cfg.StateDir)
	ctrl, stats, err := fleet.OpenController(r.cfg)
	if err != nil {
		return out, append(bad, "recovery: "+err.Error())
	}
	r.ctrl = ctrl
	out.replayed = stats.RecordsReplayed
	out.snapshotBytes = stats.SnapshotBytes
	if stats.RecordsReplayed > 0 {
		out.recoveryPerKRec = float64(stats.Replay) / float64(time.Millisecond) / (float64(stats.RecordsReplayed) / 1000)
	}
	after, err := r.controlState(ctrl)
	if err != nil {
		return out, append(bad, "recovered ledger: "+err.Error())
	}
	for i, node := range r.nodes {
		if after.ledgers[i] != before.ledgers[i] || after.counts[i] != before.counts[i] {
			bad = append(bad, fmt.Sprintf("%s: recovered ledger holds %d uploads, %d before the crash", node, after.counts[i], before.counts[i]))
		}
		if after.intent[i] != before.intent[i] {
			bad = append(bad, fmt.Sprintf("%s: recovered intent %q, was %q", node, after.intent[i], before.intent[i]))
		}
	}

	ln, err := r.network.Listen("dc")
	if err != nil {
		return out, append(bad, "listen after recovery: "+err.Error())
	}
	ctrl.Serve(ln)
	for i, node := range r.nodes {
		e, err := r.dial(i, true)
		if err != nil {
			bad = append(bad, node+": resume: "+err.Error())
			continue
		}
		last := r.recs[i][r.sent[i]-1]
		next := last
		next.Seq++
		next.EventID += 1 << 20
		if err := errors.Join(e.SendUpload(last), e.SendUpload(next)); err != nil {
			bad = append(bad, node+": "+err.Error())
		}
		for k := 0; k < 2; k++ {
			if _, err := e.ReadAck(ackWait); err != nil {
				bad = append(bad, node+": ack after recovery: "+err.Error())
				break
			}
		}
		if ups, _ := nodeLedger(ctrl, node); len(ups) != before.counts[i]+1 {
			bad = append(bad, fmt.Sprintf("%s: high-water mark moved: ledger holds %d uploads after a re-send and one new upload, want %d", node, len(ups), before.counts[i]+1))
		}
		e.Bye()
	}
	return out, bad
}

// close shuts the controller down and removes the run's files,
// returning how long the durable Close took. A second call does
// nothing.
func (r *ingestRun) close() time.Duration {
	var d time.Duration
	for _, e := range r.edges {
		e.Close()
	}
	r.edges = nil
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

func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
