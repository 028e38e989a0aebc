package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/bench/layers"
	"repro/internal/filter"
	"repro/internal/obs"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	// scale shrinks the frozen count (the smoke run uses 1/50).
	scale float64
	trace bool
	// setups is how many times set-up runs; setup_s is their median.
	setups   int
	benchDir string
	// skipGolden is set while the golden digests are being recorded.
	skipGolden bool
}

// traceShare is the part of the work the traced run repeats.
const traceShare = 5

// replayCount is how many frames the layer-by-layer replay covers.
const replayCount = 300

// runOutput is what a run reports; the driver sees the four fields of
// the result line, the rest goes to standard error.
type runOutput struct {
	attempted, failed int
	bad               []string
	// digest fingerprints the run's outputs; goldenOps is the length
	// the golden digest for them is recorded under.
	digest    string
	goldenOps int
	metrics   map[string]float64
}

func (c runConfig) ops(def workloadDef) int {
	share := c.scale
	if c.trace {
		share /= traceShare
	}
	n := int(math.Round(def.OpsPerSecond * c.seconds * share))
	// A whole number of rounds on every workload, and enough samples
	// for a p99.
	if n < 200 {
		n = 200
	}
	return n - n%2
}

func (c runConfig) tmpRoot() (string, error) {
	dir := filepath.Join(filepath.Dir(c.benchDir), ".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// layersDir makes the directory the microbenches keep their files in.
func (c runConfig) layersDir() (string, error) {
	root, err := c.tmpRoot()
	if err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "layers-")
}

func (c runConfig) golden() (goldenSet, error) {
	if c.skipGolden {
		return goldenSet{}, nil
	}
	return loadGolden(c.benchDir)
}

func runWorkload(c runConfig) (*runOutput, error) {
	def, ok := workloadByName(c.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", c.workload, strings.Join(allWorkloads, ", "))
	}
	var out *runOutput
	var err error
	switch def.Name {
	case wlFewMC, wlManyMC:
		out, err = runFilter(c, def)
	case wlEventHeavy:
		out, err = runHeavy(c, def)
	case wlCtrlIngest:
		out, err = runIngest(c, def)
	}
	if err != nil {
		return nil, err
	}
	if c.trace {
		out.metrics["failed_share"] = float64(out.failed) / float64(out.attempted)
		for _, m := range perLayer {
			if _, ok := out.metrics[m.Name]; !ok {
				out.metrics[m.Name] = 0 // not measured on this workload
			}
		}
	}
	return out, nil
}

// phase is one driver goroutine's timed phase: its latency samples as
// measured, how many operations a sample covers, and the slicer that
// cut the phase into parts.
type phase struct {
	lat   []time.Duration
	per   int
	parts *slicer
}

// endToEndMetrics derives the five end-to-end numbers every workload
// reports. The three timings are those of the median part of the timed
// phase (see numParts), at reference CPU speed where the workload
// measures it (see speed.go): throughput is summed over the drivers,
// the latencies are the median over every driver's parts of the part's
// 50th and 90th percentile. setup_s is the median set-up.
func endToEndMetrics(phases []phase, setups []float64) map[string]float64 {
	var rate, rawRate float64
	var rawLat []time.Duration
	var speeds, p50s, p90s []float64
	for _, p := range phases {
		rate += median(p.parts.rates())
		rawRate += median(p.parts.raw)
		rawLat = append(rawLat, p.lat...)
		speeds = append(speeds, p.parts.speeds()...)
		for _, part := range p.parts.split(p.parts.atReference(p.lat, p.per), p.per) {
			ms := durationsMs(part)
			p50s = append(p50s, quantile(ms, 0.50))
			p90s = append(p90s, quantile(ms, 0.90))
		}
	}
	raw := durationsMs(rawLat)
	fmt.Fprintf(os.Stderr, "as measured: %.6g ops/s at CPU speed %.4f of reference; latency over %d samples: p50 %.4g  p90 %.4g  p95 %.4g  p99 %.4g  p99.9 %.4g  max %.4g ms\n",
		rawRate, median(speeds), len(raw), quantile(raw, 0.5), quantile(raw, 0.9), quantile(raw, 0.95), quantile(raw, 0.99), quantile(raw, 0.999), quantile(raw, 1))
	return map[string]float64{
		"ops_per_s":   rate,
		"op_ms_p50":   median(p50s),
		"op_ms_p90":   median(p90s),
		"peak_rss_mb": peakRSSMB(),
		"setup_s":     median(setups),
	}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// repeatSetup runs setup c.setups times, tearing all but the last one
// down again, and returns each set-up's duration in seconds: at
// reference CPU speed when atRef is set (see speed.go), as measured
// otherwise.
func repeatSetup(c runConfig, atRef bool, setup func() error, teardown func()) ([]float64, error) {
	var times []float64
	for i := 0; i < c.setups; i++ {
		if i > 0 {
			teardown()
			runtime.GC()
		}
		meter := newSlicer(1, 1, atRef)
		if err := setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		meter.tick()
		times = append(times, 1/meter.rates()[0])
	}
	return times, nil
}

// traceBlock is how many consecutive operations share a tracing mode
// in the traced run: it alternates blocks with and without spans, so
// tracing overhead is measured against interleaved untraced blocks of
// the same run rather than against an earlier run, which on this box
// differs by more than the overhead. Blocks are short so that both
// modes see the same mix of content, and of a length that shares no
// factor with the program's own periods (a heartbeat every 16 uploads,
// a fetch every 200 rounds, a compaction every 1024 records), which
// would otherwise always fall into blocks of one mode.
const traceBlock = 7

func tracedBlock(i int) bool { return (i/traceBlock)%2 == 1 }

// in returns t for operations in a traced block and nil otherwise.
func (t *tracer) in(i int) *tracer {
	if t == nil || !tracedBlock(i) {
		return nil
	}
	return t
}

// overheadMeter splits a traced run's wall time between its traced
// and untraced blocks.
type overheadMeter struct {
	last time.Time
	wall [2]time.Duration // untraced, traced
	ops  [2]int
}

func newOverheadMeter() *overheadMeter { return &overheadMeter{last: time.Now()} }

// tick records that operation i just finished.
func (m *overheadMeter) tick(i int) {
	mode := 0
	if tracedBlock(i) {
		mode = 1
	}
	m.ops[mode]++
	if (i+1)%traceBlock == 0 {
		now := time.Now()
		m.wall[mode] += now.Sub(m.last)
		m.last = now
	}
}

// skip leaves d, which the harness spent on a speed burst, out of the
// current block's time.
func (m *overheadMeter) skip(d time.Duration) { m.last = m.last.Add(d) }

// share is the throughput the traced blocks lose against the untraced
// ones.
func (m *overheadMeter) share() float64 {
	if m.wall[0] <= 0 || m.wall[1] <= 0 {
		return 0
	}
	// Only whole blocks were timed.
	plain := float64(m.ops[0]-m.ops[0]%traceBlock) / m.wall[0].Seconds()
	traced := float64(m.ops[1]-m.ops[1]%traceBlock) / m.wall[1].Seconds()
	return 1 - traced/plain
}

// untraced returns the samples of the operations a traced run timed
// with tracing off.
func untraced(lat []time.Duration) []time.Duration {
	var plain []time.Duration
	for i, d := range lat {
		if !tracedBlock(i) {
			plain = append(plain, d)
		}
	}
	return plain
}

// tails reports the plain 95th and 99th percentile of all samples.
func tails(m map[string]float64, lat []time.Duration) {
	ms := durationsMs(lat)
	m["op_ms_p95"] = quantile(ms, 0.95)
	m["op_ms_p99"] = quantile(ms, 0.99)
}

func mergeInto(dst map[string]float64, src layers.Metrics) {
	for k, v := range src {
		dst[k] = v
	}
}

// writeTrace stores the spans as a Chrome trace and lists each span
// name's mean self time on standard error.
func writeTrace(c runConfig, tr *tracer, out map[string]float64) error {
	out["bench.spans"] = float64(tr.count())
	self, n := tr.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "span %-52s %7d x %10.2f us self\n", name, n[name],
			float64(self[name])/float64(n[name])/float64(time.Microsecond))
	}
	return tr.write(filepath.Join(c.benchDir, "out", "trace-"+c.workload+".json"))
}

// runFilter runs edge-few-mc or edge-many-mc.
func runFilter(c runConfig, def workloadDef) (*runOutput, error) {
	golden, err := c.golden()
	if err != nil {
		return nil, err
	}
	count := c.ops(def)
	newRun := func(o *obs.Observer) *filterRun { return &filterRun{def: def, seed: c.seed, obs: o} }

	if !c.trace {
		var r *filterRun
		setups, err := repeatSetup(c, true, func() error { r = newRun(nil); return r.setup() }, func() { r = nil })
		if err != nil {
			return nil, err
		}
		t := r.run(count, numParts, nil)
		digest, bad := r.verify(t, golden)
		return &runOutput{
			attempted: t.ops, failed: t.failed, bad: append(bad, t.notes...), digest: digest, goldenOps: r.next,
			metrics: endToEndMetrics([]phase{{t.lat, 1, t.parts}}, setups),
		}, nil
	}

	m := map[string]float64{}
	tr := newTracer(count + 16*replayCount)
	r := newRun(nil)
	if err := r.setup(); err != nil {
		return nil, err
	}
	t := r.run(count, numParts, tr)
	m["bench.trace_overhead_share"] = t.traceOverhead
	m["bench.cpu_speed"] = median(t.parts.speeds())
	tails(m, untraced(t.parts.atReference(t.lat, 1)))
	if def.Name == wlFewMC {
		if m["obs.overhead_share"], err = obsOverhead(def, c.seed, count); err != nil {
			return nil, err
		}
	}
	stageShares(t, m)
	digest, bad := r.verify(t, golden)

	var deploys []deployment
	deepest := ""
	for _, spec := range filterSpecs(def.Name) {
		deploys = append(deploys, func() (*filter.MC, float32, error) {
			mc, err := filter.NewMC(spec, r.base, r.clip.cfg.Width, r.clip.cfg.Height)
			return mc, noMatchThreshold, err
		})
		if s := filter.DefaultStage(spec.Arch); s > deepest {
			deepest = s // stage names sort by depth: conv4_2 < conv5_6
		}
	}
	rep, err := replayFrames(r.edgeConfig(), deploys, r.clip.frames[:replayCount], "", nil, tr)
	if err != nil {
		return nil, err
	}
	m["core.unattributed_share"] = rep.unattributed()

	tmp, err := c.layersDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	edge, err := layers.Edge(layers.EdgeEnv{Base: r.base, Frames: r.clip.frames, Stage: deepest, Bitrate: 100_000, TmpDir: tmp})
	if err != nil {
		return nil, err
	}
	mergeInto(m, edge)
	if err := writeTrace(c, tr, m); err != nil {
		return nil, err
	}
	return &runOutput{attempted: t.ops, failed: t.failed, bad: append(bad, t.notes...), digest: digest, goldenOps: r.next, metrics: m}, nil
}

// runHeavy runs edge-event-heavy.
func runHeavy(c runConfig, def workloadDef) (*runOutput, error) {
	golden, err := c.golden()
	if err != nil {
		return nil, err
	}
	man, err := loadManifest(c.benchDir)
	if err != nil {
		return nil, err
	}
	tmp, err := c.tmpRoot()
	if err != nil {
		return nil, err
	}
	count := c.ops(def)
	rounds := def.Warmup + count/len(heavyStreams)
	newRun := func() *heavyRun { return &heavyRun{def: def, seed: c.seed, tmpRoot: tmp, man: man} }

	if !c.trace {
		var r *heavyRun
		setups, err := repeatSetup(c, false, func() error { r = newRun(); return r.setup(rounds) }, func() { r.close(); r = nil })
		if r != nil {
			defer r.close()
		}
		if err != nil {
			return nil, err
		}
		t, _ := r.run(count, nil)
		res, bad := r.verify(t, golden)
		return &runOutput{
			attempted: t.ops + r.agent.Stats().Uploads + len(r.fetchLat), failed: t.failed,
			bad: append(bad, t.notes...), digest: res.digest, goldenOps: res.frames,
			metrics: endToEndMetrics([]phase{{t.lat, len(heavyStreams), t.parts}}, setups),
		}, nil
	}

	m := map[string]float64{}
	tr := newTracer(4*count + 16*replayCount)
	r := newRun()
	defer r.close()
	if err := r.setup(rounds); err != nil {
		return nil, err
	}
	t, schedWait := r.run(count, tr)
	m["bench.trace_overhead_share"] = t.traceOverhead
	tails(m, untraced(t.lat))
	wait := durationsMs(schedWait)
	m["core.sched_wait_us_p50"] = 1000 * quantile(wait, 0.50)
	m["core.sched_wait_us_p99"] = 1000 * quantile(wait, 0.99)
	// Stage shares are per stream-second: the two streams run side by
	// side, so their stage times are set against twice the wall.
	perStream := *t
	perStream.lat = append(append([]time.Duration(nil), t.lat...), t.lat...)
	stageShares(&perStream, m)
	res, bad := r.verify(t, golden)
	// Fig. 4 and the event-to-ledger path, from the controller's side.
	m["uplink_bits_per_frame"] = res.bitsPerFrame
	m["event_f1"] = res.eventF1
	m["event.events_per_kframe"] = res.eventsPerKFrame
	m["filter.pass_ratio"] = res.passRatio
	m["core.uplink_delay_s_max"] = res.uplinkDelayMax
	ledger := durationsMs(r.ledgerLat)
	m["event_to_ledger_ms_p50"] = quantile(ledger, 0.50)
	m["event_to_ledger_ms_p99"] = quantile(ledger, 0.99)
	m["fleet.fetch_ms"] = mean(durationsMs(r.fetchLat))
	m["fleet.agent_pending_max"] = float64(r.pendMax)
	attempted := t.ops + r.agent.Stats().Uploads + len(r.fetchLat)

	var deploys []deployment
	for _, f := range man.MCs {
		if f.Stream != heavyStreams[0] {
			continue
		}
		deploys = append(deploys, func() (*filter.MC, float32, error) {
			mc, err := filter.LoadMC(bytes.NewReader(f.data), r.base, r.clips[0].cfg.Width, r.clips[0].cfg.Height)
			return mc, f.Threshold, err
		})
	}
	ship, err := r.replayShipper()
	if err != nil {
		return nil, err
	}
	rep, err := replayFrames(r.edgeConfig(), deploys, r.clips[0].frames[:replayCount], filepath.Join(r.dir, "replay"), ship, tr)
	if err != nil {
		return nil, err
	}
	m["core.unattributed_share"] = rep.unattributed()
	// Agent and controller go before the microbenches: their
	// heartbeats would show up in the allocation counts.
	m["fleet.close_ms"] = float64(r.close()) / float64(time.Millisecond)

	ldir, err := c.layersDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ldir)
	edge, err := layers.Edge(layers.EdgeEnv{Base: r.base, Frames: r.clips[0].frames, Stage: "conv5_6/sep", Bitrate: uploadBitrate, TmpDir: ldir})
	if err != nil {
		return nil, err
	}
	mergeInto(m, edge)
	wire, err := layers.Wire(ldir)
	if err != nil {
		return nil, err
	}
	mergeInto(m, wire)
	if err := writeTrace(c, tr, m); err != nil {
		return nil, err
	}
	return &runOutput{
		attempted: attempted, failed: t.failed,
		bad: append(bad, t.notes...), digest: res.digest, goldenOps: res.frames, metrics: m,
	}, nil
}

// runIngest runs ctrl-ingest.
func runIngest(c runConfig, def workloadDef) (*runOutput, error) {
	golden, err := c.golden()
	if err != nil {
		return nil, err
	}
	tmp, err := c.tmpRoot()
	if err != nil {
		return nil, err
	}
	perSession := c.ops(def) / ingestSessions
	total := def.Warmup + perSession
	newRun := func() *ingestRun { return &ingestRun{def: def, seed: c.seed, tmpRoot: tmp} }

	if !c.trace {
		var r *ingestRun
		setups, err := repeatSetup(c, false, func() error { r = newRun(); return r.setup(total) }, func() { r.close(); r = nil })
		if r != nil {
			defer r.close()
		}
		if err != nil {
			return nil, err
		}
		st, perr := r.pump(perSession, numParts, nil)
		if perr != nil && st.acked() == 0 {
			return nil, perr
		}
		res, bad := r.crashAndRecover(golden)
		return &runOutput{
			attempted: perSession * ingestSessions, failed: st.failed, bad: append(bad, st.notes...), digest: res.digest, goldenOps: res.uploads,
			metrics: endToEndMetrics(st.phases, setups),
		}, nil
	}

	m := map[string]float64{}
	tr := newTracer(4 * perSession * ingestSessions)
	r := newRun()
	defer r.close()
	if err := r.setup(total); err != nil {
		return nil, err
	}
	st, perr := r.pump(perSession, numParts, tr)
	if perr != nil && st.acked() == 0 {
		return nil, perr
	}
	m["bench.trace_overhead_share"] = st.traceOverhead
	tails(m, st.untraced)
	m["fleet.dedup_share"] = float64(st.dupAcks) / float64(st.sends)
	m["fleet.rollup_us"] = 1000 * mean(durationsMs(r.rollupLat))
	res, bad := r.crashAndRecover(golden)
	m["recovery_ms_per_krec"] = res.recoveryPerKRec
	m["fleet.replayed_records"] = float64(res.replayed)
	m["fleet.snapshot_bytes"] = float64(res.snapshotBytes)
	m["walog.state_bytes"] = float64(res.stateBytes)

	r.close()
	ldir, err := c.layersDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(ldir)
	wire, err := layers.Wire(ldir)
	if err != nil {
		return nil, err
	}
	mergeInto(m, wire)
	ctl, err := layers.Control(ldir)
	if err != nil {
		return nil, err
	}
	mergeInto(m, ctl)
	m["obs.sketch_observe_ns"] = layers.SketchObserveNs()
	if err := writeTrace(c, tr, m); err != nil {
		return nil, err
	}
	return &runOutput{
		attempted: perSession * ingestSessions, failed: st.failed,
		bad: append(bad, st.notes...), digest: res.digest, goldenOps: res.uploads, metrics: m,
	}, nil
}

// obsOverhead measures what the program's own observability costs on
// edge-few-mc: two nodes, one built with Config.Obs set, take turns at
// the same frames in alternating parts.
func obsOverhead(def workloadDef, seed int64, count int) (float64, error) {
	plain := &filterRun{def: def, seed: seed}
	observed := &filterRun{def: def, seed: seed, obs: obs.NewObserver(obs.Options{})}
	for _, r := range []*filterRun{plain, observed} {
		if err := r.setup(); err != nil {
			return 0, err
		}
	}
	var rates []float64
	for part := 0; part < numParts; part++ {
		r := plain
		if part%2 == 1 {
			r = observed
		}
		rates = append(rates, r.run(count/numParts, 1, nil).parts.rates()[0])
	}
	return 1 - median(odd(rates, 1))/median(odd(rates, 0)), nil
}

// odd returns the elements of v whose index has the given parity.
func odd(v []float64, parity int) []float64 {
	var out []float64
	for i, x := range v {
		if i%2 == parity {
			out = append(out, x)
		}
	}
	return out
}
