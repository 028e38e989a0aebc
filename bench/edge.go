package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
)

// jacksonFrames is the length of the pre-rendered Jackson clip the two
// filtering workloads loop over.
const jacksonFrames = 1200

// noMatchThreshold sits above every sigmoid score, so no event is ever
// detected and nothing is encoded: the paper's filtering-throughput
// measurement (Fig. 5), as internal/experiments/fig5.go does it.
const noMatchThreshold = 2

// filterSpecs returns the untrained microclassifiers of edge-few-mc
// (one localized, one detector) and edge-many-mc (20 localized, 20
// windowed, 10 detector: Fig. 5's right edge).
func filterSpecs(workload string) []filter.Spec {
	counts := map[filter.Arch]int{filter.LocalizedBinary: 1, filter.FullFrameObjectDetector: 1}
	if workload == wlManyMC {
		counts = map[filter.Arch]int{filter.LocalizedBinary: 20, filter.WindowedLocalizedBinary: 20, filter.FullFrameObjectDetector: 10}
	}
	var specs []filter.Spec
	for _, arch := range []filter.Arch{filter.LocalizedBinary, filter.WindowedLocalizedBinary, filter.FullFrameObjectDetector} {
		for i := 0; i < counts[arch]; i++ {
			specs = append(specs, filter.Spec{
				Name: fmt.Sprintf("%s-%d", archShort(arch), i), Arch: arch, Hidden: 32,
				Seed: 1000 + int64(len(specs)),
			})
		}
	}
	return specs
}

func archShort(a filter.Arch) string {
	switch a {
	case filter.LocalizedBinary:
		return "localized"
	case filter.WindowedLocalizedBinary:
		return "windowed"
	case filter.FullFrameObjectDetector:
		return "detector"
	}
	return a.String()
}

// filterRun is edge-few-mc or edge-many-mc: one stream driven straight
// through core.EdgeNode.ProcessFrame by one goroutine.
type filterRun struct {
	def  workloadDef
	seed int64
	obs  *obs.Observer // non-nil only for the obs.overhead_share pass

	base *mobilenet.Model
	clip *clip
	node *core.EdgeNode
	next int // next stream frame index

	warmDigest string
}

func (r *filterRun) edgeConfig() core.Config {
	return core.Config{
		FrameWidth: r.clip.cfg.Width, FrameHeight: r.clip.cfg.Height, FPS: r.clip.cfg.FPS,
		Base: r.base, UploadBitrate: 100_000, MCWorkers: 1, Obs: r.obs,
	}
}

func (r *filterRun) newNode() (*core.EdgeNode, error) {
	node, err := core.NewEdgeNode(r.edgeConfig())
	if err != nil {
		return nil, err
	}
	for _, spec := range filterSpecs(r.def.Name) {
		mc, err := filter.NewMC(spec, r.base, r.clip.cfg.Width, r.clip.cfg.Height)
		if err != nil {
			return nil, err
		}
		if err := node.Deploy(mc, noMatchThreshold); err != nil {
			return nil, err
		}
	}
	return node, nil
}

// setup renders the clip, builds the node, deploys the MCs and warms
// the pipeline up (program compile, arenas) on the first Warmup frames.
func (r *filterRun) setup() error {
	nn.Workers = 1 // single-threaded kernels: the timing reflects work, not the Go scheduler
	r.base = newBase()
	r.clip = renderClip(dataset.Jackson(workingWidth, jacksonFrames, r.seed))
	node, err := r.newNode()
	if err != nil {
		return err
	}
	r.node = node
	for r.next = 0; r.next < r.def.Warmup; r.next++ {
		if _, err := r.node.ProcessFrame(r.clip.frame(r.next)); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", r.next, err)
		}
	}
	r.warmDigest = sketchDigest(r.node)
	return nil
}

// timed is what one timed phase measured.
type timed struct {
	ops    int
	failed int
	parts  *slicer // throughput and CPU speed of each of the phase's parts
	// traceOverhead is set by a traced phase: see traceBlock.
	traceOverhead float64
	lat           []time.Duration
	notes         []string
	stats0        core.Stats
	stats1        core.Stats
	uploads       int
}

// run times count frames, cut into nparts parts.
func (r *filterRun) run(count, nparts int, tr *tracer) *timed {
	t := &timed{ops: count, lat: make([]time.Duration, count), stats0: r.node.Stats()}
	parts, meter := newSlicer(count, nparts, true), newOverheadMeter()
	for i := 0; i < count; i++ {
		img := r.clip.frame(r.next)
		cur := tr.in(i)
		h := cur.begin("core.EdgeNode.ProcessFrame", -1, int64(r.next), 0)
		t0 := time.Now()
		ups, err := r.node.ProcessFrame(img)
		t.lat[i] = time.Since(t0)
		cur.end(h)
		r.next++
		if err != nil {
			t.failed++
			t.notes = append(t.notes, err.Error())
		}
		t.uploads += len(ups)
		meter.skip(parts.tick())
		meter.tick(i)
	}
	t.parts, t.traceOverhead = parts, meter.share()
	t.stats1 = r.node.Stats()
	return t
}

// verify checks the run's outputs: every frame went through, nothing
// matched (the thresholds are above 1), a second node fed the same
// warm-up frames scored them identically, and the score sketches of the
// whole run equal the golden digest when one is recorded for this
// (workload, seed, frame count).
func (r *filterRun) verify(t *timed, golden goldenSet) (digest string, bad []string) {
	tail, err := r.node.Flush()
	if err != nil {
		bad = append(bad, "flush: "+err.Error())
	}
	if n := t.uploads + len(tail); n != 0 {
		bad = append(bad, fmt.Sprintf("%d uploads with thresholds above 1", n))
	}
	if got := r.node.Stats().Frames; got != r.next {
		bad = append(bad, fmt.Sprintf("node counted %d frames, %d were submitted", got, r.next))
	}
	digest = sketchDigest(r.node)
	ref, err := r.newNode()
	if err != nil {
		return digest, append(bad, "reference node: "+err.Error())
	}
	for i := 0; i < r.def.Warmup; i++ {
		if _, err := ref.ProcessFrame(r.clip.frame(i)); err != nil {
			return digest, append(bad, "reference frame: "+err.Error())
		}
	}
	if d := sketchDigest(ref); d != r.warmDigest {
		bad = append(bad, "a second node scored the warm-up frames differently")
	}
	if msg := golden.check(r.def.Name, r.seed, r.next, digest); msg != "" {
		bad = append(bad, msg)
	}
	return digest, bad
}

// sketchDigest fingerprints what the node's microclassifiers computed:
// per MC, the count, threshold passes and 32-bin histogram of its
// scores. The fields are integers, so the digest repeats exactly.
func sketchDigest(node *core.EdgeNode) string {
	sk := node.ScoreSketches()
	names := make([]string, 0, len(sk))
	for name := range sk {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		s := sk[name]
		fmt.Fprintf(h, "%s %d %d %v\n", name, s.Count, s.Passes, s.Bins)
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// stageShares splits the timed phase's ProcessFrame wall time by the
// node's public per-stage accumulators.
func stageShares(t *timed, out map[string]float64) {
	var wall time.Duration
	for _, d := range t.lat {
		wall += d
	}
	if wall <= 0 || t.ops == 0 {
		return
	}
	d := func(a, b time.Duration) float64 { return float64(b-a) / float64(wall) }
	out["core.stage_share.decode"] = d(t.stats0.DecodeTime, t.stats1.DecodeTime)
	out["core.stage_share.extract"] = d(t.stats0.BaseDNNTime, t.stats1.BaseDNNTime)
	out["core.stage_share.mc"] = d(t.stats0.MCTime, t.stats1.MCTime)
	out["core.stage_share.encode"] = d(t.stats0.EncodeTime, t.stats1.EncodeTime)
	out["core.stage_share.archive"] = d(t.stats0.ArchiveTime, t.stats1.ArchiveTime)
	staged := out["core.stage_share.decode"] + out["core.stage_share.extract"] + out["core.stage_share.mc"] +
		out["core.stage_share.encode"] + out["core.stage_share.archive"]
	out["core.self_us_per_frame"] = (1 - staged) * float64(wall) / float64(time.Microsecond) / float64(t.ops)
}
