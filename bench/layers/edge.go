package layers

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/codec"
	"repro/internal/event"
	"repro/internal/filter"
	"repro/internal/mobilenet"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/vision"
)

// samples is the per-call sample count behind every latency
// percentile reported here.
const samples = 1000

// EdgeEnv is what the edge-side microbenches run on: the workload's
// own base DNN and (a slice of) its pre-rendered clip.
type EdgeEnv struct {
	Base   *mobilenet.Model
	Frames []*vision.Image
	// Stage is the deepest base-DNN stage the workload's MCs tap.
	Stage string
	// Bitrate is the codec target for the archive/segment encodes.
	Bitrate float64
	// TmpDir holds the archive microbench's store.
	TmpDir string
}

// Edge runs the microbenches of every package on the frame path.
func Edge(env EdgeEnv) (Metrics, error) {
	m := Metrics{}
	w, h := env.Frames[0].W, env.Frames[0].H
	frame := func(i int) *vision.Image { return env.Frames[i%len(env.Frames)] }

	// vision: pixels to the base DNN's input tensor.
	xbuf := tensor.New(1, h, w, 3)
	m["vision.to_tensor_us"] = us(total(samples, func(i int) { frame(i).ToTensorInto(xbuf) })) / samples

	if err := tensorBench(m, env.Base, w, h); err != nil {
		return nil, err
	}
	if err := nnBench(m, env, xbuf); err != nil {
		return nil, err
	}

	// mobilenet: the extraction call the pipeline makes each frame.
	ext := env.Base.NewExtractor()
	stages := []string{env.Stage}
	var xerr error
	lat := each(samples, func(i int) {
		if _, err := ext.ExtractMulti(frame(i).ToTensorInto(xbuf), stages); err != nil {
			xerr = err
		}
	})
	if xerr != nil {
		return nil, xerr
	}
	madds, err := env.Base.MAddsTo(env.Stage, []int{1, h, w, 3})
	if err != nil {
		return nil, err
	}
	// The to-tensor conversion is inside the timed call; take it out.
	conv := time.Duration(m["vision.to_tensor_us"] * float64(time.Microsecond))
	m["mobilenet.extract_us_p50"] = us(pct(lat, 0.50) - conv)
	m["mobilenet.extract_us_p99"] = us(pct(lat, 0.99) - conv)
	m["mobilenet.madds_per_frame"] = float64(madds)
	m["mobilenet.gmadds_per_s"] = float64(madds) / float64(pct(lat, 0.50)-conv)
	x := frame(0).ToTensorInto(xbuf)
	m["mobilenet.allocs_per_frame"] = AllocsPer(100, func() { ext.ExtractMulti(x, stages) })

	if err := filterBench(m, env, xbuf); err != nil {
		return nil, err
	}

	// event: K-of-N smoothing of one classification.
	sm := event.NewSmoother(event.DefaultN, event.DefaultK)
	const smooths = 200_000
	m["event.smooth_ns"] = float64(total(smooths, func(i int) { sm.Push(i%7 < 3) })) / smooths

	// codec: the per-frame archive encode and a 48-frame segment.
	ccfg := codec.Config{Width: w, Height: h, FPS: 15, TargetBitrate: env.Bitrate}
	enc := codec.NewEncoder(ccfg)
	const encodes = 400
	var bits int64
	m["codec.encode_us_per_frame"] = us(total(encodes, func(i int) { bits += enc.Encode(frame(i)).Bits })) / encodes
	m["codec.bits_per_frame"] = float64(bits) / encodes
	seg := make([]*vision.Image, 48)
	for i := range seg {
		seg[i] = frame(i)
	}
	m["codec.segment_encode_ms"] = ms(meanOf(each(8, func(int) { codec.EncodeSegment(ccfg, seg) })))

	if err := archiveBench(m, env); err != nil {
		return nil, err
	}

	// obs: one histogram observation, one sketch observation.
	var hist obs.Histogram
	const observes = 1_000_000
	m["obs.observe_ns"] = float64(total(observes, func(i int) { hist.ObserveNs(int64(1000 + i%4096)) })) / observes
	m["obs.sketch_observe_ns"] = SketchObserveNs()
	return m, nil
}

// SketchObserveNs times one score-sketch observation.
func SketchObserveNs() float64 {
	var sk obs.ScoreSketch
	const observes = 1_000_000
	return float64(total(observes, func(i int) { sk.Observe(float64(i%1000)/1000, i%3 == 0) })) / observes
}

// tensorBench times the GEMM on the two shapes the pipeline spends its
// time in: the base DNN's largest pointwise convolution (packed path)
// and a microclassifier's fully-connected head (m=1, the unpacked
// axpy path).
func tensorBench(m Metrics, base *mobilenet.Model, w, h int) error {
	shape := []int{1, h, w, 3}
	var pm, pn, pk int
	for _, l := range base.Net.Layers() {
		out := l.OutShape(shape)
		if c, ok := l.(*nn.Conv2D); ok && c.Kernel == 1 {
			mm, nn_, kk := out[1]*out[2], c.Filters, shape[3]
			if mm*nn_*kk > pm*pn*pk {
				pm, pn, pk = mm, nn_, kk
			}
		}
		shape = out
	}
	if pm == 0 {
		return fmt.Errorf("layers: base DNN has no pointwise convolution")
	}
	rng := tensor.NewRNG(7)
	fill := func(n int) []float32 {
		v := make([]float32, n)
		for i := range v {
			v[i] = rng.Float32() - 0.5
		}
		return v
	}
	a, b, c := fill(pm*pk), fill(pk*pn), make([]float32, pm*pn)
	bp := make([]float32, tensor.PackBSize(pk, pn))
	tensor.PackB(pk, pn, b, bp)
	sa := make([]float32, tensor.PackASize(pm, pk))
	ep := &tensor.Epilogue{ReLU: true}
	const packedRuns = 400
	d := total(packedRuns, func(int) { tensor.GemmPacked(pm, pn, pk, a, bp, c, ep, sa) })
	m["tensor.gemm_gmadds_per_s"] = float64(pm*pn*pk) * packedRuns / float64(d)
	// Computed from the shapes, not measured: every operand read once,
	// the output written once.
	m["tensor.gemm_computed_bytes_per_madd"] = 4 * float64(pm*pk+pk*pn+pm*pn) / float64(pm*pn*pk)

	// MC head: one row against a [k, 32] weight matrix. k is the
	// flattened input of a localized MC's first fully-connected layer
	// on the conv4_2 feature map.
	sk, sn := 1, 32
	mc, err := filter.NewMC(filter.Spec{Name: "head-shape", Arch: filter.LocalizedBinary, Hidden: sn, Seed: 1}, base, w, h)
	if err != nil {
		return err
	}
	for _, l := range mc.Net().Layers() {
		if dl, ok := l.(*nn.Dense); ok {
			sk = dl.In
			break
		}
	}
	a2, b2, c2 := fill(sk), fill(sk*sn), make([]float32, sn)
	const smallRuns = 20_000
	d = total(smallRuns, func(int) { tensor.Gemm(1, sn, sk, a2, b2, c2, ep, nil, nil) })
	m["tensor.gemm_small_m_gmadds_per_s"] = float64(sn*sk) * smallRuns / float64(d)
	return nil
}

// nnBench times the compiled base-DNN program and splits it by layer
// kind: it runs every prefix RunTo(ws, x, i) and charges op i the
// difference between prefix i and prefix i-1.
func nnBench(m Metrics, env EdgeEnv, xbuf *tensor.Tensor) error {
	x := env.Frames[0].ToTensorInto(xbuf)
	prog, err := nn.Compile(env.Base.Net, x.Shape)
	if err != nil {
		return err
	}
	tap, err := env.Base.TapFor(env.Stage)
	if err != nil {
		return err
	}
	last, ok := prog.OpIndex(tap)
	if !ok {
		return fmt.Errorf("layers: stage %s has no op in the compiled program", env.Stage)
	}
	ws := prog.NewWorkspace()
	prog.RunTo(ws, x, last)
	m["nn.allocs_per_run"] = AllocsPer(100, func() { prog.RunTo(ws, x, last) })

	// Name each op after the layers fused into it.
	kind := make([]string, last+1)
	for _, name := range env.Base.Net.LayerNames() {
		i, ok := prog.OpIndex(name)
		if !ok || i > last {
			continue
		}
		switch {
		case strings.Contains(name, "/dw"):
			kind[i] = "nn.dw_us"
		case strings.Contains(name, "/sep"):
			kind[i] = "nn.pw_us"
		case strings.HasPrefix(name, "conv1"):
			kind[i] = "nn.conv1_us"
		}
	}
	// Every repetition times all prefixes and each prefix keeps its
	// fastest time: a burst from a neighbour on the box then cannot
	// land on one prefix alone and be charged to one kind of layer.
	// The whole program is timed the same way, as its own call.
	const reps = 40
	prefix := make([]time.Duration, last+1)
	var whole time.Duration
	fastest := func(best *time.Duration, rep, upto int) {
		t0 := time.Now()
		prog.RunTo(ws, x, upto)
		if d := time.Since(t0); rep == 0 || d < *best {
			*best = d
		}
	}
	for rep := 0; rep < reps; rep++ {
		for i := 0; i <= last; i++ {
			fastest(&prefix[i], rep, i)
		}
		fastest(&whole, rep, last)
	}
	m["nn.program_run_us"] = us(whole)
	for _, k := range []string{"nn.conv1_us", "nn.dw_us", "nn.pw_us"} {
		m[k] = 0
	}
	for i := 0; i <= last; i++ {
		d := prefix[i]
		if i > 0 {
			d -= prefix[i-1]
		}
		if kind[i] == "" {
			return fmt.Errorf("layers: op %d of the base program is neither conv1, depthwise nor pointwise", i)
		}
		m[kind[i]] += us(d)
	}
	return nil
}

// filterBench times MC.Push per architecture on real feature maps.
func filterBench(m Metrics, env EdgeEnv, xbuf *tensor.Tensor) error {
	w, h := env.Frames[0].W, env.Frames[0].H
	const maps = 64
	fms := map[string][]*tensor.Tensor{}
	var allocs float64
	for _, a := range []struct {
		arch filter.Arch
		name string
	}{
		{filter.LocalizedBinary, "localized"},
		{filter.WindowedLocalizedBinary, "windowed"},
		{filter.FullFrameObjectDetector, "detector"},
	} {
		mc, err := filter.NewMC(filter.Spec{Name: "bench-" + a.name, Arch: a.arch, Hidden: 32, Seed: 1}, env.Base, w, h)
		if err != nil {
			return err
		}
		stage := mc.Stage()
		if fms[stage] == nil {
			for i := 0; i < maps; i++ {
				fm, err := env.Base.Extract(env.Frames[i%len(env.Frames)].ToTensorInto(xbuf), stage)
				if err != nil {
					return err
				}
				fms[stage] = append(fms[stage], fm)
			}
		}
		in := fms[stage]
		mc.Push(in[0]) // compiles the MC's program
		m["filter.push_us."+a.name] = us(total(samples, func(i int) { mc.Push(in[i%maps]) })) / samples
		m["filter.madds_per_push."+a.name] = float64(mc.MAddsPerFrame(true))
		if got := AllocsPer(100, func() { mc.Push(in[0]) }); got > allocs {
			allocs = got
		}

		if a.arch == filter.LocalizedBinary {
			// Deploy cost: deserialize, then the first push compiles.
			var buf bytes.Buffer
			if err := mc.Save(&buf); err != nil {
				return err
			}
			var lerr error
			m["filter.load_ms"] = ms(meanOf(each(10, func(int) {
				loaded, err := filter.LoadMC(bytes.NewReader(buf.Bytes()), env.Base, w, h)
				if err != nil {
					lerr = err
					return
				}
				loaded.Push(in[0])
			})))
			if lerr != nil {
				return lerr
			}
		}
	}
	m["filter.allocs_per_push"] = allocs
	return nil
}

// archiveBench times the on-disk frame store: appends, a 48-frame
// range read racing appends, and the barrier.
func archiveBench(m Metrics, env EdgeEnv) error {
	w, h := env.Frames[0].W, env.Frames[0].H
	// The budget keeps the store's footprint bounded (a frame is tens
	// of KB raw) and makes retention part of what is timed.
	st, err := archive.Open(archive.Config{Dir: filepath.Join(env.TmpDir, "archive-bench"), Width: w, Height: h, FPS: 15, Budget: 64 << 20})
	if err != nil {
		return err
	}
	defer st.Close()
	var aerr error
	appendOne := func(i int) {
		if _, err := st.Append(env.Frames[i%len(env.Frames)], 1000); err != nil {
			aerr = err
		}
	}
	// Appends are handed to a writer goroutine; paced like a fast
	// pipeline's frames, the call costs what the pipeline pays, not
	// what the disk sustains.
	const gap = 300 * time.Microsecond
	lat := make([]time.Duration, samples)
	for i := range lat {
		t0 := time.Now()
		appendOne(i)
		lat[i] = time.Since(t0)
		for time.Since(t0) < gap {
		}
	}
	m["archive.append_us_p50"] = us(pct(lat, 0.50))
	m["archive.append_us_p99"] = us(pct(lat, 0.99))
	t0 := time.Now()
	if err := st.Sync(); err != nil {
		return err
	}
	m["archive.sync_ms"] = ms(time.Since(t0))
	stats := st.Stats()
	m["archive.bytes_per_frame"] = float64(stats.Bytes) / float64(stats.Frames)

	// Reads beside appends: one goroutine keeps appending at about a
	// camera's pace times a hundred while this one reads ranges a few
	// hundred frames behind the ingest point.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				appendOne(i)
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()
	var rerr error
	reads := each(20, func(int) {
		start := st.NextFrame() - 300
		if _, err := st.ReadRange(start, start+48); err != nil {
			rerr = err
		}
	})
	close(stop)
	wg.Wait()
	if aerr != nil {
		return aerr
	}
	if rerr != nil {
		return rerr
	}
	m["archive.read_range_ms"] = ms(meanOf(reads))
	return nil
}
