// Command ffbench regenerates the paper's tables and figures. Each
// -experiment corresponds to one evaluation artifact:
//
//	datasets      Figure 3b (dataset details table)
//	bandwidth     Figure 4  (bandwidth vs event F1, both MC archs)
//	throughput    Figure 5  (throughput vs number of classifiers)
//	breakdown     Figure 6  (execution-time split, all three archs)
//	cost-accuracy Figure 7  (multiply-adds vs event F1, both datasets)
//	crop          §3.2 crop ablation
//	window-buffer §3.3.3 buffering ablation
//	multistream   concurrent edge runtime: streams × workers sweep
//	kernels       inference fast-path microbenchmark (ns/frame,
//	              allocs/frame, speedup vs reference kernels)
//	fleet         sharded control-plane soak on the simulated network
//	              (per-shard placement, ledgers, heartbeat quantiles,
//	              mid-run re-shard)
//	drift         semantic drift detection end to end: an induced
//	              brightness shift on one node must be flagged from
//	              heartbeat score sketches with zero false positives
//	              on a stationary control node
//	retrain       the closed loop: induced drift is detected,
//	              drifted frames are demand-fetched and labeled, the
//	              incumbent MC is fine-tuned into a versioned
//	              candidate, the canary evaluator promotes it, and a
//	              deliberately crippled candidate is rolled back
//	all           everything above
//
// -cpuprofile/-memprofile write pprof profiles of the run, which is
// how kernel-level regressions in the extraction fast path are
// localized (see README "Performance").
//
// Accuracy experiments train classifiers from scratch and take minutes
// at the default scale; use -train-frames/-test-frames/-epochs to
// trade fidelity for time.
//
// -parallel runs the throughput and breakdown measurements on the
// concurrent edge runtime: phase 2 fans MCs across -workers
// goroutines. Results are identical; timing changes. The multistream
// experiment always sweeps sequential vs -workers, and
// phased-pipelined always reports the fan-out schedule as one of its
// three columns.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/filter"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "datasets|bandwidth|throughput|breakdown|cost-accuracy|crop|window-buffer|pooling-baseline|phased-pipelined|multistream|archive|kernels|fleet|drift|retrain|restart|all")
		width      = flag.Int("width", 96, "working-scale frame width")
		trainN     = flag.Int("train-frames", 1200, "training-day frames")
		testN      = flag.Int("test-frames", 1200, "test-day frames")
		epochs     = flag.Int("epochs", 8, "classifier training epochs")
		stride     = flag.Int("sample-stride", 1, "training-frame subsampling stride")
		seed       = flag.Int64("seed", 1, "master seed")
		parallel   = flag.Bool("parallel", false, "run performance experiments on the concurrent edge runtime (MC fan-out)")
		workers    = flag.Int("workers", 0, "worker-pool size for -parallel and the multistream sweep (0 = GOMAXPROCS)")
		streams    = flag.Int("streams", 4, "stream count for the multistream sweep (swept as 1,2,...,streams)")
		msFrames   = flag.Int("ms-frames", 30, "frames per stream in the multistream sweep")
		archFrames = flag.Int("archive-frames", 300, "frames appended in the archive benchmark")
		flAgents   = flag.Int("fleet-agents", 32, "edge agents in the fleet soak benchmark")
		flShards   = flag.Int("fleet-shards", 4, "initial controller shards in the fleet soak benchmark")
		flResize   = flag.Int("fleet-resize", 6, "shard count after the fleet soak's mid-run resize")
		flFrames   = flag.Int("fleet-frames", 8, "frames each agent filters in the fleet soak benchmark")
		drFrames   = flag.Int("drift-frames", 96, "per-phase frame budget in the drift detection benchmark")
		rtFrames   = flag.Int("retrain-frames", 96, "per-phase frame budget in the retraining loop benchmark")
		rsFrames   = flag.Int("restart-frames", 24, "frames each agent filters in the controller-restart benchmark")
		kernFrames = flag.Int("kernel-frames", 200, "frames timed per path in the kernels benchmark")
		jsonPath   = flag.String("json", "", "write machine-readable results (per-experiment data + wall times) to this path")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile at exit to this path")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ffbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ffbench: cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// This defer runs before the cpuprofile defers (LIFO), so it
		// must flush the CPU profile itself before any error exit.
		defer func() {
			exit := func(err error) {
				fmt.Fprintln(os.Stderr, "ffbench: memprofile:", err)
				pprof.StopCPUProfile()
				os.Exit(1)
			}
			f, err := os.Create(*memProfile)
			if err != nil {
				exit(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				exit(err)
			}
		}()
	}

	o := experiments.Options{
		WorkingWidth: *width,
		TrainFrames:  *trainN, TestFrames: *testN,
		Epochs: *epochs, SampleStride: *stride,
		Seed: *seed, Verbose: !*quiet,
		Parallel: *parallel, Workers: *workers,
	}
	w := os.Stdout

	// The JSON report collects every experiment's structured result
	// (the same structs the tests consume) plus wall-clock timings.
	// Performance claims across commits are measured by bench/ (see
	// bench/README.md), not by comparing these reports.
	report := struct {
		Options     experiments.Options `json:"options"`
		Results     map[string]any      `json:"results"`
		WallSeconds map[string]float64  `json:"wall_seconds"`
	}{Options: o, Results: map[string]any{}, WallSeconds: map[string]float64{}}
	record := func(key string, result any) {
		if result != nil {
			report.Results[key] = result
		}
	}

	run := func(name string, fn func() error) {
		fmt.Fprintf(w, "=== %s ===\n", name)
		t0 := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "ffbench: %s: %v\n", name, err)
			pprof.StopCPUProfile() // flush a partial profile before exiting
			os.Exit(1)
		}
		report.WallSeconds[name] = time.Since(t0).Seconds()
	}

	want := func(name string) bool { return *experiment == name || *experiment == "all" }

	if want("datasets") {
		run("datasets (Figure 3b)", func() error {
			record("datasets", experiments.Datasets(w, o))
			return nil
		})
	}
	if want("cost-accuracy") {
		run("cost-accuracy (Figure 7)", func() error {
			for _, ds := range []string{"jackson", "roadway"} {
				res, err := experiments.CostAccuracy(w, o, ds)
				if err != nil {
					return err
				}
				record("cost-accuracy/"+ds, res)
			}
			return nil
		})
	}
	if want("bandwidth") {
		run("bandwidth (Figure 4)", func() error {
			sweep := []float64{8_000, 15_000, 30_000, 60_000, 120_000, 240_000}
			res, err := experiments.Bandwidth(w, o, filter.FullFrameObjectDetector, 30_000, sweep)
			if err != nil {
				return err
			}
			record("bandwidth/detector", res)
			res, err = experiments.Bandwidth(w, o, filter.LocalizedBinary, 60_000, sweep)
			if err != nil {
				return err
			}
			record("bandwidth/localized", res)
			return nil
		})
	}
	if want("throughput") {
		run("throughput (Figure 5)", func() error {
			res, err := experiments.Throughput(w, o, []int{1, 2, 4, 8, 16, 32, 50}, 10)
			if err != nil {
				return err
			}
			record("throughput", res)
			return nil
		})
	}
	if want("breakdown") {
		run("breakdown (Figure 6)", func() error {
			for _, arch := range []filter.Arch{filter.FullFrameObjectDetector, filter.LocalizedBinary, filter.WindowedLocalizedBinary} {
				res, err := experiments.Breakdown(w, o, arch, []int{1, 2, 5, 10, 25, 50}, 8)
				if err != nil {
					return err
				}
				record(fmt.Sprintf("breakdown/%v", arch), res)
			}
			return nil
		})
	}
	if want("crop") {
		run("crop ablation (§3.2)", func() error {
			res, err := experiments.CropAblation(w, o, "roadway")
			if err != nil {
				return err
			}
			record("crop", res)
			return nil
		})
	}
	if want("pooling-baseline") {
		run("pooling-classifier baseline (§5.2.2)", func() error {
			res, err := experiments.PoolingBaseline(w, o, "roadway")
			if err != nil {
				return err
			}
			record("pooling-baseline", res)
			return nil
		})
	}
	if want("phased-pipelined") {
		run("phased vs pipelined execution (§4.4)", func() error {
			res, err := experiments.PhasedVsPipelined(w, o, 8, 30)
			if err != nil {
				return err
			}
			record("phased-pipelined", res)
			return nil
		})
	}
	if want("window-buffer") {
		run("window-buffer ablation (§3.3.3)", func() error {
			res, err := experiments.WindowBufferAblation(w, o, 40)
			if err != nil {
				return err
			}
			record("window-buffer", res)
			return nil
		})
	}
	if want("multistream") {
		run("multistream scheduler scaling (§3.2)", func() error {
			if *streams < 1 {
				return fmt.Errorf("-streams must be >= 1, got %d", *streams)
			}
			var sweep []int
			for s := 1; s <= *streams; s *= 2 {
				sweep = append(sweep, s)
			}
			if len(sweep) == 0 || sweep[len(sweep)-1] != *streams {
				sweep = append(sweep, *streams)
			}
			res, err := experiments.MultiStreamScaling(w, o, sweep, nil, *msFrames)
			if err != nil {
				return err
			}
			record("multistream", res)
			return nil
		})
	}
	if want("kernels") {
		run("kernels (inference fast path)", func() error {
			res, err := experiments.Kernels(w, o, *kernFrames)
			if err != nil {
				return err
			}
			record("kernels", res)
			return nil
		})
	}
	if want("archive") {
		run("archive store (persistent demand-fetch)", func() error {
			res, err := experiments.Archive(w, o, *archFrames)
			if err != nil {
				return err
			}
			record("archive", res)
			return nil
		})
	}
	if want("fleet") {
		run("fleet (sharded control-plane soak)", func() error {
			res, err := experiments.FleetSoak(w, o, *flAgents, *flShards, *flResize, *flFrames)
			if err != nil {
				return err
			}
			record("fleet", res)
			return nil
		})
	}
	if want("drift") {
		run("drift (fleet-wide semantic drift detection)", func() error {
			res, err := experiments.Drift(w, o, *drFrames)
			if err != nil {
				return err
			}
			record("drift", res)
			return nil
		})
	}

	if want("retrain") {
		run("retrain (drift-triggered retraining with canary rollout)", func() error {
			res, err := experiments.Retrain(w, o, *rtFrames)
			if err != nil {
				return err
			}
			record("retrain", res)
			return nil
		})
	}

	if want("restart") {
		run("restart (durable control plane crash recovery)", func() error {
			res, err := experiments.Restart(w, o, *rsFrames)
			if err != nil {
				return err
			}
			record("restart", res)
			return nil
		})
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "ffbench: encode json:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ffbench: write json:", err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "wrote %s\n", *jsonPath)
	}
}
