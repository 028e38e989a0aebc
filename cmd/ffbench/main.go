// Command ffbench regenerates the paper's tables and figures. Each
// -experiment is one evaluation artifact; the table below is the list
// (`-experiment all`, the default, runs them in that order).
//
// Accuracy experiments train classifiers from scratch and take minutes
// at the default scale; use -train-frames/-test-frames/-epochs to
// trade fidelity for time. -cpuprofile/-memprofile write pprof
// profiles of the run.
//
// ffbench measures the paper's claims on one machine at one commit.
// Performance across commits, and every subsystem the paper does not
// evaluate (kernels, scheduler, archive, control plane), is measured by
// bench/ (see bench/README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/filter"
)

// An experiment regenerates one artifact of the paper's evaluation:
// run prints its rows to w and hands each structured result to record.
type experiment struct {
	name, title string
	run         func(w io.Writer, o experiments.Options, record func(key string, result any)) error
}

var table = []experiment{
	{"datasets", "datasets (Figure 3b)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		record("datasets", experiments.Datasets(w, o))
		return nil
	}},
	{"cost-accuracy", "cost-accuracy (Figure 7)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		for _, ds := range []string{"jackson", "roadway"} {
			res, err := experiments.CostAccuracy(w, o, ds)
			if err != nil {
				return err
			}
			record("cost-accuracy/"+ds, res)
		}
		return nil
	}},
	{"bandwidth", "bandwidth (Figure 4)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		sweep := []float64{8_000, 15_000, 30_000, 60_000, 120_000, 240_000}
		for _, p := range []struct {
			key     string
			arch    filter.Arch
			bitrate float64
		}{
			{"bandwidth/detector", filter.FullFrameObjectDetector, 30_000},
			{"bandwidth/localized", filter.LocalizedBinary, 60_000},
		} {
			res, err := experiments.Bandwidth(w, o, p.arch, p.bitrate, sweep)
			if err != nil {
				return err
			}
			record(p.key, res)
		}
		return nil
	}},
	{"throughput", "throughput (Figure 5)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		res, err := experiments.Throughput(w, o, []int{1, 2, 4, 8, 16, 32, 50}, 10)
		record("throughput", res)
		return err
	}},
	{"breakdown", "breakdown (Figure 6)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		for _, arch := range []filter.Arch{filter.FullFrameObjectDetector, filter.LocalizedBinary, filter.WindowedLocalizedBinary} {
			res, err := experiments.Breakdown(w, o, arch, []int{1, 2, 5, 10, 25, 50}, 8)
			if err != nil {
				return err
			}
			record(fmt.Sprintf("breakdown/%v", arch), res)
		}
		return nil
	}},
	{"crop", "crop ablation (§3.2)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		res, err := experiments.CropAblation(w, o, "roadway")
		record("crop", res)
		return err
	}},
	{"pooling-baseline", "pooling-classifier baseline (§5.2.2)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		res, err := experiments.PoolingBaseline(w, o, "roadway")
		record("pooling-baseline", res)
		return err
	}},
	{"window-buffer", "window-buffer ablation (§3.3.3)", func(w io.Writer, o experiments.Options, record func(string, any)) error {
		res, err := experiments.WindowBufferAblation(w, o, 40)
		record("window-buffer", res)
		return err
	}},
}

// names lists every valid -experiment value.
func names() string {
	var sb strings.Builder
	for _, e := range table {
		sb.WriteString(e.name + "|")
	}
	return sb.String() + "all"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main without the process: it parses args, runs the selected
// experiments writing their tables to stdout, and returns the exit
// code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ffbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name       = fs.String("experiment", "all", names())
		width      = fs.Int("width", 96, "working-scale frame width")
		trainN     = fs.Int("train-frames", 1200, "training-day frames")
		testN      = fs.Int("test-frames", 1200, "test-day frames")
		epochs     = fs.Int("epochs", 8, "classifier training epochs")
		stride     = fs.Int("sample-stride", 1, "training-frame subsampling stride")
		seed       = fs.Int64("seed", 1, "master seed")
		jsonPath   = fs.String("json", "", "write machine-readable results (per-experiment data + wall times) to this path")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile at exit to this path")
		quiet      = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(what string, err error) int {
		fmt.Fprintf(stderr, "ffbench: %s: %v\n", what, err)
		return 1
	}

	var selected []experiment
	for _, e := range table {
		if *name == e.name || *name == "all" {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "ffbench: unknown experiment %q (want %s)\n", *name, names())
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail("cpuprofile", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail("cpuprofile", err)
		}
		defer pprof.StopCPUProfile()
	}

	o := experiments.Options{
		WorkingWidth: *width,
		TrainFrames:  *trainN, TestFrames: *testN,
		Epochs: *epochs, SampleStride: *stride,
		Seed: *seed, Verbose: !*quiet,
	}
	// The JSON report collects every experiment's structured result
	// (the same structs the tests consume) plus wall-clock timings.
	report := struct {
		Options     experiments.Options `json:"options"`
		Results     map[string]any      `json:"results"`
		WallSeconds map[string]float64  `json:"wall_seconds"`
	}{Options: o, Results: map[string]any{}, WallSeconds: map[string]float64{}}
	record := func(key string, result any) { report.Results[key] = result }

	for _, e := range selected {
		fmt.Fprintf(stdout, "=== %s ===\n", e.title)
		t0 := time.Now()
		if err := e.run(stdout, o, record); err != nil {
			return fail(e.title, err)
		}
		report.WallSeconds[e.title] = time.Since(t0).Seconds()
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fail("encode json", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fail("write json", err)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return fail("memprofile", err)
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fail("memprofile", err)
		}
	}
	return 0
}
