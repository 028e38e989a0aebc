package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// report is the one fixed-schema record a suite run writes: machine
// facts, then per workload every metric's values over the sets with
// their median and inter-quartile spread.
type report struct {
	Schema    int              `json:"schema"`
	Machine   machineFacts     `json:"machine"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Sets      int              `json:"sets"`
	Workloads []workloadReport `json:"workloads"`
}

type machineFacts struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// KernelPath is "asm" when the SSE GEMM/vector kernels are built
	// in, "purego" for the portable ones.
	KernelPath string `json:"kernel_path"`
	// NNWorkers is the intra-layer fan-out every workload pins.
	NNWorkers int `json:"nn_workers"`
	// Drivers is the most load-generating goroutines (and connections)
	// any workload uses; it never exceeds nproc.
	Drivers int    `json:"drivers"`
	When    string `json:"when"`
}

type workloadReport struct {
	Name      string                  `json:"name"`
	Ops       int                     `json:"ops"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Correct   bool                    `json:"correct"`
	EndToEnd  map[string]metricSeries `json:"end_to_end"`
	PerLayer  map[string]metricSeries `json:"per_layer"`
}

type metricSeries struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	// Spread is (Q3-Q1)/median over the sets; 0 with fewer than two.
	Spread float64 `json:"spread"`
}

func (s *metricSeries) add(v float64) {
	s.Values = append(s.Values, v)
	s.Median = median(s.Values)
	s.Spread = 0
	if len(s.Values) > 1 {
		s.Spread = spread(s.Values)
	}
}

func facts(benchDir string) machineFacts {
	f := machineFacts{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", KernelPath: kernelPath, NNWorkers: 1, Drivers: ingestSessions,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = benchDir
	if out, err := cmd.Output(); err == nil {
		f.Commit = strings.TrimSpace(string(out))
	}
	return f
}

// child runs one workload in its own process (so peak RSS and heap
// state are the workload's alone) and parses its result line.
func child(benchDir, workload string, seed int64, seconds float64, trace int) (*resultLine, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
	cmd.Dir = filepath.Dir(benchDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (trace %d): %w\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s (trace %d): result line: %w", workload, trace, err)
	}
	if !res.Correct {
		fmt.Fprint(os.Stderr, stderr.String())
	}
	return &res, nil
}

// runSuite runs every workload sets times, untraced then traced, each
// run in a child process, prints every metric and writes the report.
func runSuite(benchDir string, seed int64, seconds float64, sets int, out string) error {
	rep := report{Schema: 1, Machine: facts(benchDir), Seed: seed, Seconds: seconds, Sets: sets}
	fmt.Printf("machine: %s, nproc %d, GOMAXPROCS %d, %s, commit %s, %s kernels, seed %d, %d driver goroutines at most\n",
		rep.Machine.CPUModel, rep.Machine.NProc, rep.Machine.GOMAXPROCS, rep.Machine.GoVersion,
		rep.Machine.Commit, rep.Machine.KernelPath, seed, rep.Machine.Drivers)
	for _, w := range workloads {
		wr := workloadReport{
			Name: w.Name, Ops: runConfig{seconds: seconds, scale: 1}.ops(w), Correct: true,
			EndToEnd: map[string]metricSeries{}, PerLayer: map[string]metricSeries{},
		}
		for set := 0; set < sets; set++ {
			for trace, into := range []map[string]metricSeries{wr.EndToEnd, wr.PerLayer} {
				res, err := child(benchDir, w.Name, seed, seconds, trace)
				if err != nil {
					return err
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				wr.Correct = wr.Correct && res.Correct
				for name, v := range res.Metrics {
					s := into[name]
					s.Unit = v.Unit
					s.add(v.Value)
					into[name] = s
				}
			}
		}
		rep.Workloads = append(rep.Workloads, wr)
		printWorkload(wr)
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("report: %s; traces: %s\n", out, filepath.Join(benchDir, "out", "trace-<workload>.json"))
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.Failed > 0 {
			return fmt.Errorf("%s: incorrect outputs or %d failed operations", wr.Name, wr.Failed)
		}
	}
	return nil
}

func printWorkload(wr workloadReport) {
	fmt.Printf("\n%s  (%d ops timed; attempted %d, failed %d, correct %v)\n", wr.Name, wr.Ops, wr.Attempted, wr.Failed, wr.Correct)
	row := func(d metricDef, s metricSeries, bounded bool) {
		if !reportsOn(d, wr.Name) {
			return
		}
		line := fmt.Sprintf("  %-38s %14.6g %-8s", d.Name, s.Median, d.Unit)
		if len(s.Values) > 1 {
			line += fmt.Sprintf(" spread %5.1f%%", 100*s.Spread)
		}
		if bounded {
			line += fmt.Sprintf("  bound %2.0f%%", 100*d.Bound)
		}
		fmt.Println(line)
	}
	for _, d := range endToEnd {
		row(d, wr.EndToEnd[d.Name], true)
	}
	for _, d := range perLayer {
		row(d, wr.PerLayer[d.Name], false)
	}
}

// runSmoke runs every workload at 1/50 of the work in this process,
// checks that outputs are correct and that every end-to-end metric
// comes out non-zero, and compares no timings.
func runSmoke(benchDir string, seed int64) error {
	var errs []error
	for _, w := range workloads {
		t0 := time.Now()
		res, err := runWorkload(runConfig{workload: w.Name, seed: seed, seconds: runSeconds, scale: smokeScale, setups: 1, benchDir: benchDir})
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", w.Name, err))
			continue
		}
		for _, d := range endToEnd {
			if v, ok := res.metrics[d.Name]; !ok || v <= 0 {
				errs = append(errs, fmt.Errorf("%s: end-to-end metric %s reads %v", w.Name, d.Name, v))
			}
		}
		for _, b := range res.bad {
			errs = append(errs, fmt.Errorf("%s: %s", w.Name, b))
		}
		if res.failed > 0 {
			errs = append(errs, fmt.Errorf("%s: %d of %d operations failed", w.Name, res.failed, res.attempted))
		}
		fmt.Printf("smoke %-18s %d ops, digest %s, %.1fs\n", w.Name, res.attempted, res.digest, time.Since(t0).Seconds())
	}
	return errors.Join(errs...)
}
