// Command bench is the repo's one benchmark: four workloads, five
// end-to-end metrics on each, and per-layer metrics timed from outside
// the program through its exported calls. See README.md.
//
//	bench/run.sh                               every workload, one report
//	bench/run.sh -sets 5                       five sets, medians and spreads
//	bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                           one run, one result line
//	bench/run.sh diff old.json new.json        regressions against bounds
//	bench/run.sh agree a.json b.json           two sets of one commit
//	bench/run.sh -smoke                        correctness only, seconds
//	bench/run.sh -regen-fixtures               retrain fixtures, re-record goldens
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := realMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(args []string) error {
	if len(args) > 0 && (args[0] == "diff" || args[0] == "agree") {
		if len(args) != 3 {
			return fmt.Errorf("usage: %s a.json b.json", args[0])
		}
		return compareReports(args[0], args[1], args[2])
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload and print one result line")
	seed := fs.Int64("seed", 1, "seed the harness generates every input from")
	seconds := fs.Float64("seconds", runSeconds, "length of the timed phase at the frozen rates")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	sets := fs.Int("sets", 1, "suite mode: how many sets of runs to make")
	smoke := fs.Bool("smoke", false, "run every workload at 1/50 of the work, check outputs and schema, compare no timings")
	regen := fs.Bool("regen-fixtures", false, "retrain the fixtures under testdata/ and re-record the golden digests")
	printSchema := fs.Bool("print-benchmark-json", false, "print BENCHMARK.json as the tables in schema.go define it")
	out := fs.String("out", "", "suite mode: where to write the report (default bench/out/report.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	benchDir, err := findBenchDir()
	if err != nil {
		return err
	}
	switch {
	case *printSchema:
		return printBenchmarkJSON()
	case *regen:
		return regenerate(benchDir)
	case *smoke:
		return runSmoke(benchDir, *seed)
	case *workload == "":
		if *out == "" {
			*out = filepath.Join(benchDir, "out", "report.json")
		}
		return runSuite(benchDir, *seed, *seconds, *sets, *out)
	}
	res, err := runWorkload(runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, scale: 1,
		trace: *trace != 0, setups: measuredSetups, benchDir: benchDir,
	})
	if err != nil {
		return err
	}
	return printResult(res, *trace != 0)
}

// findBenchDir locates the benchmark's directory: the driver starts
// the program at the root of a checkout, a person may start it inside
// bench/.
func findBenchDir() (string, error) {
	for _, dir := range []string{"bench", "."} {
		if _, err := os.Stat(filepath.Join(dir, "schema.go")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root or from bench/: bench sources not found")
}

// resultLine is the one JSON object a run prints last.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult lists every metric by name with its unit on standard
// error and prints the result line on standard output.
func printResult(res *runOutput, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{
		Correct: len(res.bad) == 0 && res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(os.Stderr, "%-40s %14.6g %s\n", d.Name, v, d.Unit)
	}
	for _, b := range res.bad {
		fmt.Fprintln(os.Stderr, "INCORRECT:", b)
	}
	fmt.Fprintf(os.Stderr, "outputs digest %s; attempted %d, failed %d\n", res.digest, res.attempted, res.failed)
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(raw))
	return err
}

// regenerate retrains the fixtures and records the golden digests of
// seeds 1..goldenSeeds at the lengths the benchmark runs: full, traced
// and smoke.
func regenerate(benchDir string) error {
	if err := regenFixtures(benchDir); err != nil {
		return err
	}
	g := goldenSet{}
	for _, w := range workloads {
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			// The traced run does a fifth of the work, so an untraced
			// run at a fifth records its golden.
			for _, scale := range []float64{1, 1.0 / traceShare, smokeScale} {
				if scale == smokeScale && seed > 1 {
					continue
				}
				res, err := runWorkload(runConfig{
					workload: w.Name, seed: seed, seconds: runSeconds, scale: scale,
					setups: 1, benchDir: benchDir, skipGolden: true,
				})
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
				}
				if len(res.bad) > 0 || res.failed > 0 {
					return fmt.Errorf("%s seed %d: incorrect reference run: %v", w.Name, seed, res.bad)
				}
				key := goldenKey(w.Name, seed, res.goldenOps)
				g[key] = res.digest
				fmt.Fprintf(os.Stderr, "golden %s = %s\n", key, res.digest)
			}
		}
	}
	return g.write(benchDir)
}

// measuredSetups is how many times a measured run sets up; setup_s is
// the median.
const measuredSetups = 3

// goldenSeeds is how many seeds have recorded digests.
const goldenSeeds = 12

// smokeScale is the share of the work the smoke run does.
const smokeScale = 0.02
