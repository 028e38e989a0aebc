package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func loadReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// worsening is how far b's median is on the wrong side of a's, as a
// share of a's.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareReports implements `diff old new` and `agree a b`. diff
// prints one row per (workload, end-to-end metric) with both medians,
// the change, the bound and a verdict, and fails on a metric that got
// worse by more than its bound or on a higher failed share. agree
// applies the same bounds in both directions to two sets of one
// commit, and wants the exact counts identical.
func compareReports(mode, pathA, pathB string) error {
	a, err := loadReport(pathA)
	if err != nil {
		return err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return err
	}
	var failures []string
	fmt.Printf("%-18s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.workload(w.Name), b.workload(w.Name)
		if wa == nil || wb == nil {
			failures = append(failures, w.Name+": missing from a report")
			continue
		}
		for _, d := range endToEnd {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			worse := worsening(d, sa.Median, sb.Median)
			verdict := "same"
			switch {
			case sa.Spread > d.Bound || sb.Spread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			case -worse > d.Bound:
				verdict = "better"
			}
			if verdict == "worse" || (mode == "agree" && verdict != "same") {
				failures = append(failures, fmt.Sprintf("%s %s: %s", w.Name, d.Name, verdict))
			}
			fmt.Printf("%-18s %-12s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", w.Name, d.Name, sa.Median, sb.Median, -100*worse, 100*d.Bound, verdict)
		}
		shareA := float64(wa.Failed) / float64(max(wa.Attempted, 1))
		shareB := float64(wb.Failed) / float64(max(wb.Attempted, 1))
		if shareB > shareA || (mode == "agree" && shareA != shareB) {
			failures = append(failures, fmt.Sprintf("%s failed_share: %g -> %g", w.Name, shareA, shareB))
		}
		if !wb.Correct || (mode == "agree" && !wa.Correct) {
			failures = append(failures, w.Name+": outputs incorrect")
		}
		if mode == "agree" && a.Seed == b.Seed && a.Seconds == b.Seconds {
			for _, d := range perLayer {
				if d.Count && reportsOn(d, w.Name) && wa.PerLayer[d.Name].Median != wb.PerLayer[d.Name].Median {
					failures = append(failures, fmt.Sprintf("%s %s: count %g != %g", w.Name, d.Name, wa.PerLayer[d.Name].Median, wb.PerLayer[d.Name].Median))
				}
			}
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("FAIL", f)
		}
		return errors.New(mode + ": " + failures[0])
	}
	fmt.Println(mode + ": ok")
	return nil
}
