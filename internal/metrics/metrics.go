// Package metrics implements the paper's accuracy measures (§4.2):
// the range-based EventRecall of Lee et al. 2018 with existence and
// overlap terms, standard frame-level precision, and their harmonic
// mean, the event F1 score used throughout the evaluation.
package metrics

import (
	"fmt"

	"repro/internal/dataset"
)

// alpha and beta are the paper's EventRecall weights: α=0.9 rewards
// detecting at least one frame of each event, β=0.1 rewards covering
// more of it.
const (
	alpha = 0.9
	beta  = 0.1
)

// eventRecall computes the mean of α·Existence_i + β·Overlap_i over
// ground-truth events. predicted[i] is the smoothed per-frame
// prediction. Returns 0 when there are no events.
func eventRecall(events []dataset.Range, predicted []bool) float64 {
	if len(events) == 0 {
		return 0
	}
	var total float64
	for _, e := range events {
		detected := 0
		for f := e.Start; f < e.End && f < len(predicted); f++ {
			if predicted[f] {
				detected++
			}
		}
		existence := 0.0
		if detected > 0 {
			existence = 1.0
		}
		overlap := float64(detected) / float64(e.Len())
		total += alpha*existence + beta*overlap
	}
	return total / float64(len(events))
}

// precision is the standard frame-level precision: the fraction of
// predicted-positive frames that are truly positive. For
// FilterForward this is exactly the fraction of uplink bandwidth spent
// on relevant frames (§4.2). Returns 0 when nothing was predicted.
func precision(truth, predicted []bool) float64 {
	if len(truth) != len(predicted) {
		panic(fmt.Sprintf("metrics: %d truth vs %d predicted frames", len(truth), len(predicted)))
	}
	tp, fp := 0, 0
	for i, p := range predicted {
		if !p {
			continue
		}
		if truth[i] {
			tp++
		} else {
			fp++
		}
	}
	if tp+fp == 0 {
		return 0
	}
	return float64(tp) / float64(tp+fp)
}

// Result bundles the paper's accuracy numbers for one evaluation run.
type Result struct {
	// Precision is frame-level precision.
	Precision float64
	// Recall is the range-based EventRecall.
	Recall float64
	// F1 is the harmonic mean of Precision and Recall — the paper's
	// event F1 score.
	F1 float64
}

// Evaluate computes precision, event recall, and event F1 for a
// predicted label sequence against ground truth labels.
func Evaluate(truth, predicted []bool) Result {
	events := dataset.EventsFromLabels(truth)
	p := precision(truth, predicted)
	r := eventRecall(events, predicted)
	return Result{Precision: p, Recall: r, F1: f1(p, r)}
}

// f1 returns the harmonic mean of precision and recall (0 when both
// are 0).
func f1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// thresholdSweep evaluates predictions at multiple score thresholds
// and returns the results, one per threshold. scores are per-frame
// classifier probabilities; smoothing (if any) must already be
// applied by the caller via smooth.
func thresholdSweep(truth []bool, scores []float32, thresholds []float32, smooth func([]bool) []bool) []Result {
	out := make([]Result, len(thresholds))
	for ti, th := range thresholds {
		pred := make([]bool, len(scores))
		for i, s := range scores {
			pred[i] = s >= th
		}
		if smooth != nil {
			pred = smooth(pred)
		}
		out[ti] = Evaluate(truth, pred)
	}
	return out
}

// BestF1 returns the Result with the highest F1 from a sweep, and its
// threshold.
func BestF1(truth []bool, scores []float32, thresholds []float32, smooth func([]bool) []bool) (Result, float32) {
	results := thresholdSweep(truth, scores, thresholds, smooth)
	best, bestTh := Result{}, float32(0.5)
	for i, r := range results {
		if r.F1 > best.F1 {
			best, bestTh = r, thresholds[i]
		}
	}
	return best, bestTh
}
