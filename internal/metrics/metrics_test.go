package metrics

import (
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
)

func TestEventRecallExistenceDominates(t *testing.T) {
	events := []dataset.Range{{Start: 0, End: 10}}
	pred := make([]bool, 10)
	pred[3] = true // one detected frame
	got := eventRecall(events, pred)
	want := 0.9*1 + 0.1*0.1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("recall = %v, want %v", got, want)
	}
}

func TestEventRecallFullOverlap(t *testing.T) {
	events := []dataset.Range{{Start: 2, End: 6}}
	pred := []bool{false, false, true, true, true, true, false}
	got := eventRecall(events, pred)
	if math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("recall = %v, want 1", got)
	}
}

func TestEventRecallMissedEvent(t *testing.T) {
	events := []dataset.Range{{Start: 0, End: 5}, {Start: 10, End: 15}}
	pred := make([]bool, 15)
	for f := 10; f < 15; f++ {
		pred[f] = true
	}
	got := eventRecall(events, pred)
	if math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("recall = %v, want 0.5", got)
	}
}

func TestEventRecallNoEvents(t *testing.T) {
	if eventRecall(nil, []bool{true}) != 0 {
		t.Fatal("recall with no events should be 0")
	}
}

func TestPrecision(t *testing.T) {
	truth := []bool{true, true, false, false}
	pred := []bool{true, false, true, false}
	if got := precision(truth, pred); got != 0.5 {
		t.Fatalf("precision = %v, want 0.5", got)
	}
	if precision(truth, []bool{false, false, false, false}) != 0 {
		t.Fatal("empty prediction precision should be 0")
	}
}

func TestPerfectPredictionsScoreOne(t *testing.T) {
	truth := []bool{false, true, true, false, true}
	r := Evaluate(truth, truth)
	if r.Precision != 1 || math.Abs(r.Recall-1) > 1e-9 || math.Abs(r.F1-1) > 1e-9 {
		t.Fatalf("perfect eval = %+v", r)
	}
}

func TestF1HarmonicMean(t *testing.T) {
	if f1(0, 0) != 0 {
		t.Fatal("f1(0,0) != 0")
	}
	if got := f1(1, 0.5); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("f1(1,0.5) = %v", got)
	}
}

func TestPrecisionIsBandwidthFraction(t *testing.T) {
	// Precision 1.0 means all uploaded frames are relevant (§4.2): a
	// prediction that uploads only true positives has precision 1 even
	// if it misses frames.
	truth := []bool{true, true, true, false, false}
	pred := []bool{true, false, false, false, false}
	if precision(truth, pred) != 1 {
		t.Fatal("subset of true positives should have precision 1")
	}
}

func TestThresholdSweepMonotoneCoverage(t *testing.T) {
	truth := []bool{false, true, true, false}
	scores := []float32{0.1, 0.9, 0.6, 0.2}
	rs := thresholdSweep(truth, scores, []float32{0.5, 0.95}, nil)
	if rs[0].Recall <= rs[1].Recall {
		t.Fatalf("lower threshold should not reduce recall: %+v", rs)
	}
}

func TestBestF1PicksMax(t *testing.T) {
	truth := []bool{false, true, true, false}
	scores := []float32{0.4, 0.9, 0.6, 0.45}
	r, th := BestF1(truth, scores, []float32{0.3, 0.5, 0.7, 0.95}, nil)
	if th != 0.5 {
		t.Fatalf("best threshold = %v, want 0.5 (result %+v)", th, r)
	}
	if math.Abs(r.F1-1) > 1e-9 {
		t.Fatalf("best F1 = %v, want 1", r.F1)
	}
}

func TestEvaluateMismatchedLengthsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	precision([]bool{true}, []bool{true, false})
}

func TestSummarizeFleetLatencyMergesExactly(t *testing.T) {
	var fast, slow, all obs.Histogram
	for i := int64(0); i < 100; i++ {
		fast.ObserveNs(8 + i%32)
		all.ObserveNs(8 + i%32)
	}
	for i := int64(0); i < 10; i++ {
		slow.ObserveNs(100 + 40*i)
		all.ObserveNs(100 + 40*i)
	}
	sum := SummarizeFleet([]NodeLoad{
		{Node: "a/cam0", ExtractLat: fast.Snapshot(), QueueWaitLat: slow.Snapshot()},
		{Node: "b/cam0", ExtractLat: slow.Snapshot(), QueueWaitLat: fast.Snapshot()},
		{Node: "b/cam1"}, // second stream of node b: empty histograms, no double count
	})
	// Both rollups hold every observation once: the snapshot of one
	// histogram fed all of them, not the worse node's quantiles.
	want := all.Snapshot()
	if sum.ExtractLat != want || sum.QueueWaitLat != want {
		t.Fatalf("latency rollup %+v / %+v, want %+v", sum.ExtractLat, sum.QueueWaitLat, want)
	}
	if p50, slowP50 := sum.ExtractLat.Quantile(0.50), slow.Quantile(0.50); p50 >= slowP50 {
		t.Fatalf("fleet p50 %d is the slow node's (%d), not the fleet's", p50, slowP50)
	}
	// Empty histograms on extra per-stream loads contribute nothing.
	if sum.MCPushLat != (obs.HistSnapshot{}) {
		t.Fatalf("uninstrumented histogram polluted rollup: %+v", sum.MCPushLat)
	}
}
