package event

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestSmoothKofNMasksSpuriousNegatives(t *testing.T) {
	// A single dropped frame inside an event is recovered by 2-of-5
	// voting.
	raw := []bool{true, true, false, true, true}
	out := SmoothKofN(raw, 5, 2)
	for i, v := range out {
		if !v {
			t.Fatalf("frame %d not recovered: %v", i, out)
		}
	}
}

func TestSmoothKofNSingleSpikeSpreads(t *testing.T) {
	// K=2 requires at least two votes, so one isolated positive frame
	// is suppressed everywhere.
	raw := []bool{false, false, true, false, false, false}
	out := SmoothKofN(raw, 5, 2)
	for i, v := range out {
		if v {
			t.Fatalf("isolated spike survived at %d: %v", i, out)
		}
	}
}

func TestSmoothKofNEdges(t *testing.T) {
	// Clipped windows at the edges still vote correctly.
	raw := []bool{true, true, false, false, false, false, true, true}
	out := SmoothKofN(raw, 5, 2)
	if !out[0] || !out[7] {
		t.Fatalf("edge frames lost: %v", out)
	}
}

func TestSmoothKofNBadParamsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("k>n did not panic")
		}
	}()
	SmoothKofN([]bool{true}, 3, 4)
}

func TestStreamingMatchesBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(64)
		raw := make([]bool, n)
		for i := range raw {
			raw[i] = rng.Float32() < 0.4
		}
		want := SmoothKofN(raw, 5, 2)

		s := NewSmoother(5, 2)
		got := make([]bool, 0, n)
		for _, v := range raw {
			for _, d := range s.Push(v) {
				if d.Frame != len(got) {
					return false
				}
				got = append(got, d.Positive)
			}
		}
		for _, d := range s.Flush() {
			if d.Frame != len(got) {
				return false
			}
			got = append(got, d.Positive)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamingLag(t *testing.T) {
	s := NewSmoother(5, 2)
	// With N=5 the smoother cannot decide frame 0 until frame 2 is
	// pushed.
	if ds := s.Push(true); len(ds) != 0 {
		t.Fatalf("decided too early: %v", ds)
	}
	if ds := s.Push(true); len(ds) != 0 {
		t.Fatalf("decided too early: %v", ds)
	}
	ds := s.Push(true)
	if len(ds) != 1 || ds[0].Frame != 0 || !ds[0].Positive {
		t.Fatalf("expected decision for frame 0, got %v", ds)
	}
}

func TestDetectorAssignsMonotonicIDs(t *testing.T) {
	d := NewDetector()
	seq := []bool{false, true, true, false, true, false, false, true}
	var ids []uint64
	for _, p := range seq {
		id, _ := d.Observe(p)
		ids = append(ids, id)
	}
	want := []uint64{0, 1, 1, 0, 2, 0, 0, 3}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
	if seen := d.nextID - 1; seen != 3 {
		t.Fatalf("events started = %d, want 3", seen)
	}
}

func TestDetectorStartFlag(t *testing.T) {
	d := NewDetector()
	_, started := d.Observe(true)
	if !started {
		t.Fatal("first positive frame should start an event")
	}
	_, started = d.Observe(true)
	if started {
		t.Fatal("second frame of the same event should not start one")
	}
	d.Observe(false)
	_, started = d.Observe(true)
	if !started {
		t.Fatal("positive after a gap should start a new event")
	}
}

// TestSmootherZeroAlloc pins steady-state Push at zero allocations:
// the vote ring and the decision buffer are fixed at construction and
// reused, so arbitrarily long streams hold constant memory.
func TestSmootherZeroAlloc(t *testing.T) {
	s := NewSmoother(5, 2)
	// Warm past the smoothing lag so the decision buffer reaches its
	// steady-state capacity.
	for i := 0; i < 10; i++ {
		s.Push(i%3 == 0)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() { s.Push(i%3 == 0); i++ }); n != 0 {
		t.Fatalf("Push allocates %v objects per frame, want 0", n)
	}
}
