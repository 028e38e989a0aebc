package filter

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/vision"
)

// TestPushReturnedSliceReusedByNextPush pins the Push contract the
// edge's shared MC fan-out depends on: the returned slice is backed by
// a buffer the SAME MC reuses on its next Push, so a caller that holds
// on to it across frames must copy. Pushes on
// other MC instances leave it untouched — which is why interleaving
// two MCs within one frame is safe, and why the
// hazard only appears when a stored slice outlives its own MC's next
// Push.
func TestPushReturnedSliceReusedByNextPush(t *testing.T) {
	base := testBase(t)
	newMC := func(seed int64) *MC {
		mc, err := NewMC(Spec{Name: "mc", Arch: PoolingClassifier, Seed: seed}, base, 48, 27)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	incumbent := newMC(3)
	candidate := newMC(9)
	clone := newMC(9) // identical weights: NewMC is seed-deterministic

	maps := func(seed int64) *tensor.Tensor {
		img := vision.Background(48, 27, nil, seed)
		fm, err := base.Extract(img.ToTensor(), candidate.Stage())
		if err != nil {
			t.Fatal(err)
		}
		return fm
	}
	fmA, fmB := maps(2), maps(77)

	clsA := candidate.Push(fmA)
	if len(clsA) != 1 {
		t.Fatalf("pooling classifier emitted %d classifications", len(clsA))
	}
	probA := clsA[0].Prob

	// Interleaved pushes on a different instance (the incumbent
	// scoring the same and the next frame) must not disturb the
	// candidate's returned slice: each MC owns its output buffer.
	incumbent.Push(fmA)
	incumbent.Push(fmB)
	if clsA[0].Prob != probA {
		t.Fatalf("incumbent push clobbered candidate's slice: %v -> %v", probA, clsA[0].Prob)
	}

	// The candidate's OWN next Push reuses the backing buffer — the
	// old slice is invalidated in place. This is why the edge pipeline
	// reads each MC's Push result within the frame and has MCs record
	// their scores inside Push (InstrumentScores) rather than keep the
	// slice; if Push ever switches to fresh allocations, this
	// pin should be revisited.
	clsB := candidate.Push(fmB)
	if len(clsB) != 1 {
		t.Fatalf("pooling classifier emitted %d classifications", len(clsB))
	}
	if &clsA[0] != &clsB[0] {
		t.Fatal("Push no longer reuses its output buffer across pushes")
	}
	wantB := clone.Push(fmB)[0].Prob
	if wantB != probA && clsA[0].Prob != wantB {
		t.Fatalf("stale slice shows %v after next Push, want frame B's %v", clsA[0].Prob, wantB)
	}
}
