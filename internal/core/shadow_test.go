package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/filter"
	"repro/internal/obs"
)

// TestShadowScoreParityWithInterleavedPushes runs a canary candidate
// in the shadow slot next to a live incumbent and checks its score
// sketch against a reference node where the same weights run as the
// only live MC, before and after Flush. The shadow is pushed in the
// same fan-out as the incumbent and records its scores through its
// own MC (InstrumentScores), so exact parity pins that interleaved
// pushes — concurrent ones with several workers — record the
// candidate's own scores, never another MC's buffer or a stale frame,
// and that Flush drains a windowed candidate's tail into its sketch.
func TestShadowScoreParityWithInterleavedPushes(t *testing.T) {
	const frames = 12
	for _, arch := range []filter.Arch{filter.PoolingClassifier, filter.WindowedLocalizedBinary} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/workers=%d", arch, workers), func(t *testing.T) {
				base := testBase()
				cfg := Config{FrameWidth: 48, FrameHeight: 27, Base: base, UploadBitrate: 1000, MCWorkers: workers}
				newMC := func(seed int64) *filter.MC {
					mc, err := filter.NewMC(filter.Spec{Name: "mc", Arch: arch, Seed: seed}, base, 48, 27)
					if err != nil {
						t.Fatal(err)
					}
					return mc
				}

				// Node under test: incumbent live (always-match threshold
				// keeps the event pipeline busy), candidate in the shadow
				// slot.
				e, err := NewEdgeNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Deploy(newMC(3), -1); err != nil {
					t.Fatal(err)
				}
				if err := e.DeployShadow(newMC(9), 0.5, 1); err != nil {
					t.Fatal(err)
				}

				// Reference: the same candidate weights as the only live MC.
				ref, err := NewEdgeNode(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.Deploy(newMC(9), 0.5); err != nil {
					t.Fatal(err)
				}

				for _, f := range testFrames(frames) {
					if _, err := e.ProcessFrame(f); err != nil {
						t.Fatal(err)
					}
					if _, err := ref.ProcessFrame(f); err != nil {
						t.Fatal(err)
					}
				}
				compare := func(when string) obs.SketchSnapshot {
					got := e.ShadowSketches()["mc"]
					want := ref.ScoreSketches()["mc"]
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: shadow sketch diverged from reference run:\n got %+v\nwant %+v", when, got, want)
					}
					return got
				}
				compare("before flush")
				if _, err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Flush(); err != nil {
					t.Fatal(err)
				}
				if got := compare("after flush"); got.Count != frames {
					t.Fatalf("shadow scored %d frames, want %d", got.Count, frames)
				}
			})
		}
	}
}

// TestPromoteShadow swaps a shadow candidate into the live slot of the
// second of two incumbents and checks the swap's contract: the
// incumbent's open event is closed and returned, the candidate takes
// the incumbent's place in deployment order and starts assembling
// events, its scores reach the node aggregate only once it is live,
// and no shadow is left behind.
func TestPromoteShadow(t *testing.T) {
	base := testBase()
	o := obs.NewObserver(obs.Options{})
	e, err := NewEdgeNode(Config{FrameWidth: 48, FrameHeight: 27, Base: base, UploadBitrate: 1000, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	newMC := func(name string, seed int64) *filter.MC {
		mc, err := filter.NewMC(filter.Spec{Name: name, Arch: filter.PoolingClassifier, Seed: seed}, base, 48, 27)
		if err != nil {
			t.Fatal(err)
		}
		return mc
	}
	// "a" never matches; "b" and the candidate always do, so "b" holds
	// an open event at promotion and the candidate opens its own after.
	if err := e.Deploy(newMC("a", 1), 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Deploy(newMC("b", 2), -1); err != nil {
		t.Fatal(err)
	}
	cand := newMC("b", 7)
	if err := e.DeployShadow(cand, -1, 5); err != nil {
		t.Fatal(err)
	}

	const before, after = 10, 6
	frames := testFrames(before + after)
	for _, f := range frames[:before] {
		if _, err := e.ProcessFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := o.Scores.Count(); got != 2*before {
		t.Fatalf("node aggregate counted %d scores before promotion, want %d (live MCs only)", got, 2*before)
	}
	if got := e.ShadowSketches()["b"].Count; got != before {
		t.Fatalf("shadow sketch counted %d scores, want %d", got, before)
	}

	ups, err := e.PromoteShadow("b")
	if err != nil {
		t.Fatal(err)
	}
	if len(ups) == 0 {
		t.Fatal("promotion returned none of the incumbent's final uploads")
	}
	if last := ups[len(ups)-1]; last.MCName != "b" || !last.Final || last.End != before {
		t.Fatalf("incumbent's last upload = %+v, want a final \"b\" upload ending at frame %d", last, before)
	}
	if got := e.MCNames(); !slices.Equal(got, []string{"a", "b"}) {
		t.Fatalf("MCNames after promotion = %v, want [a b]", got)
	}
	if e.MC("b") != cand {
		t.Fatal("the live \"b\" slot does not run the promoted candidate")
	}
	if n, ep := e.ShadowNames(), e.ShadowEpochs(); len(n) != 0 || len(ep) != 0 {
		t.Fatalf("shadow left behind after promotion: names %v, epochs %v", n, ep)
	}

	var live []Upload
	for _, f := range frames[before:] {
		u, err := e.ProcessFrame(f)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, u...)
	}
	tail, err := e.Flush()
	if err != nil {
		t.Fatal(err)
	}
	live = append(live, tail...)
	if got := o.Scores.Count(); got != 2*(before+after) {
		t.Fatalf("node aggregate counted %d scores after promotion, want %d", got, 2*(before+after))
	}
	if got := e.ScoreSketches()["b"].Count; got != before+after {
		t.Fatalf("promoted sketch counted %d scores, want %d (shadow period kept)", got, before+after)
	}
	if len(live) == 0 {
		t.Fatal("promoted candidate produced no uploads")
	}
	for _, u := range live {
		if u.MCName != "b" || u.Start < before {
			t.Fatalf("upload %+v after promotion, want only \"b\" uploads from frame %d on", u, before)
		}
	}
}
