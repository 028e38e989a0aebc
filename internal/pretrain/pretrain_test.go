package pretrain

import (
	"math"
	"testing"

	"repro/internal/mobilenet"
	"repro/internal/tensor"
)

func TestSampleShapesAndClasses(t *testing.T) {
	rng := tensor.NewRNG(1)
	seen := map[int]bool{}
	for i := 0; i < 40; i++ {
		x, class := sample(rng, 32)
		if x.Shape[1] != 32 || x.Shape[2] != 32 || x.Shape[3] != 3 {
			t.Fatalf("sample shape %v", x.Shape)
		}
		if class < 0 || class >= numClasses {
			t.Fatalf("class %d out of range", class)
		}
		seen[class] = true
	}
	if len(seen) < 3 {
		t.Fatalf("pretext classes not diverse: %v", seen)
	}
}

func TestRunReducesLoss(t *testing.T) {
	m := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 2})
	// Snapshot a weight to verify training mutates the base model.
	var before float32
	for _, p := range m.Net.Params() {
		if p.Name == "conv1/weights" {
			before = p.Value.Data[0]
		}
	}
	loss, err := Run(m, Config{Samples: 128, Epochs: 5, InputSize: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || loss >= math.Log(numClasses) {
		t.Fatalf("pretraining made no progress: loss %v (chance %.3f)", loss, math.Log(numClasses))
	}
	for _, p := range m.Net.Params() {
		if p.Name == "conv1/weights" && p.Value.Data[0] == before {
			t.Fatal("pretraining did not update base weights")
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 2})
	b := mobilenet.New(mobilenet.Config{WidthMult: 0.25, BatchNorm: true, Seed: 2})
	la, err := Run(a, Config{Samples: 48, Epochs: 1, InputSize: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Run(b, Config{Samples: 48, Epochs: 1, InputSize: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if la != lb {
		t.Fatalf("pretraining not deterministic: %v vs %v", la, lb)
	}
}
