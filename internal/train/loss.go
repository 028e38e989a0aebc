// Package train provides the offline training substrate the paper's
// application developers use to fit microclassifiers and discrete
// classifiers: binary cross-entropy losses, first-order optimizers, and
// a mini-batch trainer with class balancing.
package train

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// bceWithLogits computes mean binary cross-entropy between logits and
// {0,1} labels, returning the loss and dLoss/dLogits. Working in logit
// space keeps the gradient numerically stable (sigmoid(z)-y) and avoids
// saturating the final sigmoid during training.
func bceWithLogits(logits *tensor.Tensor, labels []float32) (float64, *tensor.Tensor) {
	if logits.Len() != len(labels) {
		panic(fmt.Sprintf("train: %d logits vs %d labels", logits.Len(), len(labels)))
	}
	n := float64(len(labels))
	grad := tensor.New(logits.Shape...)
	var loss float64
	for i, z := range logits.Data {
		y := float64(labels[i])
		zf := float64(z)
		// log(1+e^z) computed stably.
		var softplus float64
		if zf > 0 {
			softplus = zf + math.Log1p(math.Exp(-zf))
		} else {
			softplus = math.Log1p(math.Exp(zf))
		}
		loss += softplus - y*zf
		p := 1 / (1 + math.Exp(-zf))
		grad.Data[i] = float32((p - y) / n)
	}
	return loss / n, grad
}
