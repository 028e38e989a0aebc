package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// CheckPacked compares every packed weight copy the program holds with
// a fresh lowering of the live weights, and reports the first op whose
// copy differs (a stale copy) or how many copies it checked.
func (p *Program) CheckPacked() (checked int, err error) {
	for i := range p.ops {
		op := &p.ops[i]
		if op.pw == nil || op.pw.stamp.Load() == 0 {
			continue
		}
		want := make([]float32, op.pw.size)
		switch op.kind {
		case opConv:
			tensor.PackB(op.g.colWidth(), op.g.f, op.conv.W.Value.Data, want)
		case opDense:
			tensor.PackB(op.dense.In, op.dense.Out, op.dense.W.Value.Data, want)
		}
		for j := range want {
			if op.pw.data[j] != want[j] {
				return checked, fmt.Errorf("op %d (%s): packed[%d] = %v, live weights lower to %v", i, op.name, j, op.pw.data[j], want[j])
			}
		}
		checked++
	}
	return checked, nil
}

// Layerwise is the oracle a compiled program is compared with: it runs
// net one layer at a time through each layer's Forward, except that a
// batch-norm runs inferInto, the running-statistics loop, since its
// Forward normalizes by the batch's own statistics. These are the loops
// a program runs, so a program must match the result bit for bit. It
// returns the final output and every layer's output by name.
func Layerwise(net *Network, x *tensor.Tensor) (out *tensor.Tensor, taps map[string]*tensor.Tensor) {
	taps = make(map[string]*tensor.Tensor, len(net.Layers()))
	for _, l := range net.Layers() {
		if bn, ok := l.(*BatchNorm); ok {
			y := tensor.New(x.Shape...)
			scale, shift := bnFold(bn, make([]float32, 2*bn.Channels))
			bn.inferInto(x.Data, y.Data, scale, shift)
			x = y
		} else {
			x = l.Forward(x)
		}
		taps[l.Name()] = x
	}
	return x, taps
}
