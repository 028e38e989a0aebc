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
