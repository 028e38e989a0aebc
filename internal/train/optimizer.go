package train

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and
// zeroes the gradients afterwards.
type Optimizer interface {
	// Step applies one update to every parameter and Touches it, so
	// compiled programs over the same network repack what moved.
	Step(params []*nn.Param)
}

// SGD is stochastic gradient descent with optional momentum and L2
// weight decay.
type SGD struct {
	// LR is the learning rate.
	LR float32
	// Momentum in [0,1); 0 disables the velocity term.
	Momentum float32
	// WeightDecay is the L2 penalty coefficient applied to weights.
	WeightDecay float32

	velocity map[*nn.Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum, weightDecay float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, WeightDecay: weightDecay,
		velocity: make(map[*nn.Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (s *SGD) Step(params []*nn.Param) {
	for _, p := range params {
		g := p.Grad
		if s.WeightDecay != 0 {
			g.AXPY(s.WeightDecay, p.Value)
		}
		if s.Momentum != 0 {
			v := s.velocity[p]
			if v == nil {
				v = tensor.New(p.Value.Shape...)
				s.velocity[p] = v
			}
			v.Scale(s.Momentum)
			v.AXPY(1, g)
			p.Value.AXPY(-s.LR, v)
		} else {
			p.Value.AXPY(-s.LR, g)
		}
		p.Touch()
		g.Zero()
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	// LR is the learning rate.
	LR float32
	// Beta1 and Beta2 are the first/second moment decay rates.
	Beta1, Beta2 float32
	// Eps stabilizes the denominator.
	Eps float32
	// WeightDecay is the L2 penalty coefficient.
	WeightDecay float32

	t int
	m map[*nn.Param]*tensor.Tensor
	v map[*nn.Param]*tensor.Tensor
}

// NewAdam returns an Adam optimizer with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float32) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*nn.Param]*tensor.Tensor), v: make(map[*nn.Param]*tensor.Tensor)}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.t)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.t)))
	for _, p := range params {
		g := p.Grad
		if a.WeightDecay != 0 {
			g.AXPY(a.WeightDecay, p.Value)
		}
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.Value.Shape...)
			v = tensor.New(p.Value.Shape...)
			a.m[p], a.v[p] = m, v
		}
		for i, gv := range g.Data {
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*gv
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*gv*gv
			mhat := m.Data[i] / bc1
			vhat := v.Data[i] / bc2
			p.Value.Data[i] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
		p.Touch()
		g.Zero()
	}
}
