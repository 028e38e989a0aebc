// Package nn is a pure-Go CPU neural-network engine: the stand-in for
// the Caffe and TensorFlow backends that the FilterForward paper runs
// on. It provides compiled inference (Program), full backpropagation
// (so the repository can train microclassifiers and discrete
// classifiers offline, as the paper's application developers do),
// exact multiply-add accounting matching the paper's §4.5 cost
// formulas, and serialization.
//
// Tensors are NHWC. A compiled Program is the only inference engine. A
// layer's Forward is the training pass: it caches whatever Backward
// needs (batch-norm normalizes by the batch's own statistics), and
// calling Backward without a preceding Forward panics.
package nn

import (
	"fmt"
	"sync/atomic"

	"repro/internal/tensor"
)

// Param is a learnable tensor together with its gradient accumulator.
// Optimizers in internal/train consume Params.
//
// A Param carries a version stamp. Compiled programs keep weight
// matrices in their kernels' packed layout, and batch-norm folds of
// gamma and beta, and compare the stamp on every execution to learn
// when to recompute them, so whoever writes
// Value.Data in place must call Touch afterwards: train.SGD.Step,
// train.Adam.Step and LoadParams do; code that pokes Value.Data
// directly does so itself. The layers' Forward methods read Value
// directly and need no Touch.
type Param struct {
	// Name identifies the parameter for serialization and debugging,
	// e.g. "conv1/weights".
	Name string
	// Value is the current parameter tensor.
	Value *tensor.Tensor
	// Grad accumulates dLoss/dValue during Backward. It has the same
	// shape as Value and is zeroed by optimizers after each step.
	Grad *tensor.Tensor

	version atomic.Uint64 // Touch count
}

// Touch records that Value changed. Like the write it follows, it must
// be ordered before any Program run that is to see the new weights.
func (p *Param) Touch() { p.version.Add(1) }

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...), Grad: tensor.New(shape...)}
}

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name returns the layer's identifier, unique within a Network.
	Name() string
	// Forward computes the layer output of the training pass and
	// caches the activations Backward needs.
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward consumes dLoss/dOutput and returns dLoss/dInput,
	// accumulating parameter gradients along the way.
	Backward(grad *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly none).
	Params() []*Param
	// OutShape maps an input shape (without batch dim for rank-4
	// inputs the batch dim is included; shapes are full tensor shapes)
	// to the output shape.
	OutShape(in []int) []int
	// MAdds returns the number of multiply-accumulate operations this
	// layer performs for a single sample with the given full input
	// shape (batch dim included; the count is for the whole batch).
	MAdds(in []int) int64
}

// Network is an ordered sequence of named layers. A name addresses a
// "tap": the activation of an intermediate layer, which is how
// microclassifiers pull feature maps out of the base DNN (a compiled
// Program reads it, see Program.OpIndex).
type Network struct {
	// NetName labels the network in serialized form and diagnostics.
	NetName string

	layers []Layer
	byName map[string]int
}

// NewNetwork creates an empty network with the given name.
func NewNetwork(name string) *Network {
	return &Network{NetName: name, byName: make(map[string]int)}
}

// Add appends a layer. Layer names must be unique within the network.
func (n *Network) Add(l Layer) *Network {
	if _, dup := n.byName[l.Name()]; dup {
		panic(fmt.Sprintf("nn: duplicate layer name %q in network %q", l.Name(), n.NetName))
	}
	n.byName[l.Name()] = len(n.layers)
	n.layers = append(n.layers, l)
	return n
}

// Layers returns the layer slice in execution order.
func (n *Network) Layers() []Layer { return n.layers }

// LayerNames returns all layer names in execution order.
func (n *Network) LayerNames() []string {
	names := make([]string, len(n.layers))
	for i, l := range n.layers {
		names[i] = l.Name()
	}
	return names
}

// Forward runs the training pass of the full network.
func (n *Network) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates grad through the whole network in reverse,
// returning dLoss/dInput.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.layers) - 1; i >= 0; i-- {
		grad = n.layers[i].Backward(grad)
	}
	return grad
}

// Params returns every learnable parameter in the network.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape maps an input shape through every layer.
func (n *Network) OutShape(in []int) []int {
	for _, l := range n.layers {
		in = l.OutShape(in)
	}
	return in
}

// MAdds returns the total multiply-adds for one forward pass with the
// given input shape.
func (n *Network) MAdds(in []int) int64 {
	var total int64
	for _, l := range n.layers {
		total += l.MAdds(in)
		in = l.OutShape(in)
	}
	return total
}

// MAddsTo returns the multiply-adds of running the network up to and
// including the named layer, plus that layer's output shape — the cost
// a feature extractor pays to serve a tap at that layer.
func (n *Network) MAddsTo(layer string, in []int) (int64, []int) {
	idx, ok := n.byName[layer]
	if !ok {
		panic(fmt.Sprintf("nn: network %q has no layer %q", n.NetName, layer))
	}
	var total int64
	for _, l := range n.layers[:idx+1] {
		total += l.MAdds(in)
		in = l.OutShape(in)
	}
	return total, in
}

// checkRank4 validates an NHWC input shape.
func checkRank4(who string, s []int) (n, h, w, c int) {
	if len(s) != 4 {
		panic(fmt.Sprintf("nn: %s expects rank-4 NHWC input, got shape %v", who, s))
	}
	return s[0], s[1], s[2], s[3]
}
