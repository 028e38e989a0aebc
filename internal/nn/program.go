package nn

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// A Program is a network frozen for inference at one fixed input
// shape: layers are fused into ops (convolution + batch-norm + ReLU
// collapse into a single GEMM or depthwise pass whose epilogue applies
// the folded scale/shift and activation in the write-back), every
// intermediate shape is resolved at compile time, and execution writes
// into a Workspace's preallocated slot buffers so the steady state
// performs zero heap allocations. Every other layer runs as its own op
// through the loop its Forward uses, except a stand-alone batch-norm,
// which runs its running-statistics loop (inferInto). Programs are the
// only inference engine; Forward is the training pass.
//
// Programs never serve stale weights. The weight matrix of every GEMM
// op is kept in the layout its kernel consumes, packed on the first run
// that reaches the op and shared by every Workspace; each execution
// compares the copy's stamp with the Param's version and repacks, in
// place, only when the Param was Touched since (see Param). A
// batch-norm's fold (its scale and shift) is kept the same way, per op,
// and recomputed only when gamma or beta was Touched or a training
// Forward moved the running statistics since. Everything else —
// biases, the weights of a depthwise op (its kernel reads them in
// place) — is read live at execution time. So training a network and
// running its compiled program interleave safely, and the program never
// touches training state (activation caches, pooling argmaxes,
// batch-norm batch statistics).
//
// A Program's structure is immutable after Compile and it is safe to
// share across goroutines; each concurrent executor needs its own
// Workspace. As before, writing weights while a run is in flight is a
// data race; runs that start after the write and its Touch see the new
// weights.
type Program struct {
	name    string
	inShape []int
	ops     []progOp
	slots   []slotSpec
	byName  map[string]int // layer name -> op producing its output
}

// packedWeights is what one op derives from its layer's parameters
// ahead of running: a weight matrix in the layout its kernel consumes,
// or a batch-norm's fold. It is owned by the Program and shared by its
// executors.
type packedWeights struct {
	version func() uint64 // moves whenever an input of pack changes
	size    int
	pack    func(dst []float32) // lowers the live parameters into dst

	mu    sync.Mutex
	stamp atomic.Uint64 // version + 1 at the last pack; 0: never packed
	data  []float32
}

// fresh returns the packed copy, first repacking it if its version
// moved since the last pack. The steady state is an atomic load, a
// version read and one compare. Executors that find the copy stale at
// the same time serialize on mu and all but the first find it fresh
// again; no executor can still be reading the old copy, since the
// parameter write that staled it already had to be ordered after every
// earlier run.
func (pw *packedWeights) fresh() []float32 {
	if pw.stamp.Load() != pw.version()+1 {
		pw.repack()
	}
	return pw.data
}

func (pw *packedWeights) repack() {
	pw.mu.Lock()
	defer pw.mu.Unlock()
	v := pw.version() + 1
	if pw.stamp.Load() == v {
		return
	}
	if pw.data == nil {
		pw.data = make([]float32, pw.size)
	}
	pw.pack(pw.data)
	pw.stamp.Store(v)
}

// freshFold returns a batch-norm fold's scale and shift (see bnFold).
func (pw *packedWeights) freshFold() (scale, shift []float32) {
	d := pw.fresh()
	c := len(d) / 2
	return d[:c:c], d[c:]
}

type opKind int

const (
	opConv opKind = iota
	opDepthwise
	opDense
	opBatchNorm
	opReLU
	opMaxPool
	opGlobalAvgPool
	opGlobalMax
	opView // shape-only (Flatten): output slot aliases the input slot
)

type progOp struct {
	kind opKind
	name string // the last fused source layer: the tap address
	in   int    // input slot, -1 = program input
	out  int    // output slot

	// pw is the packed weight copy of a conv or dense op (every one
	// runs GemmInPlace, whatever its row count); nil for the other ops,
	// a depthwise op included: its kernel reads the weights live.
	pw *packedWeights
	// stage is a conv op's slot for its input staged with a zero halo
	// (convGeom.stage); -1 when every tap lies inside the input.
	stage int
	// fold is the batch-norm fold of a batch-norm op, or of one fused
	// into a conv or depthwise op; nil otherwise.
	fold *packedWeights

	bn    *BatchNorm // a stand-alone batch-norm op's layer
	conv  *Conv2D
	dw    *DepthwiseConv2D
	dense *Dense
	act   *ReLU
	mp    *MaxPool2D
	gap   *GlobalAvgPool
	gmax  *GlobalMax

	g      convGeom        // conv/depthwise geometry
	dwRows [][]tensor.Span // depthwise: each output row's spans and taps
	batch  int             // dense: rows
}

type slotSpec struct {
	shape   []int
	aliasOf int // -1: owns storage; else: view over that slot's data
}

// Compile freezes net for inference at the given input shape. It
// returns an error if the network contains a layer type the program
// executor does not support.
func Compile(net *Network, inShape []int) (*Program, error) {
	return CompileLayers(net.NetName, net.Layers(), inShape)
}

// CompileLayers freezes an explicit layer sequence (a sub-network,
// e.g. the head of a windowed microclassifier) for inference.
func CompileLayers(name string, layers []Layer, inShape []int) (*Program, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("nn: compile %q: no layers", name)
	}
	p := &Program{
		name:    name,
		inShape: append([]int(nil), inShape...),
		byName:  make(map[string]int),
	}
	shape := append([]int(nil), inShape...)
	cur := -1 // current slot holding the running activation

	addSlot := func(s []int, alias int) int {
		p.slots = append(p.slots, slotSpec{shape: append([]int(nil), s...), aliasOf: alias})
		return len(p.slots) - 1
	}
	emit := func(op progOp) {
		p.ops = append(p.ops, op)
		p.byName[op.name] = len(p.ops) - 1
		cur = op.out
	}
	// packedB keeps w (k×n row-major) in the program in PackB panels.
	packedB := func(k, n int, w *Param) *packedWeights {
		return &packedWeights{version: w.version.Load, size: tensor.PackBSize(k, n),
			pack: func(dst []float32) { tensor.PackB(k, n, w.Value.Data, dst) }}
	}
	// folded keeps bn's fold in the program.
	folded := func(bn *BatchNorm) *packedWeights {
		return &packedWeights{version: bn.version, size: 2 * bn.Channels,
			pack: func(dst []float32) { bnFold(bn, dst) }}
	}

	i := 0
	for i < len(layers) {
		l := layers[i]
		consumed := 1
		switch t := l.(type) {
		case *Conv2D:
			op := progOp{kind: opConv, conv: t, in: cur, name: t.LayerName}
			op.g = t.geom(shape)
			shape = t.OutShape(shape)
			if bn, ok := fuseBN(layers, i+consumed, op.g.f); ok {
				op.fold, op.name = folded(bn), bn.LayerName
				consumed++
			}
			if r, ok := fuseReLU(layers, i+consumed); ok {
				op.act, op.name = r, r.LayerName
				consumed++
			}
			op.pw = packedB(op.g.colWidth(), op.g.f, t.W)
			op.stage = -1
			if !op.g.inPlace() {
				hs, ws := op.g.staged()
				op.stage = addSlot([]int{op.g.n, hs, ws, op.g.ic}, -1)
			}
			op.out = addSlot(shape, -1)
			emit(op)

		case *DepthwiseConv2D:
			op := progOp{kind: opDepthwise, dw: t, in: cur, name: t.LayerName}
			op.g = t.geom(shape)
			op.dwRows = op.g.dwRows()
			shape = t.OutShape(shape)
			if bn, ok := fuseBN(layers, i+consumed, op.g.ic); ok {
				op.fold, op.name = folded(bn), bn.LayerName
				consumed++
			}
			if r, ok := fuseReLU(layers, i+consumed); ok {
				op.act, op.name = r, r.LayerName
				consumed++
			}
			op.out = addSlot(shape, -1)
			emit(op)

		case *Dense:
			op := progOp{kind: opDense, dense: t, in: cur, name: t.LayerName}
			op.batch = t.OutShape(shape)[0]
			shape = t.OutShape(shape)
			if r, ok := fuseReLU(layers, i+consumed); ok {
				op.act, op.name = r, r.LayerName
				consumed++
			}
			op.pw = packedB(t.In, t.Out, t.W)
			op.out = addSlot(shape, -1)
			emit(op)

		case *BatchNorm:
			op := progOp{kind: opBatchNorm, bn: t, fold: folded(t), in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, -1)
			emit(op)

		case *ReLU:
			op := progOp{kind: opReLU, act: t, in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, -1)
			emit(op)

		case *MaxPool2D:
			op := progOp{kind: opMaxPool, mp: t, in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, -1)
			emit(op)

		case *GlobalAvgPool:
			op := progOp{kind: opGlobalAvgPool, gap: t, in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, -1)
			emit(op)

		case *GlobalMax:
			op := progOp{kind: opGlobalMax, gmax: t, in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, -1)
			emit(op)

		case *Flatten:
			if cur < 0 {
				return nil, fmt.Errorf("nn: compile %q: %s cannot be the first layer", name, t.LayerName)
			}
			op := progOp{kind: opView, in: cur, name: t.LayerName}
			shape = t.OutShape(shape)
			op.out = addSlot(shape, cur)
			emit(op)

		default:
			return nil, fmt.Errorf("nn: compile %q: unsupported layer %T (%s)", name, l, l.Name())
		}
		i += consumed
	}
	return p, nil
}

// fuseBN returns the batch-norm at layers[i] when it can fold into a
// preceding convolution with c output channels.
func fuseBN(layers []Layer, i, c int) (*BatchNorm, bool) {
	if i >= len(layers) {
		return nil, false
	}
	bn, ok := layers[i].(*BatchNorm)
	if !ok || bn.Channels != c {
		return nil, false
	}
	return bn, true
}

func fuseReLU(layers []Layer, i int) (*ReLU, bool) {
	if i >= len(layers) {
		return nil, false
	}
	r, ok := layers[i].(*ReLU)
	return r, ok
}

// Name returns the program's name.
func (p *Program) Name() string { return p.name }

// OpIndex resolves a layer name to the index of the op that produces
// that layer's output (fused groups are addressed by their last
// layer). It reports false for names whose intermediate value does not
// exist in the fused program.
func (p *Program) OpIndex(layerName string) (int, bool) {
	i, ok := p.byName[layerName]
	return i, ok
}

// NewWorkspace allocates the arena a single executor needs: one buffer
// per op output and per staged convolution input, all sized at compile
// time (packed weights and depthwise span lists live in the Program, not
// here). Workspaces are not safe for concurrent use; allocate one per
// goroutine and reuse it across frames — after the first Run the
// steady state allocates nothing.
func (p *Program) NewWorkspace() *Workspace {
	ws := &Workspace{
		prog: p,
		bufs: make([]*tensor.Tensor, len(p.slots)),
	}
	for i, s := range p.slots {
		if s.aliasOf >= 0 {
			ws.bufs[i] = ws.bufs[s.aliasOf].Reshape(s.shape...)
		} else {
			ws.bufs[i] = tensor.New(s.shape...)
		}
	}
	return ws
}

// Workspace is the per-executor arena for one compiled Program: slot
// buffers for every op output and for every convolution input staged
// with a zero halo. A staging slot's halo is zero from allocation and
// no run writes it. See Program.NewWorkspace.
type Workspace struct {
	prog *Program
	bufs []*tensor.Tensor
}

// Run executes the whole program on x and returns the final
// activation. The returned tensor is workspace memory: it stays valid
// until the next Run on this workspace.
func (p *Program) Run(ws *Workspace, x *tensor.Tensor) *tensor.Tensor {
	return p.RunTo(ws, x, len(p.ops)-1)
}

// RunTo executes ops [0, upto] and returns op upto's output (workspace
// memory, valid until the next Run). Earlier op outputs remain
// readable via Output, which is how multi-tap extraction reads several
// stages from one pass.
func (p *Program) RunTo(ws *Workspace, x *tensor.Tensor, upto int) *tensor.Tensor {
	if ws.prog != p {
		panic(fmt.Sprintf("nn: workspace belongs to program %q, not %q", ws.prog.name, p.name))
	}
	if len(x.Shape) != len(p.inShape) {
		panic(fmt.Sprintf("nn: program %q compiled for shape %v, got %v", p.name, p.inShape, x.Shape))
	}
	for i, d := range p.inShape {
		if x.Shape[i] != d {
			panic(fmt.Sprintf("nn: program %q compiled for shape %v, got %v", p.name, p.inShape, x.Shape))
		}
	}
	for oi := 0; oi <= upto; oi++ {
		op := &p.ops[oi]
		in := x
		if op.in >= 0 {
			in = ws.bufs[op.in]
		}
		out := ws.bufs[op.out]
		p.exec(ws, op, in, out)
	}
	return ws.bufs[p.ops[upto].out]
}

// Output returns op opIdx's activation from the last Run/RunTo that
// reached it (workspace memory).
func (p *Program) Output(ws *Workspace, opIdx int) *tensor.Tensor {
	return ws.bufs[p.ops[opIdx].out]
}

func (p *Program) exec(ws *Workspace, op *progOp, in, out *tensor.Tensor) {
	switch op.kind {
	case opConv:
		ep := tensor.Epilogue{Bias: op.conv.B.Value.Data}
		if op.fold != nil {
			ep.Scale, ep.Shift = op.fold.freshFold()
		}
		if op.act != nil {
			ep.ReLU, ep.Cap = true, op.act.Cap
		}
		g := op.g
		x := in.Data
		if op.stage >= 0 {
			x = ws.bufs[op.stage].Data
			g.stage(in.Data, x)
		}
		rows := g.rows(x)
		tensor.GemmInPlace(g.n*g.oh*g.ow, g.f, &rows, op.pw.fresh(), out.Data, &ep)

	case opDepthwise:
		ep := tensor.Epilogue{Bias: op.dw.B.Value.Data}
		if op.fold != nil {
			ep.Scale, ep.Shift = op.fold.freshFold()
		}
		if op.act != nil {
			ep.ReLU, ep.Cap = true, op.act.Cap
		}
		// Inline loop, no closure: the arena path stays allocation-free.
		for job := 0; job < op.g.n*op.g.oh; job++ {
			depthwiseRow(op.g, op.dwRows, in.Data, op.dw.W.Value.Data, out.Data, &ep, job)
		}

	case opDense:
		ep := tensor.Epilogue{Bias: op.dense.B.Value.Data}
		if op.act != nil {
			ep.ReLU, ep.Cap = true, op.act.Cap
		}
		d := op.dense
		rows := tensor.Matrix(in.Data, d.In)
		tensor.GemmInPlace(op.batch, d.Out, &rows, op.pw.fresh(), out.Data, &ep)

	case opBatchNorm:
		scale, shift := op.fold.freshFold()
		op.bn.inferInto(in.Data, out.Data, scale, shift)

	case opReLU:
		op.act.forwardInto(in.Data, out.Data)

	case opMaxPool:
		op.mp.forwardInto(in, out, nil)

	case opGlobalAvgPool:
		op.gap.forwardInto(in, out)

	case opGlobalMax:
		op.gmax.forwardInto(in, out, nil)

	case opView:
		// Output aliases input storage; nothing to compute.
	}
}
