package tensor

// This file is the inference fast path's compute core: a register-tiled
// single-precision GEMM with a fused epilogue, the primitive that
// convolutions and fully-connected layers in internal/nn all reduce to.
// The left operand, A, is read where it lies — a row-major matrix, or a
// convolution's receptive fields over its input — through an ARows
// descriptor, so nothing lowers or packs A; only B, the weights, is
// packed, once, into column panels (PackB). It is allocation-free, so
// steady-state per-frame inference never touches the garbage collector.
//
// Layout conventions: all matrices are dense row-major. A is m×k, B is
// k×n, C is m×n. The convolution weight layout [K,K,inC,outC] used by
// internal/nn is already the row-major [k*k*inC, outC] matrix this GEMM
// wants, so weights never need transposition.
//
// The microkernel computes a register tile of A rows, each from its own
// base, against one B panel of eight columns, or a pair of them.
// amd64 has two assembly tiers, picked once at package initialization
// (gemm_kernel_amd64.go): a sixteen-lane AVX-512 kernel over eight rows
// and two panels where the CPU has AVX512F, and an eight-lane AVX2
// kernel over eight rows and one panel where it has AVX2. Everything
// else — an amd64 CPU without AVX2, other architectures, -tags purego —
// runs the generic tier, the portable Go 4×8 kernel (gemm_kernel_go.go).
// Every kernel accumulates each output element over k in the same
// sequential multiply-then-add order and then applies the epilogue to
// it in the same order, in registers before its one store, so results
// are bitwise identical across kernels, row splits, and worker counts.

// gemmMR×gemmNR is the tile of the portable 4×8 kernel: four A rows
// against eight B columns. The AVX2 and AVX-512 tiles are tileMax rows
// high.
const (
	gemmMR  = 4
	gemmNR  = 8
	tileMax = 2 * gemmMR
)

// Epilogue describes the fused write-back applied to every GEMM output
// element, in order: add Bias[j], then scale/shift (the inference-time
// batch-norm fold: v*Scale[j]+Shift[j]), then ReLU with optional Cap
// (ReLU6 when Cap=6). All slices are indexed by output column and may
// be nil to skip that step. The GEMM's tile kernels and the depthwise
// span apply it to their accumulators in registers, before their one
// store, so the activation never takes a pass of its own.
type Epilogue struct {
	Bias  []float32
	Scale []float32
	Shift []float32
	ReLU  bool
	Cap   float32
}

// applyCols transforms columns [j0, n) of the first m rows of c, each n
// columns long, in place, one element at a time in applyOne's order.
// The kernels apply the epilogue themselves; GemmInPlace runs this only
// on a tile whose columns run past the product's (n = 1, say), whose
// vectors the kernels would read past their end.
func (ep *Epilogue) applyCols(c []float32, m, n, j0 int) {
	if ep == nil || m <= 0 {
		return
	}
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		for j := j0; j < n; j++ {
			row[j] = ep.applyOne(row[j], j)
		}
	}
}

// applyOne runs the epilogue for a single element at column j.
func (ep *Epilogue) applyOne(v float32, j int) float32 {
	if ep == nil {
		return v
	}
	if ep.Bias != nil {
		v += ep.Bias[j]
	}
	return ep.activate(v, j)
}

// activate runs what follows the bias for the element at column j:
// scale/shift, then ReLU and its cap. The depthwise kernel starts its
// accumulator at the bias, so this is all of the epilogue it has left.
func (ep *Epilogue) activate(v float32, j int) float32 {
	if ep.Scale != nil {
		v = float32(v*ep.Scale[j]) + ep.Shift[j]
	}
	if ep.ReLU {
		if v < 0 {
			v = 0
		} else if ep.Cap > 0 && v > ep.Cap {
			v = ep.Cap
		}
	}
	return v
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// PackASize returns the length of an A-panel scratch for an m×k
// matrix (rows padded to four). GemmPacked and Gemm read A in place and
// ignore their scratchA; the size stays for callers that still
// allocate one.
func PackASize(m, k int) int { return roundUp(m, gemmMR) * k }

// PackBSize returns the scratch length needed by PackB for a k×n B
// matrix (columns padded to a whole pair of panels).
func PackBSize(k, n int) int { return roundUp(n, 2*gemmNR) * k }

// PackB packs row-major B (k×n) into pairs of column panels, each
// panel gemmNR columns wide: the pair at column j0 (a multiple of 16)
// holds columns [j0, j0+16), k-step p at dst[j0·k + 16p:], panel j0's
// eight floats then panel j0+8's, zero-padded past n. A sixteen-lane
// tile loads one k-step of a pair as one vector; an eight-lane tile
// reads one panel, a half of each k-step. The reads of either are
// sequential. dst must have at least PackBSize(k, n) elements.
func PackB(k, n int, b, dst []float32) {
	const pw = 2 * gemmNR
	np := roundUp(n, pw)
	if np*k == 0 {
		return
	}
	_ = dst[np*k-1]
	for j0 := 0; j0 < np; j0 += pw {
		live := min(n-j0, pw)
		for p := 0; p < k; p++ {
			q := dst[j0*k+p*pw : j0*k+(p+1)*pw]
			copy(q, b[p*n+j0:p*n+j0+live])
			clear(q[live:])
		}
	}
}

// ARows describes GemmInPlace's m×k left operand where it lies in
// Data, with no copy. Row r is Segs segments of Len contiguous floats,
// Pitch floats apart (k = Segs·Len), from a base offset. The rows are
// positions in raster order over images of Height lines of Width
// positions, starting at position First: the row at image i, line y,
// position x has its base at i·ImageStep + y·LineStep + x·Step. A
// row-major matrix is one segment per row (Matrix); a k×k convolution's
// rows are its receptive fields, one segment per kernel row, over an
// input in which every tap lies (internal/nn stages a zero halo where
// the padding needs one).
type ARows struct {
	Data                      []float32
	Segs, Len, Pitch          int
	Width, Height             int
	Step, LineStep, ImageStep int
	First                     int
}

// Matrix describes a row-major matrix of k columns: row r is the one
// segment a[r·k : (r+1)·k].
func Matrix(a []float32, k int) ARows {
	return ARows{Data: a, Segs: 1, Len: k, Width: 1, Height: 1, ImageStep: k}
}

// rowWalk yields the bases of consecutive rows of an ARows.
type rowWalk struct {
	a    *ARows
	x, y int // position of the next row in its line and image
	at   int // base of the next row
	img  int // base of the next row's image
	last int // the largest base whose row lies inside Data
}

// walk starts at row First. The rows must lie inside Data: the assembly
// kernels read them unchecked, so next checks each base it yields.
func (a *ARows) walk() rowWalk {
	y, x := a.First/a.Width%a.Height, a.First%a.Width
	img := a.First / (a.Width * a.Height) * a.ImageStep
	if a.Len <= 0 || a.Pitch < 0 {
		panic("tensor: GEMM rows need segments of positive length, a non-negative pitch apart")
	}
	last := len(a.Data) - (a.Segs-1)*a.Pitch - a.Len
	if last < 0 {
		panic("tensor: GEMM operand shorter than one row")
	}
	return rowWalk{a: a, x: x, y: y, at: img + y*a.LineStep + x*a.Step, img: img, last: last}
}

// next returns the next row's base and steps past it.
func (w *rowWalk) next() int {
	o := w.at
	if uint(o) > uint(w.last) {
		panic("tensor: GEMM row outside its operand")
	}
	w.at += w.a.Step
	if w.x++; w.x == w.a.Width {
		w.x = 0
		if w.y++; w.y == w.a.Height {
			w.y = 0
			w.img += w.a.ImageStep
		}
		w.at = w.img + w.y*w.a.LineStep
	}
	return o
}

// GemmInPlace computes C = A·B for the m rows that a describes, with B
// (k = a.Segs·a.Len rows, n columns) packed by PackB, and applies ep to
// every element in the tile kernel that computes it, before its one
// store (the fused write-back). C is m×n row-major and fully
// overwritten. The rows run through the microkernel one tile at a time
// — tileRows() consecutive rows, whatever lines or images they cross,
// each read from its own base — and the columns tileCols() at a time
// while that many packed columns remain, one panel at a time after
// that. The last tile's rows past m repeat its last live row, and the
// last B panel is zero-padded past n; such a tile lands in a stack tile
// and only its live rows and columns are copied out. A tile whose
// columns run past n leaves the stack tile raw and takes the epilogue
// in Go (applyCols) as it is copied out. Every output element
// accumulates over k in the same sequential order whichever tile holds
// it, and takes the epilogue in the same order, so callers may split
// the rows across goroutines (ARows.First) for bitwise identical
// results.
func GemmInPlace(m, n int, a *ARows, bp, c []float32, ep *Epilogue) {
	if m <= 0 || n <= 0 {
		return
	}
	k := a.Segs * a.Len
	if k <= 0 {
		epilogueOnly(m, n, c, ep)
		return
	}
	np := roundUp(n, gemmNR)
	_ = bp[PackBSize(k, n)-1]
	_ = c[m*n-1]
	var fused, raw kernEpilogue
	ep.kernel(&fused, n)
	h, wide := tileRows(), tileCols()
	var offs [tileMax]int
	var tile [tileMax * 2 * gemmNR]float32
	rows := a.walk()
	for i0 := 0; i0 < m; i0 += h {
		live := min(h, m-i0)
		for r := range offs[:live] {
			offs[r] = rows.next()
		}
		for r := live; r < h; r++ {
			offs[r] = offs[live-1]
		}
		block := c[i0*n : (i0+live)*n]
		for j0, w := 0, wide; j0 < n; j0 += w {
			if j0+w > np {
				w = gemmNR
			}
			// The tile's panels, from its first column on: a k-step of
			// their pair is 16 floats, of which a one-panel tile reads
			// one half.
			pair := j0 &^ (2*gemmNR - 1)
			at := pair*k + j0 - pair
			b := bp[at : at+2*gemmNR*(k-1)+w]
			if live == h && j0+w <= n {
				kernTile(a, &offs, b, block[j0:], n, &fused, j0)
				continue
			}
			cols := min(n-j0, w)
			if cols == w {
				kernTile(a, &offs, b, tile[:], w, &fused, j0)
			} else {
				kernTile(a, &offs, b, tile[:], w, &raw, 0)
			}
			for r := 0; r < live; r++ {
				copy(block[r*n+j0:r*n+j0+cols], tile[r*w:r*w+cols])
			}
			if cols < w {
				ep.applyCols(block, live, n, j0)
			}
		}
	}
}

// GemmPacked computes C = A·B for a row-major m×k A, with B already
// packed by PackB: GemmInPlace over Matrix(a, k). scratchA is unused —
// A is read where it lies — and may be nil.
func GemmPacked(m, n, k int, a, bp, c []float32, ep *Epilogue, scratchA []float32) {
	rows := Matrix(a, k)
	GemmInPlace(m, n, &rows, bp, c, ep)
}

// epilogueOnly writes the product of an empty k extent: every element
// is the epilogue of +0.
func epilogueOnly(m, n int, c []float32, ep *Epilogue) {
	for i := 0; i < m; i++ {
		row := c[i*n : (i+1)*n]
		for j := range row {
			row[j] = ep.applyOne(0, j)
		}
	}
}

// Gemm computes C = A·B (A m×k, B k×n, C m×n, all row-major) with the
// fused epilogue applied on write-back: PackB into scratchB, then
// GemmPacked. scratchB is a packing buffer of at least PackBSize(k, n)
// elements; a shorter one (nil, say) is replaced by a fresh one.
// scratchA is unused (A is read in place) and ep may be nil. C is fully
// overwritten.
func Gemm(m, n, k int, a, b, c []float32, ep *Epilogue, scratchA, scratchB []float32) {
	if m <= 0 || n <= 0 {
		return
	}
	if len(scratchB) < PackBSize(k, n) {
		scratchB = make([]float32, PackBSize(k, n))
	}
	PackB(k, n, b, scratchB)
	GemmPacked(m, n, k, a, scratchB, c, ep, nil)
}
