//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// op v, Zr, Zr for every accumulator: v second, the accumulator first.
#define EACH16(op, v) \
	op v, Z0, Z0; op v, Z1, Z1; op v, Z2, Z2; op v, Z3, Z3; \
	op v, Z4, Z4; op v, Z5, Z5; op v, Z6, Z6; op v, Z7, Z7

// op Zr, k, Zr for every accumulator: k first.
#define EACH16K(op, k) \
	op Z0, k, Z0; op Z1, k, Z1; op Z2, k, Z2; op Z3, k, Z3; \
	op Z4, k, Z4; op Z5, k, Z5; op Z6, k, Z6; op Z7, k, Z7

// func kern8x16AVX512(a *float32, offs *[8]int, segs, seglen, pitch int, bp, c *float32, ldc int, ep *kernEpilogue, col int)
//
// Sixteen-lane AVX-512 GEMM microkernel: accumulates an 8-row ×
// 16-column tile from a pair of B panels as PackB lays it out,
// C[r][j] = Σ_p A[r][p] * bp[p*16+j] (k = segs*seglen), applies the
// epilogue ep to it in registers, its per-column vectors read from
// column col on, and stores row r at c + r*ldc floats. Row r of A is
// read in place, as in kern8x8AVX2: segs segments of seglen floats from
// a + offs[r] floats, pitch floats apart. R8..R13, SI and DI point one
// past the current segment of rows 0..7 and CX counts up from -seglen
// to 0. Z0..Z7 accumulate one row each; Z8 holds the streamed B
// vector, one k-step of the pair in one load; Z9..Z12 hold the
// products.
// Staying below Z16 leaves VZEROUPPER to clear the upper state of
// every register the kernel wrote. Only AVX512F instructions run.
// VMULPS.BCST broadcasts each row's A element into an unfused product
// with B as its first operand, and VADDPS takes the accumulator first —
// the operand order of kern8x8AVX2 — so every lane accumulates over p
// exactly as it and the portable Go kernel do, NaN propagation
// included. The epilogue keeps the operand order of
// applyOne and the depthwise kernels: the accumulator first in its
// sums and product, zero first in the ReLU's MAX and the cap first in
// its MIN (Z8 and Z9 hold the operands).
TEXT ·kern8x16AVX512(SB), NOSPLIT, $0-80
	MOVQ a+0(FP), AX
	MOVQ seglen+24(FP), CX
	LEAQ (AX)(CX*4), AX
	MOVQ offs+8(FP), DX
	MOVQ 0(DX), R8
	LEAQ (AX)(R8*4), R8
	MOVQ 8(DX), R9
	LEAQ (AX)(R9*4), R9
	MOVQ 16(DX), R10
	LEAQ (AX)(R10*4), R10
	MOVQ 24(DX), R11
	LEAQ (AX)(R11*4), R11
	MOVQ 32(DX), R12
	LEAQ (AX)(R12*4), R12
	MOVQ 40(DX), R13
	LEAQ (AX)(R13*4), R13
	MOVQ 48(DX), SI
	LEAQ (AX)(SI*4), SI
	MOVQ 56(DX), DI
	LEAQ (AX)(DI*4), DI
	MOVQ segs+16(FP), DX
	MOVQ pitch+32(FP), AX
	SHLQ $2, AX // segment pitch in bytes
	MOVQ bp+40(FP), BX

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

segment16:
	MOVQ seglen+24(FP), CX
	NEGQ CX

loop16:
	VMOVUPS (BX), Z8

	VMULPS.BCST (R8)(CX*4), Z8, Z9
	VMULPS.BCST (R9)(CX*4), Z8, Z10
	VMULPS.BCST (R10)(CX*4), Z8, Z11
	VMULPS.BCST (R11)(CX*4), Z8, Z12
	VADDPS      Z9, Z0, Z0
	VADDPS      Z10, Z1, Z1
	VADDPS      Z11, Z2, Z2
	VADDPS      Z12, Z3, Z3

	VMULPS.BCST (R12)(CX*4), Z8, Z9
	VMULPS.BCST (R13)(CX*4), Z8, Z10
	VMULPS.BCST (SI)(CX*4), Z8, Z11
	VMULPS.BCST (DI)(CX*4), Z8, Z12
	VADDPS      Z9, Z4, Z4
	VADDPS      Z10, Z5, Z5
	VADDPS      Z11, Z6, Z6
	VADDPS      Z12, Z7, Z7

	ADDQ $64, BX
	INCQ CX
	JNZ  loop16

	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	ADDQ AX, SI
	ADDQ AX, DI
	DECQ DX
	JNZ  segment16

	MOVQ  ep+64(FP), AX
	MOVQ  kernEpilogue_mode(AX), DX
	MOVQ  col+72(FP), CX
	SHLQ  $2, CX
	TESTQ $const_epBias, DX
	JZ    scale16
	MOVQ  kernEpilogue_bias(AX), BX
	VMOVUPS (BX)(CX*1), Z8
	EACH16(VADDPS, Z8)

scale16:
	TESTQ   $const_epScale, DX
	JZ      relu16
	MOVQ    kernEpilogue_scale(AX), BX
	VMOVUPS (BX)(CX*1), Z8
	MOVQ    kernEpilogue_shift(AX), BX
	VMOVUPS (BX)(CX*1), Z9
	EACH16(VMULPS, Z8)
	EACH16(VADDPS, Z9)

relu16:
	TESTQ  $const_epReLU, DX
	JZ     store16
	VPXORD Z8, Z8, Z8
	EACH16K(VMAXPS, Z8)
	TESTQ  $const_epCap, DX
	JZ     store16
	VBROADCASTSS kernEpilogue_cap(AX), Z8
	EACH16K(VMINPS, Z8)

store16:
	MOVQ    c+48(FP), DI
	MOVQ    ldc+56(FP), SI
	SHLQ    $2, SI // row stride of C in bytes
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Z2, (DI)
	VMOVUPS Z3, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Z4, (DI)
	VMOVUPS Z5, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Z6, (DI)
	VMOVUPS Z7, (DI)(SI*1)
	VZEROUPPER
	RET
