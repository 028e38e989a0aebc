//go:build amd64 && !purego

#include "textflag.h"

// func kern8x16AVX512(a *float32, offs *[8]int, segs, seglen, pitch int, bp, c *float32, ldc int)
//
// Sixteen-lane AVX-512 GEMM microkernel: accumulates an 8-row ×
// 16-column tile from two adjacent B panels, C[r][j] = Σ_p A[r][p] *
// bp[p*8+j] for j < 8 and Σ_p A[r][p] * bp[k*8+p*8+j-8] for j ≥ 8
// (k = segs*seglen), and stores row r raw at c + r*ldc floats (the Go
// caller applies the fused epilogue per completed row block). Row r of
// A is read in place, as in kern8x8AVX2: segs segments of seglen
// floats from a + offs[r] floats, pitch floats apart. R8..R13, SI and
// DI point one past the current segment of rows 0..7, CX counts up
// from -seglen to 0, and R15 is the byte distance from the first panel
// to the second. Z0..Z7 accumulate one row each; Z8 holds the
// streamed B vector, panel j0 in its low half (VMOVUPS) and panel j0+8
// in its high half (VINSERTF64X4, which AVX512F has; VINSERTF32X8
// would need AVX512DQ); Z9..Z12 hold the products. Staying below Z16
// leaves VZEROUPPER to clear the upper state of every register the
// kernel wrote. Only AVX512F instructions run. VMULPS.BCST broadcasts each row's A element into
// an unfused product with B as its first operand, and VADDPS takes the
// accumulator first — the operand order of kern8x8AVX2 and kern4x8SSE
// — so every lane accumulates over p exactly as they and the portable
// Go kernel do, NaN propagation included.
TEXT ·kern8x16AVX512(SB), NOSPLIT, $0-64
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
	MOVQ  segs+16(FP), DX
	MOVQ  DX, R15
	IMULQ CX, R15
	SHLQ  $5, R15 // second panel: k*8 floats past the first
	MOVQ  pitch+32(FP), AX
	SHLQ  $2, AX  // segment pitch in bytes
	MOVQ  bp+40(FP), BX

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
	VMOVUPS      (BX), Y8
	VINSERTF64X4 $1, (BX)(R15*1), Z8, Z8

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

	ADDQ $32, BX
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
