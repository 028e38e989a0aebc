//go:build amd64 && !purego

#include "textflag.h"

// func kern4x8SSE(a *float32, offs *[8]int, segs, seglen, pitch int, bp, c *float32, ldc int)
//
// Four-lane SSE GEMM microkernel: accumulates a 4-row × 8-column tile
// C[r][j] = Σ_p A[r][p] * bp[p*8+j] and stores row r raw at c + r*ldc
// floats (the Go caller applies the fused epilogue per completed row
// block). Row r of A is read in place: segs segments of seglen floats
// from a + offs[r] floats, pitch floats apart, p running through them
// in order. R8..R11 point one past the current segment of each row and
// CX counts up from -seglen to 0, so one index addresses all four rows.
// Accumulators:
//   X0,X1 = row0 cols 0-3, 4-7
//   X2,X3 = row1
//   X4,X5 = row2
//   X6,X7 = row3
// X12/X13 hold the streamed B vectors, X14 the broadcast A element,
// X15 a product temporary. MULPS/ADDPS are unfused (no FMA), so every
// lane accumulates in the same IEEE order as the portable Go kernel.
TEXT ·kern4x8SSE(SB), NOSPLIT, $0-64
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
	MOVQ segs+16(FP), DX
	MOVQ pitch+32(FP), AX
	SHLQ $2, AX // segment pitch in bytes
	MOVQ bp+40(FP), BX

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

segment:
	MOVQ seglen+24(FP), CX
	NEGQ CX

loop:
	MOVUPS (BX), X12
	MOVUPS 16(BX), X13

	MOVSS  (R8)(CX*4), X14
	SHUFPS $0x00, X14, X14
	MOVAPS X12, X15
	MULPS  X14, X15
	ADDPS  X15, X0
	MOVAPS X13, X15
	MULPS  X14, X15
	ADDPS  X15, X1

	MOVSS  (R9)(CX*4), X14
	SHUFPS $0x00, X14, X14
	MOVAPS X12, X15
	MULPS  X14, X15
	ADDPS  X15, X2
	MOVAPS X13, X15
	MULPS  X14, X15
	ADDPS  X15, X3

	MOVSS  (R10)(CX*4), X14
	SHUFPS $0x00, X14, X14
	MOVAPS X12, X15
	MULPS  X14, X15
	ADDPS  X15, X4
	MOVAPS X13, X15
	MULPS  X14, X15
	ADDPS  X15, X5

	MOVSS  (R11)(CX*4), X14
	SHUFPS $0x00, X14, X14
	MULPS  X14, X12
	ADDPS  X12, X6
	MULPS  X14, X13
	ADDPS  X13, X7

	ADDQ $32, BX
	INCQ CX
	JNZ  loop

	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	DECQ DX
	JNZ  segment

	MOVQ   c+48(FP), DI
	MOVQ   ldc+56(FP), SI
	SHLQ   $2, SI // row stride of C in bytes
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   SI, DI
	MOVUPS X2, (DI)
	MOVUPS X3, 16(DI)
	ADDQ   SI, DI
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	ADDQ   SI, DI
	MOVUPS X6, (DI)
	MOVUPS X7, 16(DI)
	RET
