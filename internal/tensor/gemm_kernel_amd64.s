//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// op lo, Xr for the left half of every accumulator row, op hi, Xr for
// the right: the accumulator first.
#define EACH4x8(op, lo, hi) \
	op lo, X0; op hi, X1; op lo, X2; op hi, X3; \
	op lo, X4; op hi, X5; op lo, X6; op hi, X7

// Xr = op(k, Xr) for every accumulator, k first: MAXPS and MINPS
// overwrite their first operand, so each runs on a copy of k in X15.
#define EACH4x8K(op, k) \
	MOVAPS k, X15; op X0, X15; MOVAPS X15, X0; \
	MOVAPS k, X15; op X1, X15; MOVAPS X15, X1; \
	MOVAPS k, X15; op X2, X15; MOVAPS X15, X2; \
	MOVAPS k, X15; op X3, X15; MOVAPS X15, X3; \
	MOVAPS k, X15; op X4, X15; MOVAPS X15, X4; \
	MOVAPS k, X15; op X5, X15; MOVAPS X15, X5; \
	MOVAPS k, X15; op X6, X15; MOVAPS X15, X6; \
	MOVAPS k, X15; op X7, X15; MOVAPS X15, X7

// func kern4x8SSE(a *float32, offs *[8]int, segs, seglen, pitch int, bp, c *float32, ldc int, ep *kernEpilogue, col int)
//
// Four-lane SSE GEMM microkernel: accumulates a 4-row × 8-column tile
// C[r][j] = Σ_p A[r][p] * bp[p*16+j] (one panel of a pair as PackB
// lays it out), applies the epilogue ep to it in registers, its
// per-column vectors read from column col on, and stores row r at
// c + r*ldc floats. Row r of A is read in place: segs segments of
// seglen floats from a + offs[r] floats, pitch floats apart, p running
// through them in order. R8..R11 point one past the current segment of each row and
// CX counts up from -seglen to 0, so one index addresses all four rows.
// Accumulators:
//   X0,X1 = row0 cols 0-3, 4-7
//   X2,X3 = row1
//   X4,X5 = row2
//   X6,X7 = row3
// X12/X13 hold the streamed B vectors, X14 the broadcast A element,
// X15 a product temporary. MULPS/ADDPS are unfused (no FMA), so every
// lane accumulates in the same IEEE order as the portable Go kernel.
// The epilogue holds its operands in X8..X11: the accumulator first in
// its sums and product (the destination of a two-operand SSE
// instruction), zero first in the ReLU's MAX and the cap first in its
// MIN.
TEXT ·kern4x8SSE(SB), NOSPLIT, $0-80
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

	ADDQ $64, BX // the next k-step of the panel's pair
	INCQ CX
	JNZ  loop

	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	DECQ DX
	JNZ  segment

	MOVQ   ep+64(FP), AX
	MOVQ   kernEpilogue_mode(AX), DX
	MOVQ   col+72(FP), CX
	SHLQ   $2, CX
	TESTQ  $const_epBias, DX
	JZ     scale4
	MOVQ   kernEpilogue_bias(AX), BX
	MOVUPS (BX)(CX*1), X8
	MOVUPS 16(BX)(CX*1), X9
	EACH4x8(ADDPS, X8, X9)

scale4:
	TESTQ  $const_epScale, DX
	JZ     relu4
	MOVQ   kernEpilogue_scale(AX), BX
	MOVUPS (BX)(CX*1), X8
	MOVUPS 16(BX)(CX*1), X9
	MOVQ   kernEpilogue_shift(AX), BX
	MOVUPS (BX)(CX*1), X10
	MOVUPS 16(BX)(CX*1), X11
	EACH4x8(MULPS, X8, X9)
	EACH4x8(ADDPS, X10, X11)

relu4:
	TESTQ  $const_epReLU, DX
	JZ     store4
	XORPS  X8, X8
	EACH4x8K(MAXPS, X8)
	TESTQ  $const_epCap, DX
	JZ     store4
	MOVSS  kernEpilogue_cap(AX), X8
	SHUFPS $0x00, X8, X8
	EACH4x8K(MINPS, X8)

store4:
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
