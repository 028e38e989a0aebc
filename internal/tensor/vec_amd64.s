//go:build amd64 && !purego

#include "textflag.h"

// Four-lane SSE element-wise kernels. Callers guarantee n > 0 and
// n % 4 == 0 (scalar tails live in the Go wrappers). MULPS/ADDPS are
// part of the amd64 baseline, so no feature detection is needed.

// func vecAxpySSE(n int, alpha float32, x, y *float32)
// y[i] += alpha * x[i]
TEXT ·vecAxpySSE(SB), NOSPLIT, $0-32
	MOVQ   n+0(FP), CX
	MOVSS  alpha+8(FP), X3
	SHUFPS $0x00, X3, X3
	MOVQ   x+16(FP), SI
	MOVQ   y+24(FP), DI
	SHRQ   $2, CX

axpyLoop:
	MOVUPS (SI), X0
	MULPS  X3, X0
	MOVUPS (DI), X1
	ADDPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    axpyLoop
	RET

// func vecInterleave4SSE(n int, dst, s0, s1, s2, s3 *float32)
// dst[4*i+r] = s_r[i]: a 4×4 transpose per step (four floats of each
// row in, four four-wide columns out), so every store is one
// contiguous 16-byte vector.
TEXT ·vecInterleave4SSE(SB), NOSPLIT, $0-48
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ s0+16(FP), R8
	MOVQ s1+24(FP), R9
	MOVQ s2+32(FP), R10
	MOVQ s3+40(FP), R11
	SHRQ $2, CX

interleaveLoop:
	MOVUPS   (R8), X0  // a0 a1 a2 a3
	MOVUPS   (R9), X1  // b0 b1 b2 b3
	MOVUPS   (R10), X2 // c0 c1 c2 c3
	MOVUPS   (R11), X3 // d0 d1 d2 d3
	MOVAPS   X0, X4
	UNPCKLPS X1, X4    // a0 b0 a1 b1
	UNPCKHPS X1, X0    // a2 b2 a3 b3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5    // c0 d0 c1 d1
	UNPCKHPS X3, X2    // c2 d2 c3 d3
	MOVAPS   X4, X6
	MOVLHPS  X5, X6    // a0 b0 c0 d0
	MOVHLPS  X4, X5    // a1 b1 c1 d1
	MOVAPS   X0, X7
	MOVLHPS  X2, X7    // a2 b2 c2 d2
	MOVHLPS  X0, X2    // a3 b3 c3 d3
	MOVUPS   X6, (DI)
	MOVUPS   X5, 16(DI)
	MOVUPS   X7, 32(DI)
	MOVUPS   X2, 48(DI)
	ADDQ     $16, R8
	ADDQ     $16, R9
	ADDQ     $16, R10
	ADDQ     $16, R11
	ADDQ     $64, DI
	DECQ     CX
	JNZ      interleaveLoop
	RET
