//go:build amd64 && !purego

#include "textflag.h"

// Four-lane SSE element-wise kernels. Callers guarantee n > 0 and
// n % 4 == 0 (scalar tails live in the Go wrappers). MULPS/ADDPS are
// part of the amd64 baseline, so no feature detection is needed.

// func vecMulAddSSE(n int, dst, a, b *float32)
// dst[i] += a[i] * b[i]
TEXT ·vecMulAddSSE(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ a+16(FP), SI
	MOVQ b+24(FP), DX
	SHRQ $2, CX

mulAddLoop:
	MOVUPS (SI), X0
	MOVUPS (DX), X1
	MULPS  X1, X0
	MOVUPS (DI), X2
	ADDPS  X0, X2
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	DECQ   CX
	JNZ    mulAddLoop
	RET

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

// func vecAddSSE(n int, dst, b *float32)
// dst[i] += b[i]
TEXT ·vecAddSSE(SB), NOSPLIT, $0-24
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ b+16(FP), SI
	SHRQ $2, CX

addLoop:
	MOVUPS (DI), X0
	MOVUPS (SI), X1
	ADDPS  X1, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    addLoop
	RET

// func vecScaleShiftSSE(n int, dst, scale, shift *float32)
// dst[i] = dst[i]*scale[i] + shift[i]
TEXT ·vecScaleShiftSSE(SB), NOSPLIT, $0-32
	MOVQ n+0(FP), CX
	MOVQ dst+8(FP), DI
	MOVQ scale+16(FP), SI
	MOVQ shift+24(FP), DX
	SHRQ $2, CX

scaleLoop:
	MOVUPS (DI), X0
	MOVUPS (SI), X1
	MULPS  X1, X0
	MOVUPS (DX), X2
	ADDPS  X2, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DX
	ADDQ   $16, DI
	DECQ   CX
	JNZ    scaleLoop
	RET

// func vecReLUSSE(n int, dst *float32)
// dst[i] = max(0, dst[i]); NaN lanes keep their NaN (the max operand
// order makes the unordered result come from the value register, which
// matches the scalar `if v < 0` comparison).
TEXT ·vecReLUSSE(SB), NOSPLIT, $0-16
	MOVQ  n+0(FP), CX
	MOVQ  dst+8(FP), DI
	XORPS X3, X3
	SHRQ  $2, CX

reluLoop:
	MOVUPS (DI), X0
	MOVAPS X3, X1
	MAXPS  X0, X1
	MOVUPS X1, (DI)
	ADDQ   $16, DI
	DECQ   CX
	JNZ    reluLoop
	RET

// func vecReLUCapSSE(n int, dst *float32, cap float32)
// dst[i] = min(cap, max(0, dst[i])); NaN lanes propagate as in the
// scalar comparisons.
TEXT ·vecReLUCapSSE(SB), NOSPLIT, $0-20
	MOVQ   n+0(FP), CX
	MOVQ   dst+8(FP), DI
	MOVSS  cap+16(FP), X4
	SHUFPS $0x00, X4, X4
	XORPS  X3, X3
	SHRQ   $2, CX

reluCapLoop:
	MOVUPS (DI), X0
	MOVAPS X3, X1
	MAXPS  X0, X1
	MOVAPS X4, X2
	MINPS  X1, X2
	MOVUPS X2, (DI)
	ADDQ   $16, DI
	DECQ   CX
	JNZ    reluCapLoop
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
