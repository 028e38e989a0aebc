//go:build amd64 && !purego

#include "textflag.h"

// Four-lane SSE element-wise kernel. Callers guarantee n > 0 and
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
