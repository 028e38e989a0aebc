//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// op v, Yr, Yr for every accumulator: v second, the accumulator first.
#define EACH8(op, v) \
	op v, Y0, Y0; op v, Y1, Y1; op v, Y2, Y2; op v, Y3, Y3; \
	op v, Y4, Y4; op v, Y5, Y5; op v, Y6, Y6; op v, Y7, Y7

// op Yr, k, Yr for every accumulator: k first.
#define EACH8K(op, k) \
	op Y0, k, Y0; op Y1, k, Y1; op Y2, k, Y2; op Y3, k, Y3; \
	op Y4, k, Y4; op Y5, k, Y5; op Y6, k, Y6; op Y7, k, Y7

// func kern8x8AVX2(a *float32, offs *[8]int, segs, seglen, pitch int, bp, c *float32, ldc int, ep *kernEpilogue, col int)
//
// Eight-lane AVX2 GEMM microkernel: accumulates an 8-row × 8-column
// tile C[r][j] = Σ_p A[r][p] * bp[p*16+j] (one panel of a pair as
// PackB lays it out), applies the epilogue ep to it in registers, its
// per-column vectors read from column col on, and stores row r at
// c + r*ldc floats. Row r of A is read in place: segs segments of
// seglen floats from a + offs[r] floats, pitch floats apart, p running
// through them in order. R8..R13, SI and DI point one past the current
// segment of rows 0..7 and CX counts up from -seglen to 0, so one index
// addresses all eight rows. Y0..Y7 accumulate one row each, Y8 holds
// the streamed B vector, Y9..Y12 the broadcast A elements and their
// products. VMULPS/VADDPS are unfused (no FMA) and take their operands
// in one fixed order (B first in the product, the accumulator first in
// the sum), so every lane accumulates over p exactly as the portable Go
// kernel does, and a NaN comes through as TestKernelTiersKeepNaNPayloads
// records it. The epilogue keeps the operand order of kern8x16AVX512's,
// with Y8 and Y9 holding its operands.
TEXT ·kern8x8AVX2(SB), NOSPLIT, $0-80
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

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

segment8:
	MOVQ seglen+24(FP), CX
	NEGQ CX

loop8:
	VMOVUPS (BX), Y8

	VBROADCASTSS (R8)(CX*4), Y9
	VBROADCASTSS (R9)(CX*4), Y10
	VBROADCASTSS (R10)(CX*4), Y11
	VBROADCASTSS (R11)(CX*4), Y12
	VMULPS       Y9, Y8, Y9
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3

	VBROADCASTSS (R12)(CX*4), Y9
	VBROADCASTSS (R13)(CX*4), Y10
	VBROADCASTSS (SI)(CX*4), Y11
	VBROADCASTSS (DI)(CX*4), Y12
	VMULPS       Y9, Y8, Y9
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

	ADDQ $64, BX // the next k-step of the panel's pair
	INCQ CX
	JNZ  loop8

	ADDQ AX, R8
	ADDQ AX, R9
	ADDQ AX, R10
	ADDQ AX, R11
	ADDQ AX, R12
	ADDQ AX, R13
	ADDQ AX, SI
	ADDQ AX, DI
	DECQ DX
	JNZ  segment8

	MOVQ    ep+64(FP), AX
	MOVQ    kernEpilogue_mode(AX), DX
	MOVQ    col+72(FP), CX
	SHLQ    $2, CX
	TESTQ   $const_epBias, DX
	JZ      scale8
	MOVQ    kernEpilogue_bias(AX), BX
	VMOVUPS (BX)(CX*1), Y8
	EACH8(VADDPS, Y8)

scale8:
	TESTQ   $const_epScale, DX
	JZ      relu8
	MOVQ    kernEpilogue_scale(AX), BX
	VMOVUPS (BX)(CX*1), Y8
	MOVQ    kernEpilogue_shift(AX), BX
	VMOVUPS (BX)(CX*1), Y9
	EACH8(VMULPS, Y8)
	EACH8(VADDPS, Y9)

relu8:
	TESTQ  $const_epReLU, DX
	JZ     store8
	VXORPS Y8, Y8, Y8
	EACH8K(VMAXPS, Y8)
	TESTQ  $const_epCap, DX
	JZ     store8
	VBROADCASTSS kernEpilogue_cap(AX), Y8
	EACH8K(VMINPS, Y8)

store8:
	MOVQ    c+48(FP), DI
	MOVQ    ldc+56(FP), SI
	SHLQ    $2, SI // row stride of C in bytes
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, (DI)(SI*1)
	LEAQ    (DI)(SI*2), DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, (DI)(SI*1)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Reads extended control register 0: which register states the
// operating system saves and restores.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
