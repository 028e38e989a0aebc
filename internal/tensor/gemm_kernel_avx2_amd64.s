//go:build amd64 && !purego

#include "textflag.h"

// func kern8x8AVX2(k int, ap, bp, c *float32, ldc int)
//
// Eight-lane AVX2 GEMM microkernel: accumulates an 8-row × 8-column
// tile from two adjacent 4-row A panels (the second starts 4k floats
// after ap) and one 8-column B panel,
//   C[r][j]   = Σ_p ap[p*4+r]      * bp[p*8+j]   r = 0..3
//   C[4+r][j] = Σ_p ap[4k+p*4+r]   * bp[p*8+j]
// and stores row r raw at c + r*ldc floats (the Go caller applies the
// fused epilogue per completed row block). Y0..Y7 accumulate one row
// each, Y8 holds the streamed B vector, Y9..Y12 the broadcast A
// elements and their products. VMULPS/VADDPS are unfused (no FMA) and
// take their operands in the SSE kernel's order (B first in the
// product, the accumulator first in the sum), so every lane
// accumulates over p exactly as kern4x8SSE and the portable Go kernel
// do, NaN propagation included.
TEXT ·kern8x8AVX2(SB), NOSPLIT, $0-40
	MOVQ k+0(FP), CX
	MOVQ ap+8(FP), AX
	MOVQ bp+16(FP), BX
	MOVQ c+24(FP), DI
	MOVQ ldc+32(FP), SI
	MOVQ CX, DX
	SHLQ $4, DX // bytes in one A panel: the second panel is (AX)(DX*1)
	SHLQ $2, SI // row stride of C in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop8:
	VMOVUPS (BX), Y8

	VBROADCASTSS (AX), Y9
	VBROADCASTSS 4(AX), Y10
	VBROADCASTSS 8(AX), Y11
	VBROADCASTSS 12(AX), Y12
	VMULPS       Y9, Y8, Y9
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3

	VBROADCASTSS (AX)(DX*1), Y9
	VBROADCASTSS 4(AX)(DX*1), Y10
	VBROADCASTSS 8(AX)(DX*1), Y11
	VBROADCASTSS 12(AX)(DX*1), Y12
	VMULPS       Y9, Y8, Y9
	VMULPS       Y10, Y8, Y10
	VMULPS       Y11, Y8, Y11
	VMULPS       Y12, Y8, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

	ADDQ $16, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  loop8

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
