//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// The epilogue in registers, in two tiers: Epilogue.Apply's one pass
// over a block of rows, and the depthwise span kernel, eight lanes wide
// with AVX2 and four with SSE. mode holds the const_ep* bits of the
// steps to run. Operand order is fixed (see epilogue_amd64.go): a
// product takes the input or the running value first and the weight or
// the scale second, a sum takes the running value first. In the Go
// operand order below, "first" is the middle operand of a
// three-operand AVX instruction and the destination of a two-operand
// SSE one. MAX takes zero first and MIN the cap, so a NaN or a −0 comes
// through as the value it was.
//
// Registers both kernels share: Y13/X13 zero, Y14/X14 the broadcast
// cap; the depthwise kernels keep the channel block's bias (or zero),
// scale and shift in Y10..Y12/X10..X12.

// func epilogueAVX2(m, n, ld int, c, bias, scale, shift *float32, mode int, cap float32)
// c[i·ld+j] = relu(cap, (c[i·ld+j] + bias[j])·scale[j] + shift[j]) for
// i < m and j < n, n a positive multiple of 8, the steps mode selects.
TEXT ·epilogueAVX2(SB), NOSPLIT, $0-68
	MOVQ         m+0(FP), R9
	MOVQ         n+8(FP), CX
	SHLQ         $2, CX
	MOVQ         ld+16(FP), R10
	SHLQ         $2, R10
	MOVQ         c+24(FP), DI
	MOVQ         bias+32(FP), AX
	MOVQ         scale+40(FP), BX
	MOVQ         shift+48(FP), DX
	MOVQ         mode+56(FP), R8
	VBROADCASTSS cap+64(FP), Y14
	VXORPS       Y13, Y13, Y13

epi8Row:
	XORQ SI, SI

epi8:
	VMOVUPS (DI)(SI*1), Y0
	TESTQ   $const_epBias, R8
	JZ      epi8Scale
	VADDPS  (AX)(SI*1), Y0, Y0

epi8Scale:
	TESTQ  $const_epScale, R8
	JZ     epi8ReLU
	VMULPS (BX)(SI*1), Y0, Y0
	VADDPS (DX)(SI*1), Y0, Y0

epi8ReLU:
	TESTQ  $const_epReLU, R8
	JZ     epi8Store
	VMAXPS Y0, Y13, Y0
	TESTQ  $const_epCap, R8
	JZ     epi8Store
	VMINPS Y0, Y14, Y0

epi8Store:
	VMOVUPS Y0, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     epi8
	ADDQ    R10, DI
	DECQ    R9
	JNZ     epi8Row
	VZEROUPPER
	RET

// func epilogueSSE(m, n, ld int, c, bias, scale, shift *float32, mode int, cap float32)
// epilogueAVX2 four lanes at a time, n a positive multiple of 4.
TEXT ·epilogueSSE(SB), NOSPLIT, $0-68
	MOVQ   m+0(FP), R9
	MOVQ   n+8(FP), CX
	SHLQ   $2, CX
	MOVQ   ld+16(FP), R10
	SHLQ   $2, R10
	MOVQ   c+24(FP), DI
	MOVQ   bias+32(FP), AX
	MOVQ   scale+40(FP), BX
	MOVQ   shift+48(FP), DX
	MOVQ   mode+56(FP), R8
	MOVSS  cap+64(FP), X14
	SHUFPS $0x00, X14, X14
	XORPS  X13, X13

epi4Row:
	XORQ SI, SI

epi4:
	MOVUPS (DI)(SI*1), X0
	TESTQ  $const_epBias, R8
	JZ     epi4Scale
	MOVUPS (AX)(SI*1), X1
	ADDPS  X1, X0

epi4Scale:
	TESTQ  $const_epScale, R8
	JZ     epi4ReLU
	MOVUPS (BX)(SI*1), X1
	MULPS  X1, X0
	MOVUPS (DX)(SI*1), X1
	ADDPS  X1, X0

epi4ReLU:
	TESTQ  $const_epReLU, R8
	JZ     epi4Store
	MOVAPS X13, X1
	MAXPS  X0, X1
	MOVAPS X1, X0
	TESTQ  $const_epCap, R8
	JZ     epi4Store
	MOVAPS X14, X1
	MINPS  X0, X1
	MOVAPS X1, X0

epi4Store:
	MOVUPS X0, (DI)(SI*1)
	ADDQ   $16, SI
	CMPQ   SI, CX
	JLT    epi4
	ADDQ   R10, DI
	DECQ   R9
	JNZ    epi4Row
	RET

// func depthwiseAVX2(dst *float32, npix, nc, ic, xstride int, taps *Tap, ntaps int, bias, scale, shift *float32, mode int, cap float32)
//
// Channels [0, nc) of a depthwise span, nc a positive multiple of 8:
// for each block of eight channels, pixels four at a time (then one at
// a time) start Y0..Y3 at the bias, add x·w for every tap in list
// order (Y8 the tap's weights, Y4..Y7 the products), run the epilogue
// in place and store each vector once. Pixel p's input is xstride
// floats after pixel p-1's, its output ic floats after.
//
// R8/R9 bound the tap list, BX walks it; R10 and R11 are the input and
// output strides in bytes; R12 is the channel block's byte offset, SI
// the input offset of the current pixel within each tap's run, DI the
// current output, CX the pixels left; R13 holds mode.
TEXT ·depthwiseAVX2(SB), NOSPLIT, $0-92
	MOVQ         taps+40(FP), R8
	MOVQ         ntaps+48(FP), R9
	IMUL3Q       $Tap__size, R9, R9
	ADDQ         R8, R9
	MOVQ         xstride+32(FP), R10
	SHLQ         $2, R10
	MOVQ         ic+24(FP), R11
	SHLQ         $2, R11
	MOVQ         mode+80(FP), R13
	VBROADCASTSS cap+88(FP), Y14
	VXORPS       Y13, Y13, Y13
	XORQ         R12, R12

dw8Block:
	VXORPS  Y10, Y10, Y10
	TESTQ   $const_epBias, R13
	JZ      dw8Scale
	MOVQ    bias+56(FP), AX
	VMOVUPS (AX)(R12*1), Y10

dw8Scale:
	TESTQ   $const_epScale, R13
	JZ      dw8Pixels
	MOVQ    scale+64(FP), AX
	VMOVUPS (AX)(R12*1), Y11
	MOVQ    shift+72(FP), AX
	VMOVUPS (AX)(R12*1), Y12

dw8Pixels:
	MOVQ dst+0(FP), DI
	ADDQ R12, DI
	MOVQ R12, SI
	MOVQ npix+8(FP), CX
	CMPQ CX, $4
	JLT  dw8One

dw8Four:
	VMOVAPS Y10, Y0
	VMOVAPS Y10, Y1
	VMOVAPS Y10, Y2
	VMOVAPS Y10, Y3
	MOVQ    R8, BX
	CMPQ    BX, R9
	JEQ     dw8FourEpi

dw8FourTap:
	MOVQ    Tap_W(BX), DX
	VMOVUPS (DX)(R12*1), Y8
	MOVQ    Tap_X(BX), AX
	ADDQ    SI, AX
	LEAQ    (AX)(R10*2), DX
	VMOVUPS (AX), Y4
	VMOVUPS (AX)(R10*1), Y5
	VMOVUPS (DX), Y6
	VMOVUPS (DX)(R10*1), Y7
	VMULPS  Y8, Y4, Y4
	VMULPS  Y8, Y5, Y5
	VMULPS  Y8, Y6, Y6
	VMULPS  Y8, Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     dw8FourTap

dw8FourEpi:
	TESTQ  $const_epScale, R13
	JZ     dw8FourReLU
	VMULPS Y11, Y0, Y0
	VMULPS Y11, Y1, Y1
	VMULPS Y11, Y2, Y2
	VMULPS Y11, Y3, Y3
	VADDPS Y12, Y0, Y0
	VADDPS Y12, Y1, Y1
	VADDPS Y12, Y2, Y2
	VADDPS Y12, Y3, Y3

dw8FourReLU:
	TESTQ  $const_epReLU, R13
	JZ     dw8FourStore
	VMAXPS Y0, Y13, Y0
	VMAXPS Y1, Y13, Y1
	VMAXPS Y2, Y13, Y2
	VMAXPS Y3, Y13, Y3
	TESTQ  $const_epCap, R13
	JZ     dw8FourStore
	VMINPS Y0, Y14, Y0
	VMINPS Y1, Y14, Y1
	VMINPS Y2, Y14, Y2
	VMINPS Y3, Y14, Y3

dw8FourStore:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R11*1)
	LEAQ    (DI)(R11*2), DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, (DX)(R11*1)
	LEAQ    (DI)(R11*4), DI
	LEAQ    (SI)(R10*4), SI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     dw8Four

dw8One:
	TESTQ CX, CX
	JZ    dw8Next

dw8OnePixel:
	VMOVAPS Y10, Y0
	MOVQ    R8, BX
	CMPQ    BX, R9
	JEQ     dw8OneEpi

dw8OneTap:
	MOVQ    Tap_W(BX), DX
	VMOVUPS (DX)(R12*1), Y8
	MOVQ    Tap_X(BX), AX
	VMOVUPS (AX)(SI*1), Y4
	VMULPS  Y8, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     dw8OneTap

dw8OneEpi:
	TESTQ  $const_epScale, R13
	JZ     dw8OneReLU
	VMULPS Y11, Y0, Y0
	VADDPS Y12, Y0, Y0

dw8OneReLU:
	TESTQ  $const_epReLU, R13
	JZ     dw8OneStore
	VMAXPS Y0, Y13, Y0
	TESTQ  $const_epCap, R13
	JZ     dw8OneStore
	VMINPS Y0, Y14, Y0

dw8OneStore:
	VMOVUPS Y0, (DI)
	ADDQ    R11, DI
	ADDQ    R10, SI
	DECQ    CX
	JNZ     dw8OnePixel

dw8Next:
	ADDQ $32, R12
	MOVQ nc+16(FP), AX
	SHLQ $2, AX
	CMPQ R12, AX
	JLT  dw8Block
	VZEROUPPER
	RET

// func depthwiseSSE(dst *float32, npix, nc, ic, xstride int, taps *Tap, ntaps int, bias, scale, shift *float32, mode int, cap float32)
// depthwiseAVX2 in blocks of four channels, nc a positive multiple of
// 4, with the same registers as XMM.
TEXT ·depthwiseSSE(SB), NOSPLIT, $0-92
	MOVQ   taps+40(FP), R8
	MOVQ   ntaps+48(FP), R9
	IMUL3Q $Tap__size, R9, R9
	ADDQ   R8, R9
	MOVQ   xstride+32(FP), R10
	SHLQ   $2, R10
	MOVQ   ic+24(FP), R11
	SHLQ   $2, R11
	MOVQ   mode+80(FP), R13
	MOVSS  cap+88(FP), X14
	SHUFPS $0x00, X14, X14
	XORPS  X13, X13
	XORQ   R12, R12

dw4Block:
	XORPS  X10, X10
	TESTQ  $const_epBias, R13
	JZ     dw4Scale
	MOVQ   bias+56(FP), AX
	MOVUPS (AX)(R12*1), X10

dw4Scale:
	TESTQ  $const_epScale, R13
	JZ     dw4Pixels
	MOVQ   scale+64(FP), AX
	MOVUPS (AX)(R12*1), X11
	MOVQ   shift+72(FP), AX
	MOVUPS (AX)(R12*1), X12

dw4Pixels:
	MOVQ dst+0(FP), DI
	ADDQ R12, DI
	MOVQ R12, SI
	MOVQ npix+8(FP), CX
	CMPQ CX, $4
	JLT  dw4One

dw4Four:
	MOVAPS X10, X0
	MOVAPS X10, X1
	MOVAPS X10, X2
	MOVAPS X10, X3
	MOVQ   R8, BX
	CMPQ   BX, R9
	JEQ    dw4FourEpi

dw4FourTap:
	MOVQ   Tap_W(BX), DX
	MOVUPS (DX)(R12*1), X8
	MOVQ   Tap_X(BX), AX
	ADDQ   SI, AX
	LEAQ   (AX)(R10*2), DX
	MOVUPS (AX), X4
	MOVUPS (AX)(R10*1), X5
	MOVUPS (DX), X6
	MOVUPS (DX)(R10*1), X7
	MULPS  X8, X4
	MULPS  X8, X5
	MULPS  X8, X6
	MULPS  X8, X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDQ   $Tap__size, BX
	CMPQ   BX, R9
	JNE    dw4FourTap

dw4FourEpi:
	TESTQ $const_epScale, R13
	JZ    dw4FourReLU
	MULPS X11, X0
	MULPS X11, X1
	MULPS X11, X2
	MULPS X11, X3
	ADDPS X12, X0
	ADDPS X12, X1
	ADDPS X12, X2
	ADDPS X12, X3

dw4FourReLU:
	TESTQ  $const_epReLU, R13
	JZ     dw4FourStore
	MOVAPS X13, X4
	MOVAPS X13, X5
	MOVAPS X13, X6
	MOVAPS X13, X7
	MAXPS  X0, X4
	MAXPS  X1, X5
	MAXPS  X2, X6
	MAXPS  X3, X7
	MOVAPS X4, X0
	MOVAPS X5, X1
	MOVAPS X6, X2
	MOVAPS X7, X3
	TESTQ  $const_epCap, R13
	JZ     dw4FourStore
	MOVAPS X14, X4
	MOVAPS X14, X5
	MOVAPS X14, X6
	MOVAPS X14, X7
	MINPS  X0, X4
	MINPS  X1, X5
	MINPS  X2, X6
	MINPS  X3, X7
	MOVAPS X4, X0
	MOVAPS X5, X1
	MOVAPS X6, X2
	MOVAPS X7, X3

dw4FourStore:
	MOVUPS X0, (DI)
	MOVUPS X1, (DI)(R11*1)
	LEAQ   (DI)(R11*2), DX
	MOVUPS X2, (DX)
	MOVUPS X3, (DX)(R11*1)
	LEAQ   (DI)(R11*4), DI
	LEAQ   (SI)(R10*4), SI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    dw4Four

dw4One:
	TESTQ CX, CX
	JZ    dw4Next

dw4OnePixel:
	MOVAPS X10, X0
	MOVQ   R8, BX
	CMPQ   BX, R9
	JEQ    dw4OneEpi

dw4OneTap:
	MOVQ   Tap_W(BX), DX
	MOVUPS (DX)(R12*1), X8
	MOVQ   Tap_X(BX), AX
	MOVUPS (AX)(SI*1), X4
	MULPS  X8, X4
	ADDPS  X4, X0
	ADDQ   $Tap__size, BX
	CMPQ   BX, R9
	JNE    dw4OneTap

dw4OneEpi:
	TESTQ $const_epScale, R13
	JZ    dw4OneReLU
	MULPS X11, X0
	ADDPS X12, X0

dw4OneReLU:
	TESTQ  $const_epReLU, R13
	JZ     dw4OneStore
	MOVAPS X13, X4
	MAXPS  X0, X4
	MOVAPS X4, X0
	TESTQ  $const_epCap, R13
	JZ     dw4OneStore
	MOVAPS X14, X4
	MINPS  X0, X4
	MOVAPS X4, X0

dw4OneStore:
	MOVUPS X0, (DI)
	ADDQ   R11, DI
	ADDQ   R10, SI
	DECQ   CX
	JNZ    dw4OnePixel

dw4Next:
	ADDQ $16, R12
	MOVQ nc+16(FP), AX
	SHLQ $2, AX
	CMPQ R12, AX
	JLT  dw4Block
	RET
