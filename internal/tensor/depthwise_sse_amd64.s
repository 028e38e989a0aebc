//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// func depthwiseSSE(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)
//
// Channels [c0, nc) of nspans spans of a depthwise row four lanes
// wide, span by span: for each block of four channels, pixels four at
// a time (then one at a time) start X0..X3 at the bias, add x·w for
// every tap in list order (X8 the tap's weights, X4..X7 the products),
// run the epilogue in place and store each vector once. Operand order
// is that of depthwise_amd64.h; in a two-operand SSE instruction
// "first" is the destination, so MAX and MIN run on a copy of zero or
// the cap. Pixel p's input is xstride floats after pixel p-1's, its
// output ic floats after.
//
// The frame holds the current span (span-8(SP)) and the end of the
// span list (end-16(SP)). R9 is the end of the span's tap list and BX
// walks it; R10 and R11 are the input and output strides in bytes; R12
// is the channel block's byte offset, R13 and R15 point at its input
// and weights, SI is the input offset of the current pixel, DI its
// output, CX the pixels left; R8 holds ep. X10..X12 hold the block's
// bias (or zero), scale and shift, X13 zero and X14 the broadcast cap.
TEXT ·depthwiseSSE(SB), NOSPLIT, $16-80
	MOVQ   xstride+32(FP), R10
	SHLQ   $2, R10
	MOVQ   ic+24(FP), R11
	SHLQ   $2, R11
	MOVQ   ep+72(FP), R8
	MOVSS  kernEpilogue_cap(R8), X14
	SHUFPS $0x00, X14, X14
	XORPS  X13, X13
	MOVQ   spans+56(FP), AX
	MOVQ   nspans+64(FP), DX
	IMUL3Q $Span__size, DX, DX
	ADDQ   AX, DX
	MOVQ   DX, end-16(SP)

dw4Span:
	MOVQ   AX, span-8(SP)
	MOVQ   Span_Taps(AX), R9
	MOVQ   Span_Taps+8(AX), DX
	IMUL3Q $Tap__size, DX, DX
	ADDQ   DX, R9
	MOVQ   c0+8(FP), R12
	SHLQ   $2, R12

dw4Block:
	XORPS  X10, X10
	TESTQ  $const_epBias, kernEpilogue_mode(R8)
	JZ     dw4Scale
	MOVQ   kernEpilogue_bias(R8), AX
	MOVUPS (AX)(R12*1), X10

dw4Scale:
	TESTQ  $const_epScale, kernEpilogue_mode(R8)
	JZ     dw4Pixels
	MOVQ   kernEpilogue_scale(R8), AX
	MOVUPS (AX)(R12*1), X11
	MOVQ   kernEpilogue_shift(R8), AX
	MOVUPS (AX)(R12*1), X12

dw4Pixels:
	MOVQ  x+40(FP), R13
	ADDQ  R12, R13
	MOVQ  w+48(FP), R15
	ADDQ  R12, R15
	MOVQ  span-8(SP), AX
	MOVQ  Span_Out(AX), DI
	IMULQ R11, DI
	ADDQ  dst+0(FP), DI
	ADDQ  R12, DI
	XORQ  SI, SI
	MOVQ  Span_Npix(AX), CX
	CMPQ CX, $4
	JLT  dw4One

dw4Four:
	MOVAPS X10, X0
	MOVAPS X10, X1
	MOVAPS X10, X2
	MOVAPS X10, X3
	MOVQ   span-8(SP), BX
	MOVQ   Span_Taps(BX), BX
	CMPQ   BX, R9
	JEQ    dw4FourEpi

dw4FourTap:
	MOVQ   Tap_W(BX), DX
	MOVUPS (R15)(DX*4), X8
	MOVQ   Tap_X(BX), AX
	LEAQ   (R13)(AX*4), AX
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
	TESTQ $const_epScale, kernEpilogue_mode(R8)
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
	TESTQ  $const_epReLU, kernEpilogue_mode(R8)
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
	TESTQ  $const_epCap, kernEpilogue_mode(R8)
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
	MOVQ   span-8(SP), BX
	MOVQ   Span_Taps(BX), BX
	CMPQ   BX, R9
	JEQ    dw4OneEpi

dw4OneTap:
	MOVQ   Tap_W(BX), DX
	MOVUPS (R15)(DX*4), X8
	MOVQ   Tap_X(BX), AX
	LEAQ   (R13)(AX*4), AX
	MOVUPS (AX)(SI*1), X4
	MULPS  X8, X4
	ADDPS  X4, X0
	ADDQ   $Tap__size, BX
	CMPQ   BX, R9
	JNE    dw4OneTap

dw4OneEpi:
	TESTQ $const_epScale, kernEpilogue_mode(R8)
	JZ    dw4OneReLU
	MULPS X11, X0
	ADDPS X12, X0

dw4OneReLU:
	TESTQ  $const_epReLU, kernEpilogue_mode(R8)
	JZ     dw4OneStore
	MOVAPS X13, X4
	MAXPS  X0, X4
	MOVAPS X4, X0
	TESTQ  $const_epCap, kernEpilogue_mode(R8)
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
	MOVQ span-8(SP), AX
	ADDQ $Span__size, AX
	CMPQ AX, end-16(SP)
	JB   dw4Span
	RET
