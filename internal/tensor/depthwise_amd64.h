// The body of the eight- and sixteen-lane depthwise span kernels,
// included by depthwise_avx2_amd64.s and depthwise_avx512_amd64.s after
// each defines its vector registers and block size:
//
//	VA0..VA7  accumulators, VW0 and VW1 weights, VT0..VT3 products;
//	VZERO(r)  zeroes r;
//	LB        bytes in one block of channels (one vector), OFF1..OFF7
//	          its multiples, LB2 = 2·LB and LB8 = 8·LB.
//
// func(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)
//
// Channels [c0, nc) of nspans spans of a depthwise row, span by span, in
// blocks of one vector. Every tap loop keeps eight accumulators where
// the span has them: pixels eight at a time against one channel block
// (four to seven left over in a span of eight or more run as a last
// eight, backed up to end at the span's last pixel); then four pixels
// against two blocks (or one, the last); then single pixels against
// eight blocks (or one). Each accumulator starts at its bias (or +0),
// adds x·w for every tap in list order, takes the epilogue in place and
// is stored once. Operand order is fixed (see epilogue_amd64.go): a
// product takes the input or the running value first and the weight or
// the scale second, a sum the running value first; in the Go operand
// order below, "first" is the middle operand. MAX takes zero first and
// MIN the cap, so a NaN or a −0 comes through as the value it was.
//
// The frame holds the current span (span-8(SP)) and the end of the
// span list (end-16(SP)). R9 is the end of the span's tap list and BX
// walks it; R10 is the input stride in bytes and R8 three of them; R11
// is the output stride in bytes; SI and DI are the byte offsets of the
// current pixel block's first input and output, CX the span's pixels
// left, R12 the channel block's byte offset. Per block, R13 points at
// the input of the block's first pixel and channel, R15 at the weights
// of its first channel; a tap adds its offsets to them.

// The epilogue on eight accumulators, whose channel blocks lie d0..d7
// bytes past R12. AX holds ep.
#define BIAS8(d0, d1, d2, d3, d4, d5, d6, d7) \
	MOVQ    kernEpilogue_bias(AX), AX; \
	VMOVUPS d0(AX)(R12*1), VA0;        \
	VMOVUPS d1(AX)(R12*1), VA1;        \
	VMOVUPS d2(AX)(R12*1), VA2;        \
	VMOVUPS d3(AX)(R12*1), VA3;        \
	VMOVUPS d4(AX)(R12*1), VA4;        \
	VMOVUPS d5(AX)(R12*1), VA5;        \
	VMOVUPS d6(AX)(R12*1), VA6;        \
	VMOVUPS d7(AX)(R12*1), VA7

#define ZERO8 \
	VZERO(VA0); VZERO(VA1); VZERO(VA2); VZERO(VA3); \
	VZERO(VA4); VZERO(VA5); VZERO(VA6); VZERO(VA7)

#define AFFINE8(d0, d1, d2, d3, d4, d5, d6, d7) \
	MOVQ   kernEpilogue_scale(AX), BX;  \
	MOVQ   kernEpilogue_shift(AX), R13; \
	VMULPS d0(BX)(R12*1), VA0, VA0;     \
	VMULPS d1(BX)(R12*1), VA1, VA1;     \
	VMULPS d2(BX)(R12*1), VA2, VA2;     \
	VMULPS d3(BX)(R12*1), VA3, VA3;     \
	VMULPS d4(BX)(R12*1), VA4, VA4;     \
	VMULPS d5(BX)(R12*1), VA5, VA5;     \
	VMULPS d6(BX)(R12*1), VA6, VA6;     \
	VMULPS d7(BX)(R12*1), VA7, VA7;     \
	VADDPS d0(R13)(R12*1), VA0, VA0;    \
	VADDPS d1(R13)(R12*1), VA1, VA1;    \
	VADDPS d2(R13)(R12*1), VA2, VA2;    \
	VADDPS d3(R13)(R12*1), VA3, VA3;    \
	VADDPS d4(R13)(R12*1), VA4, VA4;    \
	VADDPS d5(R13)(R12*1), VA5, VA5;    \
	VADDPS d6(R13)(R12*1), VA6, VA6;    \
	VADDPS d7(R13)(R12*1), VA7, VA7

#define RELU8 \
	VZERO(VW0);            \
	VMAXPS VA0, VW0, VA0;  \
	VMAXPS VA1, VW0, VA1;  \
	VMAXPS VA2, VW0, VA2;  \
	VMAXPS VA3, VW0, VA3;  \
	VMAXPS VA4, VW0, VA4;  \
	VMAXPS VA5, VW0, VA5;  \
	VMAXPS VA6, VW0, VA6;  \
	VMAXPS VA7, VW0, VA7

#define CAP8 \
	VBROADCASTSS kernEpilogue_cap(AX), VW0; \
	VMINPS VA0, VW0, VA0;                   \
	VMINPS VA1, VW0, VA1;                   \
	VMINPS VA2, VW0, VA2;                   \
	VMINPS VA3, VW0, VA3;                   \
	VMINPS VA4, VW0, VA4;                   \
	VMINPS VA5, VW0, VA5;                   \
	VMINPS VA6, VW0, VA6;                   \
	VMINPS VA7, VW0, VA7

// The same on the four accumulators VA0..VA3 of one channel block.
#define BIAS4 \
	MOVQ    kernEpilogue_bias(AX), AX; \
	VMOVUPS (AX)(R12*1), VA0;          \
	VMOVAPS VA0, VA1;                  \
	VMOVAPS VA0, VA2;                  \
	VMOVAPS VA0, VA3

#define ZERO4 \
	VZERO(VA0); VZERO(VA1); VZERO(VA2); VZERO(VA3)

#define AFFINE4 \
	MOVQ    kernEpilogue_scale(AX), BX;  \
	VMOVUPS (BX)(R12*1), VW0;            \
	MOVQ    kernEpilogue_shift(AX), BX;  \
	VMOVUPS (BX)(R12*1), VW1;            \
	VMULPS  VW0, VA0, VA0;               \
	VMULPS  VW0, VA1, VA1;               \
	VMULPS  VW0, VA2, VA2;               \
	VMULPS  VW0, VA3, VA3;               \
	VADDPS  VW1, VA0, VA0;               \
	VADDPS  VW1, VA1, VA1;               \
	VADDPS  VW1, VA2, VA2;               \
	VADDPS  VW1, VA3, VA3

#define RELU4 \
	VZERO(VW0);            \
	VMAXPS VA0, VW0, VA0;  \
	VMAXPS VA1, VW0, VA1;  \
	VMAXPS VA2, VW0, VA2;  \
	VMAXPS VA3, VW0, VA3

#define CAP4 \
	VBROADCASTSS kernEpilogue_cap(AX), VW0; \
	VMINPS VA0, VW0, VA0;                   \
	VMINPS VA1, VW0, VA1;                   \
	VMINPS VA2, VW0, VA2;                   \
	VMINPS VA3, VW0, VA3

// And on the one accumulator VA0.
#define BIAS1 \
	MOVQ    kernEpilogue_bias(AX), AX; \
	VMOVUPS (AX)(R12*1), VA0

#define AFFINE1 \
	MOVQ   kernEpilogue_scale(AX), BX; \
	VMULPS (BX)(R12*1), VA0, VA0;      \
	MOVQ   kernEpilogue_shift(AX), BX; \
	VADDPS (BX)(R12*1), VA0, VA0

#define RELU1 \
	VZERO(VW0); \
	VMAXPS VA0, VW0, VA0

#define CAP1 \
	VBROADCASTSS kernEpilogue_cap(AX), VW0; \
	VMINPS VA0, VW0, VA0

// Runs the epilogue's steps after the bias: affine (scale/shift), then
// relu and cap, each where ep's mode has its bit. Leaves AX = ep.
#define EPILOGUE(affine, relu, cap, reluLabel, storeLabel) \
	MOVQ  ep+72(FP), AX;           \
	MOVQ  kernEpilogue_mode(AX), DX; \
	TESTQ $const_epScale, DX;      \
	JZ    reluLabel;               \
	affine;                        \
reluLabel:                         \
	TESTQ $const_epReLU, DX;       \
	JZ    storeLabel;              \
	relu;                          \
	TESTQ $const_epCap, DX;        \
	JZ    storeLabel;              \
	cap;                           \
storeLabel:

// Starts the accumulators of a block at its bias, or at +0, then
// points R13, R15 and BX at the block's input, weights and first tap.
#define START(bias, zero, zeroLabel, tapsLabel) \
	MOVQ  ep+72(FP), AX;             \
	MOVQ  kernEpilogue_mode(AX), DX; \
	TESTQ $const_epBias, DX;         \
	JZ    zeroLabel;                 \
	bias;                            \
	JMP   tapsLabel;                 \
zeroLabel:                           \
	zero;                            \
tapsLabel:                           \
	MOVQ  x+40(FP), R13;             \
	ADDQ  SI, R13;                   \
	ADDQ  R12, R13;                  \
	MOVQ  w+48(FP), R15;             \
	ADDQ  R12, R15;                  \
	MOVQ  span-8(SP), BX;            \
	MOVQ  Span_Taps(BX), BX

// Moves the pixel block back so that its eight pixels end at the
// span's last one: the block recomputes up to four pixels stored
// already, each to the same bits, instead of running the pixels left
// over in shorter blocks whose chains of adds are too few to hide their
// latency.
#define BACK_UP8 \
	MOVQ  $8, AX;  \
	SUBQ  CX, AX;  \
	MOVQ  AX, DX;  \
	IMULQ R10, AX; \
	SUBQ  AX, SI;  \
	IMULQ R11, DX; \
	SUBQ  DX, DI;  \
	MOVQ  $8, CX

// AX = nc·4 - n: n more bytes of channels remain past R12 while
// R12 ≤ AX.
#define CHANNELS_LEFT(n) \
	MOVQ nc+16(FP), AX; \
	SHLQ $2, AX;        \
	SUBQ $n, AX

	MOVQ   xstride+32(FP), R10
	SHLQ   $2, R10
	LEAQ   (R10)(R10*2), R8
	MOVQ   ic+24(FP), R11
	SHLQ   $2, R11
	MOVQ   spans+56(FP), AX
	MOVQ   nspans+64(FP), DX
	IMUL3Q $Span__size, DX, DX
	ADDQ   AX, DX
	MOVQ   DX, end-16(SP)

span:
	MOVQ   AX, span-8(SP)
	MOVQ   Span_Taps(AX), R9
	MOVQ   Span_Taps+8(AX), DX
	IMUL3Q $Tap__size, DX, DX
	ADDQ   DX, R9
	MOVQ   Span_Out(AX), DI
	IMULQ  R11, DI
	XORQ   SI, SI
	MOVQ   Span_Npix(AX), CX

// Eight pixels against one channel block. In a span of eight or more,
// four to seven pixels left over are a last block of eight backed up to
// the span's last pixel.
px8:
	CMPQ CX, $8
	JGE  px8Start
	CMPQ CX, $4
	JLT  px4
	MOVQ span-8(SP), AX
	CMPQ Span_Npix(AX), $8
	JLT  px4
	BACK_UP8

px8Start:
	MOVQ c0+8(FP), R12
	SHLQ $2, R12

px8Block:
	START(BIAS8(0, 0, 0, 0, 0, 0, 0, 0), ZERO8, px8Zero, px8Taps)
	CMPQ BX, R9
	JEQ  px8Epi

px8Tap:
	MOVQ    Tap_W(BX), DX
	VMOVUPS (R15)(DX*4), VW0
	MOVQ    Tap_X(BX), AX
	LEAQ    (R13)(AX*4), AX
	LEAQ    (AX)(R10*4), DX
	VMOVUPS (AX), VT0
	VMOVUPS (AX)(R10*1), VT1
	VMOVUPS (AX)(R10*2), VT2
	VMOVUPS (AX)(R8*1), VT3
	VMULPS  VW0, VT0, VT0
	VMULPS  VW0, VT1, VT1
	VMULPS  VW0, VT2, VT2
	VMULPS  VW0, VT3, VT3
	VADDPS  VT0, VA0, VA0
	VADDPS  VT1, VA1, VA1
	VADDPS  VT2, VA2, VA2
	VADDPS  VT3, VA3, VA3
	VMOVUPS (DX), VT0
	VMOVUPS (DX)(R10*1), VT1
	VMOVUPS (DX)(R10*2), VT2
	VMOVUPS (DX)(R8*1), VT3
	VMULPS  VW0, VT0, VT0
	VMULPS  VW0, VT1, VT1
	VMULPS  VW0, VT2, VT2
	VMULPS  VW0, VT3, VT3
	VADDPS  VT0, VA4, VA4
	VADDPS  VT1, VA5, VA5
	VADDPS  VT2, VA6, VA6
	VADDPS  VT3, VA7, VA7
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     px8Tap

px8Epi:
	EPILOGUE(AFFINE8(0, 0, 0, 0, 0, 0, 0, 0), RELU8, CAP8, px8ReLU, px8Store)
	MOVQ    dst+0(FP), AX
	ADDQ    DI, AX
	ADDQ    R12, AX
	LEAQ    (AX)(R11*4), DX
	VMOVUPS VA0, (AX)
	VMOVUPS VA1, (AX)(R11*1)
	VMOVUPS VA2, (AX)(R11*2)
	VMOVUPS VA4, (DX)
	VMOVUPS VA5, (DX)(R11*1)
	VMOVUPS VA6, (DX)(R11*2)
	LEAQ    (AX)(R11*2), AX
	LEAQ    (DX)(R11*2), DX
	VMOVUPS VA3, (AX)(R11*1)
	VMOVUPS VA7, (DX)(R11*1)
	ADDQ    $LB, R12
	CHANNELS_LEFT(0)
	CMPQ    R12, AX
	JLT     px8Block
	LEAQ    (SI)(R10*8), SI
	LEAQ    (DI)(R11*8), DI
	SUBQ    $8, CX
	JMP     px8

// Four pixels against two channel blocks, then against the last one.
px4:
	CMPQ CX, $4
	JLT  px1
	MOVQ c0+8(FP), R12
	SHLQ $2, R12

px4Pair:
	CHANNELS_LEFT(LB2)
	CMPQ R12, AX
	JGT  px4One
	START(BIAS8(0, 0, 0, 0, LB, LB, LB, LB), ZERO8, px4PairZero, px4PairTaps)
	CMPQ BX, R9
	JEQ  px4PairEpi

px4PairTap:
	MOVQ    Tap_W(BX), DX
	VMOVUPS (R15)(DX*4), VW0
	VMOVUPS LB(R15)(DX*4), VW1
	MOVQ    Tap_X(BX), AX
	LEAQ    (R13)(AX*4), AX
	VMOVUPS (AX), VT0
	VMOVUPS (AX)(R10*1), VT1
	VMOVUPS (AX)(R10*2), VT2
	VMOVUPS (AX)(R8*1), VT3
	VMULPS  VW0, VT0, VT0
	VMULPS  VW0, VT1, VT1
	VMULPS  VW0, VT2, VT2
	VMULPS  VW0, VT3, VT3
	VADDPS  VT0, VA0, VA0
	VADDPS  VT1, VA1, VA1
	VADDPS  VT2, VA2, VA2
	VADDPS  VT3, VA3, VA3
	VMOVUPS LB(AX), VT0
	VMOVUPS LB(AX)(R10*1), VT1
	VMOVUPS LB(AX)(R10*2), VT2
	VMOVUPS LB(AX)(R8*1), VT3
	VMULPS  VW1, VT0, VT0
	VMULPS  VW1, VT1, VT1
	VMULPS  VW1, VT2, VT2
	VMULPS  VW1, VT3, VT3
	VADDPS  VT0, VA4, VA4
	VADDPS  VT1, VA5, VA5
	VADDPS  VT2, VA6, VA6
	VADDPS  VT3, VA7, VA7
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     px4PairTap

px4PairEpi:
	EPILOGUE(AFFINE8(0, 0, 0, 0, LB, LB, LB, LB), RELU8, CAP8, px4PairReLU, px4PairStore)
	MOVQ    dst+0(FP), AX
	ADDQ    DI, AX
	ADDQ    R12, AX
	LEAQ    (AX)(R11*2), DX
	VMOVUPS VA0, (AX)
	VMOVUPS VA1, (AX)(R11*1)
	VMOVUPS VA2, (DX)
	VMOVUPS VA3, (DX)(R11*1)
	VMOVUPS VA4, LB(AX)
	VMOVUPS VA5, LB(AX)(R11*1)
	VMOVUPS VA6, LB(DX)
	VMOVUPS VA7, LB(DX)(R11*1)
	ADDQ    $LB2, R12
	JMP     px4Pair

px4One:
	CHANNELS_LEFT(0)
	CMPQ R12, AX
	JGE  px4Next
	START(BIAS4, ZERO4, px4OneZero, px4OneTaps)
	CMPQ BX, R9
	JEQ  px4OneEpi

px4OneTap:
	MOVQ    Tap_W(BX), DX
	VMOVUPS (R15)(DX*4), VW0
	MOVQ    Tap_X(BX), AX
	LEAQ    (R13)(AX*4), AX
	VMOVUPS (AX), VT0
	VMOVUPS (AX)(R10*1), VT1
	VMOVUPS (AX)(R10*2), VT2
	VMOVUPS (AX)(R8*1), VT3
	VMULPS  VW0, VT0, VT0
	VMULPS  VW0, VT1, VT1
	VMULPS  VW0, VT2, VT2
	VMULPS  VW0, VT3, VT3
	VADDPS  VT0, VA0, VA0
	VADDPS  VT1, VA1, VA1
	VADDPS  VT2, VA2, VA2
	VADDPS  VT3, VA3, VA3
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     px4OneTap

px4OneEpi:
	EPILOGUE(AFFINE4, RELU4, CAP4, px4OneReLU, px4OneStore)
	MOVQ    dst+0(FP), AX
	ADDQ    DI, AX
	ADDQ    R12, AX
	LEAQ    (AX)(R11*2), DX
	VMOVUPS VA0, (AX)
	VMOVUPS VA1, (AX)(R11*1)
	VMOVUPS VA2, (DX)
	VMOVUPS VA3, (DX)(R11*1)

px4Next:
	LEAQ (SI)(R10*4), SI
	LEAQ (DI)(R11*4), DI
	SUBQ $4, CX

// Single pixels against eight channel blocks, then one at a time.
px1:
	TESTQ CX, CX
	JZ    done
	MOVQ  c0+8(FP), R12
	SHLQ  $2, R12

px1Eight:
	CHANNELS_LEFT(LB8)
	CMPQ R12, AX
	JGT  px1One
	START(BIAS8(0, OFF1, OFF2, OFF3, OFF4, OFF5, OFF6, OFF7), ZERO8, px1EightZero, px1EightTaps)
	CMPQ BX, R9
	JEQ  px1EightEpi

px1EightTap:
	MOVQ    Tap_W(BX), DX
	LEAQ    (R15)(DX*4), DX
	MOVQ    Tap_X(BX), AX
	LEAQ    (R13)(AX*4), AX
	VMOVUPS (AX), VT0
	VMOVUPS OFF1(AX), VT1
	VMOVUPS OFF2(AX), VT2
	VMOVUPS OFF3(AX), VT3
	VMULPS  (DX), VT0, VT0
	VMULPS  OFF1(DX), VT1, VT1
	VMULPS  OFF2(DX), VT2, VT2
	VMULPS  OFF3(DX), VT3, VT3
	VADDPS  VT0, VA0, VA0
	VADDPS  VT1, VA1, VA1
	VADDPS  VT2, VA2, VA2
	VADDPS  VT3, VA3, VA3
	VMOVUPS OFF4(AX), VT0
	VMOVUPS OFF5(AX), VT1
	VMOVUPS OFF6(AX), VT2
	VMOVUPS OFF7(AX), VT3
	VMULPS  OFF4(DX), VT0, VT0
	VMULPS  OFF5(DX), VT1, VT1
	VMULPS  OFF6(DX), VT2, VT2
	VMULPS  OFF7(DX), VT3, VT3
	VADDPS  VT0, VA4, VA4
	VADDPS  VT1, VA5, VA5
	VADDPS  VT2, VA6, VA6
	VADDPS  VT3, VA7, VA7
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     px1EightTap

px1EightEpi:
	EPILOGUE(AFFINE8(0, OFF1, OFF2, OFF3, OFF4, OFF5, OFF6, OFF7), RELU8, CAP8, px1EightReLU, px1EightStore)
	MOVQ    dst+0(FP), AX
	ADDQ    DI, AX
	ADDQ    R12, AX
	VMOVUPS VA0, (AX)
	VMOVUPS VA1, OFF1(AX)
	VMOVUPS VA2, OFF2(AX)
	VMOVUPS VA3, OFF3(AX)
	VMOVUPS VA4, OFF4(AX)
	VMOVUPS VA5, OFF5(AX)
	VMOVUPS VA6, OFF6(AX)
	VMOVUPS VA7, OFF7(AX)
	ADDQ    $LB8, R12
	JMP     px1Eight

px1One:
	CHANNELS_LEFT(0)
	CMPQ R12, AX
	JGE  px1Next
	START(BIAS1, VZERO(VA0), px1OneZero, px1OneTaps)
	CMPQ BX, R9
	JEQ  px1OneEpi

px1OneTap:
	MOVQ    Tap_W(BX), DX
	MOVQ    Tap_X(BX), AX
	LEAQ    (R13)(AX*4), AX
	VMOVUPS (AX), VT0
	VMULPS  (R15)(DX*4), VT0, VT0
	VADDPS  VT0, VA0, VA0
	ADDQ    $Tap__size, BX
	CMPQ    BX, R9
	JNE     px1OneTap

px1OneEpi:
	EPILOGUE(AFFINE1, RELU1, CAP1, px1OneReLU, px1OneStore)
	MOVQ    dst+0(FP), AX
	ADDQ    DI, AX
	VMOVUPS VA0, (AX)(R12*1)
	ADDQ    $LB, R12
	JMP     px1One

px1Next:
	ADDQ R10, SI
	ADDQ R11, DI
	DECQ CX
	JMP  px1

done:
	MOVQ span-8(SP), AX
	ADDQ $Span__size, AX
	CMPQ AX, end-16(SP)
	JB   span
	VZEROUPPER
	RET
