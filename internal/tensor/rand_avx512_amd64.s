//go:build amd64 && !purego

#include "textflag.h"

// The sixteen-lane AVX-512 fast path of NoisePixels: math/rand's
// NormFloat64 ziggurat rectangle test and product on sixteen words of
// the generator's block at once, then the exposure and noise of sixteen
// pixels. Each lane does what noiseGo does to one value, operation for
// operation: j is bits 31–62 of the word, the layer i = j & 0x7f, the
// test |j| < kn[i] unsigned (so j = −2^31 fails it, as absInt32 makes
// it), the draw float64(j)·float64(wn[i]) rounded once to float32 (in
// two halves of eight float64 lanes), then std·n rounded before it is
// added (VMULPS, then VADDPS; never an FMA). clamp01 is VMAXPS with 0
// as the first source, then VMINPS with 1 as the first source: each
// keeps its second source unless the first compares greater (or
// smaller), which is Go's v < 0, then v > 1, so −0 and NaN pass
// through as clamp01 leaves them. Sixteen lanes rather than eight
// because the table lookups work on sixteen 32-bit lanes whatever the
// block: at eight they took half the kernel's time. A block whose
// lanes all pass is written unmasked: a masked store keeps the next
// block's load waiting for it. The kernel runs only AVX512F
// instructions and stays below Z16, so VZEROUPPER clears the upper
// state of every register it wrote.

// LOOKUP sets each lane of dst to entry i (Z2) of the 128-entry
// 32-bit table at tab: VPERMT2D picks entry i&31 of each quarter of the
// table, and K2 (i&32) and K3 (i&64) choose among the quarters. It uses
// Z6 and Z7. The table is read with loads and permutes rather than
// gathers, which run far slower on CPUs patched against Gather Data
// Sampling.
#define LOOKUP(tab, dst) \
	VMOVDQU32 0(tab), dst;        \
	VPERMT2D  64(tab), Z2, dst;   \
	VMOVDQU32 128(tab), Z6;       \
	VPERMT2D  192(tab), Z2, Z6;   \
	VMOVDQA32 Z6, K2, dst;        \
	VMOVDQU32 256(tab), Z6;       \
	VPERMT2D  320(tab), Z2, Z6;   \
	VMOVDQU32 384(tab), Z7;       \
	VPERMT2D  448(tab), Z2, Z7;   \
	VMOVDQA32 Z7, K2, Z6;         \
	VMOVDQA32 Z6, K3, dst

// DRAW sets Z6 to std·float32(float64(j)·float64(wn[i])) from j (Z1)
// and wn[i] (Z4), eight lanes at a time. It uses Z5, Z7 and Z8.
#define DRAW \
	VCVTDQ2PD     Y1, Z6;       \
	VCVTPS2PD     Y4, Z7;       \
	VMULPD        Z7, Z6, Z6;   \
	VCVTPD2PS     Z6, Y6;       \
	VEXTRACTI64X4 $1, Z1, Y8;   \
	VEXTRACTF64X4 $1, Z4, Y5;   \
	VCVTDQ2PD     Y8, Z8;       \
	VCVTPS2PD     Y5, Z5;       \
	VMULPD        Z5, Z8, Z8;   \
	VCVTPD2PS     Z8, Y8;       \
	VINSERTF64X4  $1, Y8, Z6, Z6; \
	VMULPS        Z12, Z6, Z6

// EXPOSE applies the gain (when R13 says it applies) and then the noise
// (Z6) to the values in Z7, each step followed by clamp01. 4(PC) is
// the VADDPS, past the product and CLAMP01's two instructions.
#define EXPOSE \
	TESTL  R13, R13;     \
	JZ     4(PC);        \
	VMULPS Z11, Z7, Z7;  \
	CLAMP01(Z7);         \
	VADDPS Z6, Z7, Z7;   \
	CLAMP01(Z7)

#define CLAMP01(r) \
	VMAXPS r, Z13, r; \
	VMINPS r, Z14, r

// func noiseAVX512(pix []float32, words []uint64, gain, std float32, scale bool) int
//
// noiseAVX512 takes one word per value, sixteen at a time, the last
// block masked to what is left of the shorter slice, and returns how many
// values it wrote: all it could, or those before the first word the
// rectangle test rejects, which it leaves for math/rand's own tail and
// wedge code. scale says whether gain applies (gain != 1).
TEXT ·noiseAVX512(SB), NOSPLIT, $0-72
	MOVQ pix_base+0(FP), SI
	MOVQ pix_len+8(FP), BX
	MOVQ words_base+24(FP), DI
	MOVQ words_len+32(FP), AX
	CMPQ AX, BX
	CMOVQLT AX, BX // values to write: the shorter length
	MOVBLZX scale+56(FP), R13
	LEAQ ·kn(SB), R8
	LEAQ ·wn(SB), R9
	MOVL $0x7f, AX
	VPBROADCASTD AX, Z10            // layer mask
	VBROADCASTSS gain+48(FP), Z11
	VBROADCASTSS std+52(FP), Z12
	VPXORD Z13, Z13, Z13            // 0
	MOVL $0x3f800000, AX
	VPBROADCASTD AX, Z14            // 1
	MOVL $32, AX
	VPBROADCASTD AX, Z15
	MOVL $64, AX
	VPBROADCASTD AX, Z9
	XORQ DX, DX                     // values written

loop:
	MOVQ BX, CX
	SUBQ DX, CX // values left
	JLE  done
	MOVL $0xffff, R10
	CMPQ CX, $16
	JLT  short
	VMOVDQU64 (DI)(DX*8), Z0
	VMOVDQU64 64(DI)(DX*8), Z8

block:
	KMOVW   R10, K1
	VPSRLQ  $31, Z0, Z0
	VPSRLQ  $31, Z8, Z8
	VPMOVQD Z0, Y1
	VPMOVQD Z8, Y8
	VINSERTI64X4 $1, Y8, Z1, Z1     // j
	VPANDD  Z10, Z1, Z2             // i
	VPTESTMD Z15, Z2, K2            // i & 32
	VPTESTMD Z9, Z2, K3             // i & 64
	LOOKUP(R8, Z3)                  // kn[i]
	LOOKUP(R9, Z4)                  // wn[i]
	VPABSD  Z1, Z5                  // |j|, −2^31 as 2^31
	VPCMPUD $1, Z3, Z5, K1, K4      // |j| < kn[i]

	// Every lane passed: the block advances by sixteen whatever the test
	// said, so the next block's loads need not wait for it. Otherwise
	// the lanes before the first one the test rejects take the fast path
	// and the kernel returns after them.
	KMOVW K4, AX
	CMPL  AX, R10
	JNE   reject
	CMPL  AX, $0xffff
	JNE   partial
	DRAW
	VMOVUPS (SI)(DX*4), Z7
	EXPOSE
	VMOVUPS Z7, (SI)(DX*4)
	ADDQ    $16, DX
	JMP     loop

short:
	MOVL  $1, R10 // a partial block: the low CX lanes
	SHLL  CX, R10
	DECL  R10
	KMOVW R10, K1
	MOVL  R10, R11
	SHRL  $8, R11
	KMOVW R11, K2
	VMOVDQU64.Z (DI)(DX*8), K1, Z0
	VMOVDQU64.Z 64(DI)(DX*8), K2, Z8
	JMP   block

partial:
	KMOVW K1, K5
	JMP   masked

reject:
	NOTL  AX
	BSFL  AX, CX                    // K4's bits 16 up are clear, so AX is not 0
	TESTL CX, CX
	JZ    done
	MOVL  $1, R11
	SHLL  CX, R11
	DECL  R11
	KMOVW R11, K5

masked:
	DRAW
	VMOVUPS.Z (SI)(DX*4), K5, Z7
	EXPOSE
	VMOVUPS Z7, K5, (SI)(DX*4)
	ADDQ    CX, DX

done:
	VZEROUPPER
	MOVQ DX, ret+64(FP)
	RET
