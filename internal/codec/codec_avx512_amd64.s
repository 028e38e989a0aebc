//go:build amd64 && !purego

#include "textflag.h"
#include "codec_amd64.h"

// The codec's AVX-512 tier: a block row of eight float64 in one ZMM
// register. The kernels stay below Z16, so VZEROUPPER clears the upper
// state of every register they wrote, and run only AVX512F
// instructions (VPANDQ and VPXORQ, not VANDPD and VXORPD, which would
// need AVX512DQ; KMOVW, not KMOVB).
//
// Both transforms are outer products over the sum index n: eight
// accumulators, one per output row, each start at +0 and add, for n
// ascending, the product of one broadcast scalar and a row vector. So
// every output lane adds its terms from +0 in the order the generic
// kernels do, one VMULPD rounded before one VADDPD (the running sum
// first), and comes out with the same bits.

// ZERO8 sets the accumulators Z0..Z7 to +0.
#define ZERO8 \
	VPXORQ Z0, Z0, Z0; VPXORQ Z1, Z1, Z1; VPXORQ Z2, Z2, Z2; VPXORQ Z3, Z3, Z3; \
	VPXORQ Z4, Z4, Z4; VPXORQ Z5, Z5, Z5; VPXORQ Z6, Z6, Z6; VPXORQ Z7, Z7, Z7

// STORE8 stores Z0..Z7 as the eight rows of the block at AX.
#define STORE8 \
	VMOVUPD Z0, 0(AX); VMOVUPD Z1, 64(AX); VMOVUPD Z2, 128(AX); VMOVUPD Z3, 192(AX); \
	VMOVUPD Z4, 256(AX); VMOVUPD Z5, 320(AX); VMOVUPD Z6, 384(AX); VMOVUPD Z7, 448(AX)

// STEP adds to accumulator i the product of Z8 and the float64 at
// i*stride+off bytes past base, for i = 0..7.
#define STEP(base, off, stride) \
	VMULPD.BCST (0*stride+off)(base), Z8, Z9; VADDPD Z9, Z0, Z0;   \
	VMULPD.BCST (1*stride+off)(base), Z8, Z10; VADDPD Z10, Z1, Z1; \
	VMULPD.BCST (2*stride+off)(base), Z8, Z11; VADDPD Z11, Z2, Z2; \
	VMULPD.BCST (3*stride+off)(base), Z8, Z12; VADDPD Z12, Z3, Z3; \
	VMULPD.BCST (4*stride+off)(base), Z8, Z13; VADDPD Z13, Z4, Z4; \
	VMULPD.BCST (5*stride+off)(base), Z8, Z14; VADDPD Z14, Z5, Z5; \
	VMULPD.BCST (6*stride+off)(base), Z8, Z15; VADDPD Z15, Z6, Z6; \
	VMULPD.BCST (7*stride+off)(base), Z8, Z9; VADDPD Z9, Z7, Z7

// STEPI is STEP over the float64s at i*stride bytes past
// base+8·idx.
#define STEPI(base, idx, stride) \
	VMULPD.BCST (0*stride)(base)(idx*8), Z8, Z9; VADDPD Z9, Z0, Z0;   \
	VMULPD.BCST (1*stride)(base)(idx*8), Z8, Z10; VADDPD Z10, Z1, Z1; \
	VMULPD.BCST (2*stride)(base)(idx*8), Z8, Z11; VADDPD Z11, Z2, Z2; \
	VMULPD.BCST (3*stride)(base)(idx*8), Z8, Z12; VADDPD Z12, Z3, Z3; \
	VMULPD.BCST (4*stride)(base)(idx*8), Z8, Z13; VADDPD Z13, Z4, Z4; \
	VMULPD.BCST (5*stride)(base)(idx*8), Z8, Z14; VADDPD Z14, Z5, Z5; \
	VMULPD.BCST (6*stride)(base)(idx*8), Z8, Z15; VADDPD Z15, Z6, Z6; \
	VMULPD.BCST (7*stride)(base)(idx*8), Z8, Z9; VADDPD Z9, Z7, Z7

// PASS accumulates, for n = 0..7, row n of the 8×8 matrix at rows
// times element [i][n] of the one at scalars into accumulator i.
#define PASS(rows, scalars) \
	VMOVUPD 0(rows), Z8; STEP(scalars, 0, 64);   \
	VMOVUPD 64(rows), Z8; STEP(scalars, 8, 64);  \
	VMOVUPD 128(rows), Z8; STEP(scalars, 16, 64); \
	VMOVUPD 192(rows), Z8; STEP(scalars, 24, 64); \
	VMOVUPD 256(rows), Z8; STEP(scalars, 32, 64); \
	VMOVUPD 320(rows), Z8; STEP(scalars, 40, 64); \
	VMOVUPD 384(rows), Z8; STEP(scalars, 48, 64); \
	VMOVUPD 448(rows), Z8; STEP(scalars, 56, 64)

// func fdctAVX512(b *block)
//
// The forward transform as two passes of the same shape. The row pass
// makes U = B·Cᵀ, row y of U the sum over n of b[y][n] times row n of
// dctCosT (U[y][k] is fdctRows' tmp[k][y]); the column pass makes C·U,
// row k the sum over n of dctCos[k][n] times row n of U.
TEXT ·fdctAVX512(SB), NOSPLIT, $0-8
	MOVQ b+0(FP), AX
	LEAQ ·dctCosT(SB), BX
	LEAQ ·dctCos(SB), CX
	ZERO8
	PASS(BX, AX)
	STORE8
	ZERO8
	PASS(AX, CX)
	STORE8
	VZEROUPPER
	RET

// func idctAVX512(b *block, nz uint64)
//
// The inverse transform over the rows and columns nz names. The column
// pass makes T = Cᵀ·Z, Z the block with the positions nz does not name
// zeroed (a zero-masked load): for each row k that names one, row n of
// T adds dctCos[k][n] times row k of Z. The row pass makes T·C: for
// each column k of T that any row names, row y adds T[y][k] times row
// k of dctCos. A term skipped, or one whose coefficient is a zeroed
// position, adds ±0 to a sum that is never −0, which changes nothing
// (the exact-order rule), so both passes agree with idctGo, which
// visits exactly the named coefficients.
//
// DX holds nz, R8 the rows (or columns) left to visit, R10 the current
// one's bit index.
TEXT ·idctAVX512(SB), NOSPLIT, $0-16
	MOVQ b+0(FP), AX
	MOVQ nz+8(FP), DX
	LEAQ ·dctCos(SB), BX
	ZERO8

	// Bit 8k of R8: row k names a coefficient.
	MOVQ    DX, R8
	ROWBITS(R8, R9)
	JZ   rowpass

colpass:
	BSFQ    R8, R10                      // R10 = 8k
	MOVQ    R10, CX
	MOVQ    DX, R11
	SHRQ    CX, R11
	KMOVW   R11, K1                      // row k's byte of nz
	VMOVUPD.Z (AX)(R10*8), K1, Z8
	STEPI(BX, R10, 8)
	LEAQ    -1(R8), R11
	ANDQ    R11, R8
	JNZ     colpass

rowpass:
	STORE8

	// Bit k of R8: some row names a coefficient in column k.
	MOVQ    DX, R8
	COLBITS(R8, R9)
	ZERO8
	JZ   done

rowloop:
	BSFQ    R8, R10                      // R10 = k
	MOVQ    R10, R11
	SHLQ    $6, R11
	VMOVUPD (BX)(R11*1), Z8              // row k of dctCos
	STEPI(AX, R10, 64)
	LEAQ    -1(R8), R11
	ANDQ    R11, R8
	JNZ     rowloop

done:
	STORE8
	VZEROUPPER
	RET

// LIVE sets bits 8r..8r+7 of DX where |b[r][x]| ≥ half[r][x]
// (ordered: a NaN is never live).
#define LIVE(r) \
	VPANDQ  (r*64)(AX), Z15, Z0;        \
	VCMPPD  $0x1d, (r*64)(BX), Z0, K1;  \
	KMOVW   K1, R9;                     \
	SHLQ    $(r*8), R9;                 \
	ORQ     R9, DX

// func liveAVX512(b, half *block) uint64
TEXT ·liveAVX512(SB), NOSPLIT, $0-24
	MOVQ         b+0(FP), AX
	MOVQ         half+8(FP), BX
	MOVQ         $0x7fffffffffffffff, R8
	VPBROADCASTQ R8, Z15
	XORQ         DX, DX
	LIVE(0)
	LIVE(1)
	LIVE(2)
	LIVE(3)
	LIVE(4)
	LIVE(5)
	LIVE(6)
	LIVE(7)
	MOVQ         DX, ret+16(FP)
	VZEROUPPER
	RET

// func residualAVX512(b *block, src, pred *float32, stride, pstride, rows int)
//
// Row y of b is float64(src) − float64(pred) for y < rows; the rows
// past them repeat the last.
TEXT ·residualAVX512(SB), NOSPLIT, $0-48
	MOVQ b+0(FP), AX
	MOVQ src+8(FP), SI
	MOVQ pred+16(FP), DI
	MOVQ stride+24(FP), R8
	MOVQ pstride+32(FP), R9
	MOVQ rows+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	MOVQ $8, DX
	SUBQ CX, DX

resrow:
	VCVTPS2PD (SI), Z0
	VCVTPS2PD (DI), Z1
	VSUBPD    Z1, Z0, Z0
	VMOVUPD   Z0, (AX)
	ADDQ      $64, AX
	ADDQ      R8, SI
	ADDQ      R9, DI
	DECQ      CX
	JNZ       resrow
	TESTQ     DX, DX
	JZ        resdone

respad:
	VMOVUPD Z0, (AX)
	ADDQ    $64, AX
	DECQ    DX
	JNZ     respad

resdone:
	VZEROUPPER
	RET

// func reconAVX512(b *block, pred, recon *float32, stride, pstride, rows int)
//
// Row y of recon is float32(min(255, max(0, b[y] + float64(pred)))),
// for y < rows. MAX takes zero first and MIN the cap, so each returns
// the sum where reconGo's comparisons keep it.
TEXT ·reconAVX512(SB), NOSPLIT, $0-48
	MOVQ         b+0(FP), AX
	MOVQ         pred+8(FP), DI
	MOVQ         recon+16(FP), SI
	MOVQ         stride+24(FP), R8
	MOVQ         pstride+32(FP), R9
	MOVQ         rows+40(FP), CX
	SHLQ         $2, R8
	SHLQ         $2, R9
	VPXORQ       Z14, Z14, Z14
	MOVQ         $0x406fe00000000000, DX // 255.0
	VPBROADCASTQ DX, Z15

recrow:
	VMOVUPD   (AX), Z0
	VCVTPS2PD (DI), Z1
	VADDPD    Z1, Z0, Z0
	VMAXPD    Z0, Z14, Z0
	VMINPD    Z0, Z15, Z0
	VCVTPD2PS Z0, Y0
	VMOVUPS   Y0, (SI)
	ADDQ      $64, AX
	ADDQ      R8, SI
	ADDQ      R9, DI
	DECQ      CX
	JNZ       recrow
	VZEROUPPER
	RET

// func levelsAVX512(b, step *block, nz uint64) int64
//
// Quantizes and dequantizes the coefficients nz names, a row of eight
// at a time over the rows that name one: q = c/step,
// mag = trunc(|q| + 0.5), c = copysign(mag, q)·step, stored under the
// row's byte of nz. It returns the sum, over the named coefficients,
// of mag's biased exponent field (mag ≥ 1 is an integer, so the field
// less 1022 is its bit length). Z12 holds the sum's eight lanes, R9 the
// rows left, R10 the current one's bit index.
TEXT ·levelsAVX512(SB), NOSPLIT, $0-32
	MOVQ         b+0(FP), AX
	MOVQ         step+8(FP), BX
	MOVQ         nz+16(FP), DX
	MOVQ         $0x7fffffffffffffff, R8
	VPBROADCASTQ R8, Z15
	MOVQ         $0x8000000000000000, R8
	VPBROADCASTQ R8, Z14
	MOVQ         $0x3fe0000000000000, R8 // 0.5
	VPBROADCASTQ R8, Z13
	VPXORQ       Z12, Z12, Z12

	// Bit 8r of R9: row r names a coefficient.
	MOVQ    DX, R9
	ROWBITS(R9, R8)
	JZ   levsum

levrow:
	BSFQ        R9, R10                  // R10 = 8r
	MOVQ        R10, CX
	MOVQ        DX, R11
	SHRQ        CX, R11
	KMOVW       R11, K1                  // row r's byte of nz
	VMOVUPD     (AX)(R10*8), Z0
	VDIVPD      (BX)(R10*8), Z0, Z1
	VPANDQ      Z1, Z15, Z2
	VADDPD      Z13, Z2, Z2
	VRNDSCALEPD $3, Z2, Z2
	VPSRLQ      $52, Z2, Z3
	VPADDQ      Z3, Z12, K1, Z12
	VPANDQ      Z1, Z14, Z3
	VPORQ       Z3, Z2, Z2
	VMULPD      (BX)(R10*8), Z2, Z2
	VMOVUPD     Z2, K1, (AX)(R10*8)
	LEAQ        -1(R9), R11
	ANDQ        R11, R9
	JNZ         levrow

levsum:
	VEXTRACTI64X4 $1, Z12, Y0
	VPADDQ        Y0, Y12, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDQ        X1, X0, X0
	VPUNPCKHQDQ   X0, X0, X1
	VPADDQ        X1, X0, X0
	VMOVQ         X0, R8
	MOVQ          R8, ret+24(FP)
	VZEROUPPER
	RET

// The colour conversions hold sixteen pixels a ZMM register, one
// channel of float32 each. Sixteen interleaved RGB pixels lie in three
// vectors, lane l of vector v holding channel (v+l) mod 3 (16 ≡ 1):
// so the lanes where l mod 3 is 0, 1 and 2 (K1, K2 and K3) pick which
// vector holds a channel there, two blends gather a channel into one
// vector, and a VPERMPS by rgbPerm16 puts it in pixel order, or the
// reverse. Every lane computes what toYCbCr and fromYCbCr compute, in
// their order, each product and quotient rounded before the next step.

#define KMASKS \
	MOVL  $0x9249, R11; \
	KMOVW R11, K1;      \
	MOVL  $0x2492, R11; \
	KMOVW R11, K2;      \
	MOVL  $0x4924, R11; \
	KMOVW R11, K3

// YCC converts the sixteen pixels at rgb: their luma, times 255, to
// lum, and their chroma contributions to cbdst and crdst. Z12..Z14
// hold rgbPerm16's three picks.
#define YCC(rgb, lum, cbdst, crdst) \
	VMOVUPS     0(rgb), Z0;                    \
	VMOVUPS     64(rgb), Z1;                   \
	VMOVUPS     128(rgb), Z2;                  \
	VBLENDMPS   Z1, Z0, K3, Z3;                \
	VBLENDMPS   Z2, Z3, K2, Z3;                \
	VPERMPS     Z3, Z12, Z3;                   \
	VBLENDMPS   Z1, Z0, K1, Z4;                \
	VBLENDMPS   Z2, Z4, K3, Z4;                \
	VPERMPS     Z4, Z13, Z4;                   \
	VBLENDMPS   Z1, Z0, K2, Z5;                \
	VBLENDMPS   Z2, Z5, K1, Z5;                \
	VPERMPS     Z5, Z14, Z5;                   \
	VMULPS.BCST ·colourK+0(SB), Z3, Z6;        \
	VMULPS.BCST ·colourK+4(SB), Z4, Z7;        \
	VADDPS      Z7, Z6, Z6;                    \
	VMULPS.BCST ·colourK+8(SB), Z5, Z7;        \
	VADDPS      Z7, Z6, Z6;                    \
	VMULPS.BCST ·colourK+12(SB), Z6, Z7;       \
	VMOVUPS     Z7, lum;                       \
	VSUBPS      Z6, Z5, Z5;                    \
	VMULPS.BCST ·colourK+16(SB), Z5, Z5;       \
	VADDPS.BCST ·colourK+24(SB), Z5, Z5;       \
	VMULPS.BCST ·colourK+12(SB), Z5, cbdst;    \
	VSUBPS      Z6, Z3, Z3;                    \
	VMULPS.BCST ·colourK+20(SB), Z3, Z3;       \
	VADDPS.BCST ·colourK+24(SB), Z3, Z3;       \
	VMULPS.BCST ·colourK+12(SB), Z3, crdst

// CELLS sums the chroma contributions of eight 2×2 cells from +0 in
// raster order, top (in top) then bottom (in bot), even pixel before
// odd, divides by four and stores the eight means at dst. Z0 and Z1
// hold rgbPerm16's even and odd splits, Z7 zero.
#define CELLS(top, bot, dst) \
	VPERMPS     top, Z0, Z2;                   \
	VADDPS      Z2, Z7, Z2;                    \
	VPERMPS     top, Z1, Z3;                   \
	VADDPS      Z3, Z2, Z2;                    \
	VPERMPS     bot, Z0, Z3;                   \
	VADDPS      Z3, Z2, Z2;                    \
	VPERMPS     bot, Z1, Z3;                   \
	VADDPS      Z3, Z2, Z2;                    \
	VDIVPS.BCST ·colourK+28(SB), Z2, Z2;       \
	VMOVUPS     Y2, dst

// func ycbcrAVX512(rgb, lum, cb, cr *float32, w, n int)
//
// The first n cells (n a positive multiple of 8) of a row pair of w
// pixels: rgb and lum point at the top row, the bottom row follows w
// pixels on.
TEXT ·ycbcrAVX512(SB), NOSPLIT, $0-48
	MOVQ    rgb+0(FP), SI
	MOVQ    lum+8(FP), DI
	MOVQ    cb+16(FP), R8
	MOVQ    cr+24(FP), R9
	MOVQ    w+32(FP), DX
	MOVQ    n+40(FP), CX
	LEAQ    (DX)(DX*2), R10
	LEAQ    (SI)(R10*4), R10             // the bottom row's RGB
	LEAQ    (DI)(DX*4), DX               // and its luma
	VMOVUPS ·rgbPerm16+0(SB), Z12
	VMOVUPS ·rgbPerm16+64(SB), Z13
	VMOVUPS ·rgbPerm16+128(SB), Z14
	KMASKS

yccloop:
	YCC(SI, (DI), Z8, Z9)
	YCC(R10, (DX), Z10, Z11)
	VMOVUPS ·rgbPerm16+384(SB), Z0
	VMOVUPS ·rgbPerm16+448(SB), Z1
	VPXORD  Z7, Z7, Z7
	CELLS(Z8, Z10, (R8))
	CELLS(Z9, Z11, (R9))
	ADDQ    $192, SI
	ADDQ    $192, R10
	ADDQ    $64, DI
	ADDQ    $64, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	SUBQ    $8, CX
	JNZ     yccloop
	VZEROUPPER
	RET

// func rgbAVX512(rgb, lum, cb, cr *float32, n int)
//
// The first n pixels (n a positive multiple of 16) of a row: luma at
// lum, the chroma of pixel x at cb[x/2] and cr[x/2], interleaved RGB
// clamped to [0,1] to rgb. MAX takes zero first and MIN one, as
// clamp01's comparisons keep the value.
TEXT ·rgbAVX512(SB), NOSPLIT, $0-40
	MOVQ    rgb+0(FP), DI
	MOVQ    lum+8(FP), SI
	MOVQ    cb+16(FP), R8
	MOVQ    cr+24(FP), R9
	MOVQ    n+32(FP), CX
	VMOVUPS ·rgbPerm16+192(SB), Z9
	VMOVUPS ·rgbPerm16+256(SB), Z10
	VMOVUPS ·rgbPerm16+320(SB), Z11
	VMOVUPS ·rgbPerm16+512(SB), Z8
	VPXORD  Z12, Z12, Z12
	VBROADCASTSS ·colourK+32(SB), Z13
	KMASKS

rgbloop:
	VMOVUPS     (SI), Z0
	VDIVPS.BCST ·colourK+12(SB), Z0, Z0
	VMOVUPS     (R8), Y1
	VPERMPS     Z1, Z8, Z1
	VDIVPS.BCST ·colourK+12(SB), Z1, Z1
	VSUBPS.BCST ·colourK+24(SB), Z1, Z1
	VMOVUPS     (R9), Y2
	VPERMPS     Z2, Z8, Z2
	VDIVPS.BCST ·colourK+12(SB), Z2, Z2
	VSUBPS.BCST ·colourK+24(SB), Z2, Z2
	VDIVPS.BCST ·colourK+20(SB), Z2, Z3
	VADDPS      Z3, Z0, Z3
	VDIVPS.BCST ·colourK+16(SB), Z1, Z5
	VADDPS      Z5, Z0, Z5
	VMULPS.BCST ·colourK+0(SB), Z3, Z6
	VSUBPS      Z6, Z0, Z4
	VMULPS.BCST ·colourK+8(SB), Z5, Z6
	VSUBPS      Z6, Z4, Z4
	VDIVPS.BCST ·colourK+4(SB), Z4, Z4
	VMAXPS      Z3, Z12, Z3
	VMINPS      Z3, Z13, Z3
	VMAXPS      Z4, Z12, Z4
	VMINPS      Z4, Z13, Z4
	VMAXPS      Z5, Z12, Z5
	VMINPS      Z5, Z13, Z5
	VPERMPS     Z3, Z9, Z3
	VPERMPS     Z4, Z10, Z4
	VPERMPS     Z5, Z11, Z5
	VBLENDMPS   Z4, Z3, K2, Z6
	VBLENDMPS   Z5, Z6, K3, Z6
	VMOVUPS     Z6, 0(DI)
	VBLENDMPS   Z4, Z3, K1, Z6
	VBLENDMPS   Z5, Z6, K2, Z6
	VMOVUPS     Z6, 64(DI)
	VBLENDMPS   Z4, Z3, K3, Z6
	VBLENDMPS   Z5, Z6, K1, Z6
	VMOVUPS     Z6, 128(DI)
	ADDQ        $192, DI
	ADDQ        $64, SI
	ADDQ        $32, R8
	ADDQ        $32, R9
	SUBQ        $16, CX
	JNZ         rgbloop
	VZEROUPPER
	RET
