//go:build amd64 && !purego

#include "textflag.h"
#include "codec_amd64.h"

// The codec's AVX2 tier: a block row of eight float64 in a pair of YMM
// registers, its low and high halves. Sixteen registers hold eight
// accumulators of one half at a time, so each transform pass runs
// twice, once a half, with the same outer product as the AVX-512 tier
// (see codec_avx512_amd64.s): every output lane adds its terms from +0
// in the generic kernels' order, one VMULPD rounded before one VADDPD.

// ZERO8 sets the accumulators Y0..Y7 to +0.
#define ZERO8 \
	VXORPD Y0, Y0, Y0; VXORPD Y1, Y1, Y1; VXORPD Y2, Y2, Y2; VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; VXORPD Y5, Y5, Y5; VXORPD Y6, Y6, Y6; VXORPD Y7, Y7, Y7

// STORE8 stores Y0..Y7 as one half (off 0 or 32) of the eight rows of
// the block at base.
#define STORE8(base, off) \
	VMOVUPD Y0, (0*64+off)(base); VMOVUPD Y1, (1*64+off)(base); \
	VMOVUPD Y2, (2*64+off)(base); VMOVUPD Y3, (3*64+off)(base); \
	VMOVUPD Y4, (4*64+off)(base); VMOVUPD Y5, (5*64+off)(base); \
	VMOVUPD Y6, (6*64+off)(base); VMOVUPD Y7, (7*64+off)(base)

// MADD adds to accumulator acc the product of Y8 and the float64 at
// mem, through the temporary t.
#define MADD(mem, t, acc) \
	VBROADCASTSD mem, t; VMULPD Y8, t, t; VADDPD t, acc, acc

// STEP adds to accumulator i the product of Y8 and the float64 at
// i*stride+off bytes past base, for i = 0..7.
#define STEP(base, off, stride) \
	MADD((0*stride+off)(base), Y9, Y0);  \
	MADD((1*stride+off)(base), Y10, Y1); \
	MADD((2*stride+off)(base), Y11, Y2); \
	MADD((3*stride+off)(base), Y12, Y3); \
	MADD((4*stride+off)(base), Y13, Y4); \
	MADD((5*stride+off)(base), Y14, Y5); \
	MADD((6*stride+off)(base), Y15, Y6); \
	MADD((7*stride+off)(base), Y9, Y7)

// STEPI is STEP over the float64s at i*stride bytes past
// base+8·idx.
#define STEPI(base, idx, stride) \
	MADD((0*stride)(base)(idx*8), Y9, Y0);  \
	MADD((1*stride)(base)(idx*8), Y10, Y1); \
	MADD((2*stride)(base)(idx*8), Y11, Y2); \
	MADD((3*stride)(base)(idx*8), Y12, Y3); \
	MADD((4*stride)(base)(idx*8), Y13, Y4); \
	MADD((5*stride)(base)(idx*8), Y14, Y5); \
	MADD((6*stride)(base)(idx*8), Y15, Y6); \
	MADD((7*stride)(base)(idx*8), Y9, Y7)

// PASS accumulates, for n = 0..7, one half (off 0 or 32) of row n of
// the 8×8 matrix at rows times element [i][n] of the one at scalars
// into accumulator i.
#define PASS(rows, off, scalars) \
	VMOVUPD (0*64+off)(rows), Y8; STEP(scalars, 0, 64);  \
	VMOVUPD (1*64+off)(rows), Y8; STEP(scalars, 8, 64);  \
	VMOVUPD (2*64+off)(rows), Y8; STEP(scalars, 16, 64); \
	VMOVUPD (3*64+off)(rows), Y8; STEP(scalars, 24, 64); \
	VMOVUPD (4*64+off)(rows), Y8; STEP(scalars, 32, 64); \
	VMOVUPD (5*64+off)(rows), Y8; STEP(scalars, 40, 64); \
	VMOVUPD (6*64+off)(rows), Y8; STEP(scalars, 48, 64); \
	VMOVUPD (7*64+off)(rows), Y8; STEP(scalars, 56, 64)

// func fdctAVX2(b *block)
//
// The forward transform as in fdctAVX512; the row pass writes U to the
// frame, since the high half of its pass still reads b.
TEXT ·fdctAVX2(SB), NOSPLIT, $512-8
	MOVQ b+0(FP), AX
	LEAQ ·dctCosT(SB), BX
	LEAQ ·dctCos(SB), CX
	LEAQ u-512(SP), DX
	ZERO8
	PASS(BX, 0, AX)
	STORE8(DX, 0)
	ZERO8
	PASS(BX, 32, AX)
	STORE8(DX, 32)
	ZERO8
	PASS(DX, 0, CX)
	STORE8(AX, 0)
	ZERO8
	PASS(DX, 32, CX)
	STORE8(AX, 32)
	VZEROUPPER
	RET

// COLS runs the column pass of idctAVX2 on one half (off 0 or 32,
// nibble shift sh 0 or 4) of each row that R12 names; lbl and done
// label its loop and its end. A row half is loaded and ANDed with the laneMask entry of its
// four bits of nz, which zeroes the positions nz does not name.
#define COLS(off, sh, lbl, done) \
	ZERO8;                              \
	MOVQ    R12, R8;                    \
	TESTQ   R8, R8;                     \
	JZ      done;                 \
lbl:                                    \
	BSFQ    R8, R10;                    \
	MOVQ    R10, CX;                    \
	MOVQ    DX, R11;                    \
	SHRQ    CX, R11;                    \
	SHRQ    $sh, R11;                   \
	ANDQ    $15, R11;                   \
	SHLQ    $5, R11;                    \
	VMOVUPD off(AX)(R10*8), Y8;         \
	VANDPD  (R13)(R11*1), Y8, Y8;       \
	STEPI(BX, R10, 8);                  \
	LEAQ    -1(R8), R11;                \
	ANDQ    R11, R8;                    \
	JNZ     lbl;                        \
done:                             \
	STORE8(SI, off)

// ROWS runs the row pass of idctAVX2 on one half (off 0 or 32) of the
// output, over the columns R12 names; lbl and done label its loop and
// its end.
#define ROWS(off, lbl, done) \
	ZERO8;                              \
	MOVQ    R12, R8;                    \
	TESTQ   R8, R8;                     \
	JZ      done;                 \
lbl:                                    \
	BSFQ    R8, R10;                    \
	MOVQ    R10, R11;                   \
	SHLQ    $6, R11;                    \
	VMOVUPD off(BX)(R11*1), Y8;         \
	STEPI(SI, R10, 64);                 \
	LEAQ    -1(R8), R11;                \
	ANDQ    R11, R8;                    \
	JNZ     lbl;                        \
done:                             \
	STORE8(AX, off)

// func idctAVX2(b *block, nz uint64)
//
// The inverse transform as in idctAVX512, the column pass writing T to
// the frame. DX holds nz, R12 the rows (then columns) to visit, R8 those
// left, R10 the current one's bit index.
TEXT ·idctAVX2(SB), NOSPLIT, $512-16
	MOVQ b+0(FP), AX
	MOVQ nz+8(FP), DX
	LEAQ ·dctCos(SB), BX
	LEAQ ·laneMask(SB), R13
	LEAQ t-512(SP), SI

	// Bit 8k of R12: row k names a coefficient.
	MOVQ    DX, R12
	ROWBITS(R12, R9)
	COLS(0, 0, collo, collodone)
	COLS(32, 4, colhi, colhidone)

	// Bit k of R12: some row names a coefficient in column k.
	MOVQ    DX, R12
	COLBITS(R12, R9)
	ROWS(0, rowlo, rowlodone)
	ROWS(32, rowhi, rowhidone)
	VZEROUPPER
	RET

// LIVE sets bits 8r+4h..8r+4h+3 of DX where |b| ≥ half over the four
// positions off = 64r+32h bytes into both blocks (ordered: a NaN is
// never live).
#define LIVE(off, bit) \
	VANDPD    off(AX), Y15, Y0;         \
	VCMPPD    $0x1d, off(BX), Y0, Y0;   \
	VMOVMSKPD Y0, R9;                   \
	SHLQ      $bit, R9;                 \
	ORQ       R9, DX

// func liveAVX2(b, half *block) uint64
TEXT ·liveAVX2(SB), NOSPLIT, $0-24
	MOVQ         b+0(FP), AX
	MOVQ         half+8(FP), BX
	MOVQ         $0x7fffffffffffffff, R8
	VMOVQ        R8, X15
	VPBROADCASTQ X15, Y15
	XORQ         DX, DX
	LIVE(0, 0)
	LIVE(32, 4)
	LIVE(64, 8)
	LIVE(96, 12)
	LIVE(128, 16)
	LIVE(160, 20)
	LIVE(192, 24)
	LIVE(224, 28)
	LIVE(256, 32)
	LIVE(288, 36)
	LIVE(320, 40)
	LIVE(352, 44)
	LIVE(384, 48)
	LIVE(416, 52)
	LIVE(448, 56)
	LIVE(480, 60)
	MOVQ         DX, ret+16(FP)
	VZEROUPPER
	RET

// func residualAVX2(b *block, src, pred *float32, stride, pstride, rows int)
//
// As residualAVX512, a row in two halves.
TEXT ·residualAVX2(SB), NOSPLIT, $0-48
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
	VCVTPS2PD (SI), Y0
	VCVTPS2PD 16(SI), Y1
	VCVTPS2PD (DI), Y2
	VCVTPS2PD 16(DI), Y3
	VSUBPD    Y2, Y0, Y0
	VSUBPD    Y3, Y1, Y1
	VMOVUPD   Y0, (AX)
	VMOVUPD   Y1, 32(AX)
	ADDQ      $64, AX
	ADDQ      R8, SI
	ADDQ      R9, DI
	DECQ      CX
	JNZ       resrow
	TESTQ     DX, DX
	JZ        resdone

respad:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    $64, AX
	DECQ    DX
	JNZ     respad

resdone:
	VZEROUPPER
	RET

// func reconAVX2(b *block, pred, recon *float32, stride, pstride, rows int)
//
// As reconAVX512, a row in two halves.
TEXT ·reconAVX2(SB), NOSPLIT, $0-48
	MOVQ         b+0(FP), AX
	MOVQ         pred+8(FP), DI
	MOVQ         recon+16(FP), SI
	MOVQ         stride+24(FP), R8
	MOVQ         pstride+32(FP), R9
	MOVQ         rows+40(FP), CX
	SHLQ         $2, R8
	SHLQ         $2, R9
	VXORPD       Y14, Y14, Y14
	MOVQ         $0x406fe00000000000, DX // 255.0
	VMOVQ        DX, X15
	VPBROADCASTQ X15, Y15

recrow:
	VMOVUPD    (AX), Y0
	VMOVUPD    32(AX), Y1
	VCVTPS2PD  (DI), Y2
	VCVTPS2PD  16(DI), Y3
	VADDPD     Y2, Y0, Y0
	VADDPD     Y3, Y1, Y1
	VMAXPD     Y0, Y14, Y0
	VMAXPD     Y1, Y14, Y1
	VMINPD     Y0, Y15, Y0
	VMINPD     Y1, Y15, Y1
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y1, X1
	VMOVUPS    X0, (SI)
	VMOVUPS    X1, 16(SI)
	ADDQ       $64, AX
	ADDQ       R8, SI
	ADDQ       R9, DI
	DECQ       CX
	JNZ        recrow
	VZEROUPPER
	RET

// LEVELS is levelsAVX2 on one half (off 0 or 32, nibble shift sh 0 or
// 4) of the row at R10: the new values are blended into the old under
// the laneMask entry of the half's four bits of nz, and the exponent
// fields added to Y12 under it.
#define LEVELS(off, sh) \
	MOVQ      R10, CX;                  \
	MOVQ      DX, R11;                  \
	SHRQ      CX, R11;                  \
	SHRQ      $sh, R11;                 \
	ANDQ      $15, R11;                 \
	SHLQ      $5, R11;                  \
	VMOVUPD   (R13)(R11*1), Y11;        \
	VMOVUPD   off(AX)(R10*8), Y0;       \
	VDIVPD    off(BX)(R10*8), Y0, Y1;   \
	VANDPD    Y1, Y15, Y2;              \
	VADDPD    Y13, Y2, Y2;              \
	VROUNDPD  $3, Y2, Y2;               \
	VPSRLQ    $52, Y2, Y3;              \
	VPAND     Y3, Y11, Y3;              \
	VPADDQ    Y3, Y12, Y12;             \
	VANDPD    Y1, Y14, Y3;              \
	VORPD     Y3, Y2, Y2;               \
	VMULPD    off(BX)(R10*8), Y2, Y2;   \
	VBLENDVPD Y11, Y2, Y0, Y2;          \
	VMOVUPD   Y2, off(AX)(R10*8)

// func levelsAVX2(b, step *block, nz uint64) int64
//
// As levelsAVX512, a row in two halves.
TEXT ·levelsAVX2(SB), NOSPLIT, $0-32
	MOVQ         b+0(FP), AX
	MOVQ         step+8(FP), BX
	MOVQ         nz+16(FP), DX
	LEAQ         ·laneMask(SB), R13
	MOVQ         $0x7fffffffffffffff, R8
	VMOVQ        R8, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $0x8000000000000000, R8
	VMOVQ        R8, X14
	VPBROADCASTQ X14, Y14
	MOVQ         $0x3fe0000000000000, R8 // 0.5
	VMOVQ        R8, X13
	VPBROADCASTQ X13, Y13
	VPXOR        Y12, Y12, Y12

	// Bit 8r of R9: row r names a coefficient.
	MOVQ    DX, R9
	ROWBITS(R9, R8)
	JZ   levsum

levrow:
	BSFQ R9, R10                         // R10 = 8r
	LEVELS(0, 0)
	LEVELS(32, 4)
	LEAQ -1(R9), R11
	ANDQ R11, R9
	JNZ  levrow

levsum:
	VEXTRACTI128 $1, Y12, X0
	VPADDQ       X0, X12, X0
	VPUNPCKHQDQ  X0, X0, X1
	VPADDQ       X1, X0, X0
	VMOVQ        X0, R8
	MOVQ         R8, ret+24(FP)
	VZEROUPPER
	RET

// The colour conversions hold eight pixels a YMM register, one channel
// of float32 each, as the AVX-512 tier holds sixteen (see
// codec_avx512_amd64.s). Eight interleaved RGB pixels lie in three
// vectors, lane l of vector v holding channel (2v+l) mod 3 (8 ≡ 2), so
// the blend immediates 0x49, 0x92 and 0x24 name the lanes where l mod 3
// is 0, 1 and 2, and VPERMPS by rgbPerm8 orders them.

// BCAST broadcasts the colourK constant at off into Y7.
#define BCAST(off) VBROADCASTSS ·colourK+off(SB), Y7

// YCC converts the eight pixels at rgb: their luma, times 255, to lum,
// and their chroma contributions to cbdst and crdst. Y12..Y14 hold
// rgbPerm8's three picks.
#define YCC(rgb, lum, cbdst, crdst) \
	VMOVUPS   0(rgb), Y0;                \
	VMOVUPS   32(rgb), Y1;               \
	VMOVUPS   64(rgb), Y2;               \
	VBLENDPS  $0x92, Y1, Y0, Y3;         \
	VBLENDPS  $0x24, Y2, Y3, Y3;         \
	VPERMPS   Y3, Y12, Y3;               \
	VBLENDPS  $0x24, Y1, Y0, Y4;         \
	VBLENDPS  $0x49, Y2, Y4, Y4;         \
	VPERMPS   Y4, Y13, Y4;               \
	VBLENDPS  $0x49, Y1, Y0, Y5;         \
	VBLENDPS  $0x92, Y2, Y5, Y5;         \
	VPERMPS   Y5, Y14, Y5;               \
	BCAST(0);                            \
	VMULPS    Y7, Y3, Y6;                \
	BCAST(4);                            \
	VMULPS    Y7, Y4, Y1;                \
	VADDPS    Y1, Y6, Y6;                \
	BCAST(8);                            \
	VMULPS    Y7, Y5, Y1;                \
	VADDPS    Y1, Y6, Y6;                \
	BCAST(12);                           \
	VMULPS    Y7, Y6, Y1;                \
	VMOVUPS   Y1, lum;                   \
	VSUBPS    Y6, Y5, Y5;                \
	BCAST(16);                           \
	VMULPS    Y7, Y5, Y5;                \
	BCAST(24);                           \
	VADDPS    Y7, Y5, Y5;                \
	BCAST(12);                           \
	VMULPS    Y7, Y5, cbdst;             \
	VSUBPS    Y6, Y3, Y3;                \
	BCAST(20);                           \
	VMULPS    Y7, Y3, Y3;                \
	BCAST(24);                           \
	VADDPS    Y7, Y3, Y3;                \
	BCAST(12);                           \
	VMULPS    Y7, Y3, crdst

// CELLS sums the chroma contributions of four 2×2 cells from +0 in
// raster order, top (in top) then bottom (in bot), even pixel before
// odd, divides by four and stores the four means at dst. Y0 and Y1
// hold rgbPerm8's even and odd splits, Y15 zero.
#define CELLS(top, bot, dst) \
	VPERMPS   top, Y0, Y2;               \
	VADDPS    Y2, Y15, Y2;               \
	VPERMPS   top, Y1, Y3;               \
	VADDPS    Y3, Y2, Y2;                \
	VPERMPS   bot, Y0, Y3;               \
	VADDPS    Y3, Y2, Y2;                \
	VPERMPS   bot, Y1, Y3;               \
	VADDPS    Y3, Y2, Y2;                \
	BCAST(28);                           \
	VDIVPS    Y7, Y2, Y2;                \
	VMOVUPS   X2, dst

// func ycbcrAVX2(rgb, lum, cb, cr *float32, w, n int)
//
// As ycbcrAVX512, n a positive multiple of 4.
TEXT ·ycbcrAVX2(SB), NOSPLIT, $0-48
	MOVQ    rgb+0(FP), SI
	MOVQ    lum+8(FP), DI
	MOVQ    cb+16(FP), R8
	MOVQ    cr+24(FP), R9
	MOVQ    w+32(FP), DX
	MOVQ    n+40(FP), CX
	LEAQ    (DX)(DX*2), R10
	LEAQ    (SI)(R10*4), R10             // the bottom row's RGB
	LEAQ    (DI)(DX*4), DX               // and its luma
	VMOVUPS ·rgbPerm8+0(SB), Y12
	VMOVUPS ·rgbPerm8+32(SB), Y13
	VMOVUPS ·rgbPerm8+64(SB), Y14
	VXORPS  Y15, Y15, Y15

yccloop:
	YCC(SI, (DI), Y8, Y9)
	YCC(R10, (DX), Y10, Y11)
	VMOVUPS ·rgbPerm8+192(SB), Y0
	VMOVUPS ·rgbPerm8+224(SB), Y1
	CELLS(Y8, Y10, (R8))
	CELLS(Y9, Y11, (R9))
	ADDQ    $96, SI
	ADDQ    $96, R10
	ADDQ    $32, DI
	ADDQ    $32, DX
	ADDQ    $16, R8
	ADDQ    $16, R9
	SUBQ    $4, CX
	JNZ     yccloop
	VZEROUPPER
	RET

// func rgbAVX2(rgb, lum, cb, cr *float32, n int)
//
// As rgbAVX512, n a positive multiple of 8.
TEXT ·rgbAVX2(SB), NOSPLIT, $0-40
	MOVQ    rgb+0(FP), DI
	MOVQ    lum+8(FP), SI
	MOVQ    cb+16(FP), R8
	MOVQ    cr+24(FP), R9
	MOVQ    n+32(FP), CX
	VMOVUPS ·rgbPerm8+96(SB), Y9
	VMOVUPS ·rgbPerm8+128(SB), Y10
	VMOVUPS ·rgbPerm8+160(SB), Y11
	VMOVUPS ·rgbPerm8+256(SB), Y8
	VXORPS  Y12, Y12, Y12
	VBROADCASTSS ·colourK+32(SB), Y13

rgbloop:
	BCAST(12)
	VMOVUPS   (SI), Y0
	VDIVPS    Y7, Y0, Y0
	VMOVUPS   (R8), X1
	VPERMPS   Y1, Y8, Y1
	VDIVPS    Y7, Y1, Y1
	VMOVUPS   (R9), X2
	VPERMPS   Y2, Y8, Y2
	VDIVPS    Y7, Y2, Y2
	BCAST(24)
	VSUBPS    Y7, Y1, Y1
	VSUBPS    Y7, Y2, Y2
	BCAST(20)
	VDIVPS    Y7, Y2, Y3
	VADDPS    Y3, Y0, Y3
	BCAST(16)
	VDIVPS    Y7, Y1, Y5
	VADDPS    Y5, Y0, Y5
	BCAST(0)
	VMULPS    Y7, Y3, Y6
	VSUBPS    Y6, Y0, Y4
	BCAST(8)
	VMULPS    Y7, Y5, Y6
	VSUBPS    Y6, Y4, Y4
	BCAST(4)
	VDIVPS    Y7, Y4, Y4
	VMAXPS    Y3, Y12, Y3
	VMINPS    Y3, Y13, Y3
	VMAXPS    Y4, Y12, Y4
	VMINPS    Y4, Y13, Y4
	VMAXPS    Y5, Y12, Y5
	VMINPS    Y5, Y13, Y5
	VPERMPS   Y3, Y9, Y3
	VPERMPS   Y4, Y10, Y4
	VPERMPS   Y5, Y11, Y5
	VBLENDPS  $0x92, Y4, Y3, Y6
	VBLENDPS  $0x24, Y5, Y6, Y6
	VMOVUPS   Y6, 0(DI)
	VBLENDPS  $0x24, Y4, Y3, Y6
	VBLENDPS  $0x49, Y5, Y6, Y6
	VMOVUPS   Y6, 32(DI)
	VBLENDPS  $0x49, Y4, Y3, Y6
	VBLENDPS  $0x92, Y5, Y6, Y6
	VMOVUPS   Y6, 64(DI)
	ADDQ      $96, DI
	ADDQ      $32, SI
	ADDQ      $16, R8
	ADDQ      $16, R9
	SUBQ      $8, CX
	JNZ       rgbloop
	VZEROUPPER
	RET
