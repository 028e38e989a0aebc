//go:build amd64 && !purego

#include "textflag.h"

// The eight-lane AVX-512 logarithm: math.Log's amd64 operation
// sequence (archLog in the standard library's math/log_amd64.s) run on
// a ZMM register of inputs. Every lane rounds each product before the
// sum it feeds (VMULPD, then VADDPD; never an FMA), so each result has
// the scalar routine's bits. Like archLog, the reduction halves the
// mantissa when it is at or below √2/2 (not only below it, as
// math/log.go's Go code does), and it reads the exponent field as is,
// so a subnormal input takes the same sequence it does there. The kernel stays below Z16, so VZEROUPPER
// clears the upper state of every register it wrote, and runs only
// AVX512F instructions (VPANDQ and VPORQ, not VANDPD and VORPD).

DATA logMant<>+0(SB)/8, $0x000fffffffffffff // the mantissa field
GLOBL logMant<>(SB), RODATA|NOPTR, $8
DATA logHalf<>+0(SB)/8, $0x3fe0000000000000 // 0.5, the exponent field of [½, 1)
GLOBL logHalf<>(SB), RODATA|NOPTR, $8
DATA logTwo52<>+0(SB)/8, $0x4330000000000000 // 2^52
GLOBL logTwo52<>(SB), RODATA|NOPTR, $8
DATA logBias<>+0(SB)/8, $0x43300000000003fe // 2^52 + 1022
GLOBL logBias<>(SB), RODATA|NOPTR, $8
DATA logOne<>+0(SB)/8, $0x3ff0000000000000 // 1.0
GLOBL logOne<>(SB), RODATA|NOPTR, $8
DATA logTwo<>+0(SB)/8, $0x4000000000000000 // 2.0
GLOBL logTwo<>(SB), RODATA|NOPTR, $8
DATA logHalfSqrt2<>+0(SB)/8, $0x3fe6a09e667f3bcd // √2/2
GLOBL logHalfSqrt2<>(SB), RODATA|NOPTR, $8
DATA logL1<>+0(SB)/8, $0x3fe5555555555593
GLOBL logL1<>(SB), RODATA|NOPTR, $8
DATA logL2<>+0(SB)/8, $0x3fd999999997fa04
GLOBL logL2<>(SB), RODATA|NOPTR, $8
DATA logL3<>+0(SB)/8, $0x3fd2492494229359
GLOBL logL3<>(SB), RODATA|NOPTR, $8
DATA logL4<>+0(SB)/8, $0x3fcc71c51d8e78af
GLOBL logL4<>(SB), RODATA|NOPTR, $8
DATA logL5<>+0(SB)/8, $0x3fc7466496cb03de
GLOBL logL5<>(SB), RODATA|NOPTR, $8
DATA logL6<>+0(SB)/8, $0x3fc39a09d078c69f
GLOBL logL6<>(SB), RODATA|NOPTR, $8
DATA logL7<>+0(SB)/8, $0x3fc2f112df3e5244
GLOBL logL7<>(SB), RODATA|NOPTR, $8
DATA logLn2Hi<>+0(SB)/8, $0x3fe62e42fee00000
GLOBL logLn2Hi<>(SB), RODATA|NOPTR, $8
DATA logLn2Lo<>+0(SB)/8, $0x3dea39ef35793c76
GLOBL logLn2Lo<>(SB), RODATA|NOPTR, $8
DATA logOneBits<>+0(SB)/8, $1
GLOBL logOneBits<>(SB), RODATA|NOPTR, $8
DATA logSpecial<>+0(SB)/8, $0x7fefffffffffffff // bits−1 at or above it: ±0, negative, +Inf, NaN
GLOBL logSpecial<>(SB), RODATA|NOPTR, $8

// func logsAVX512(x []float64) int
//
// logsAVX512 replaces x[i] by math.Log(x[i]) eight at a time, the last
// block masked to the values left, and returns how many it replaced:
// all of them, or the values before the first block that holds a zero,
// a negative, +Inf or a NaN, which it leaves for math.Log's own special
// cases. A subnormal takes the sequence like any other value, as it
// does in the scalar routine.
TEXT ·logsAVX512(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), BX
	XORQ DX, DX // values replaced

loop:
	MOVQ BX, CX
	SUBQ DX, CX // values left
	JLE  done
	MOVQ $0xff, R9
	CMPQ CX, $8
	JGE  block
	MOVQ $1, R9 // a partial block: the low CX lanes
	SHLQ CX, R9
	DECQ R9

block:
	KMOVW     R9, K1
	VMOVUPD.Z (SI)(DX*8), K1, Z0

	// Stop before a block holding a special value.
	VPSUBQ.BCST   logOneBits<>(SB), Z0, Z1
	VPCMPUQ.BCST  $5, logSpecial<>(SB), Z1, K1, K2
	KORTESTW      K2, K2
	JNE           done

	// f1, k := math.Frexp(x), from the bits: f1 in [½, 1), k the
	// exponent field less 1022, exact as (2^52 + field) − (2^52 + 1022).
	VPANDQ.BCST logMant<>(SB), Z0, Z2
	VPORQ.BCST  logHalf<>(SB), Z2, Z2   // f1
	VPSRLQ      $52, Z0, Z3
	VPORQ.BCST  logTwo52<>(SB), Z3, Z3
	VSUBPD.BCST logBias<>(SB), Z3, Z3   // k

	// if f1 <= √2/2 { k -= 1; f1 *= 2 }
	VCMPPD.BCST $2, logHalfSqrt2<>(SB), Z2, K1, K3
	VSUBPD.BCST logOne<>(SB), Z3, K3, Z3
	VADDPD      Z2, Z2, K3, Z2

	// f := f1 − 1; s := f / (2 + f); s2 := s·s; s4 := s2·s2
	VSUBPD.BCST logOne<>(SB), Z2, Z4    // f
	VADDPD.BCST logTwo<>(SB), Z4, Z5
	VDIVPD      Z5, Z4, Z5              // s
	VMULPD      Z5, Z5, Z6              // s2
	VMULPD      Z6, Z6, Z7              // s4

	// t1 := s2·(L1 + s4·(L3 + s4·(L5 + s4·L7)))
	VMULPD.BCST logL7<>(SB), Z7, Z8
	VADDPD.BCST logL5<>(SB), Z8, Z8
	VMULPD      Z7, Z8, Z8
	VADDPD.BCST logL3<>(SB), Z8, Z8
	VMULPD      Z7, Z8, Z8
	VADDPD.BCST logL1<>(SB), Z8, Z8
	VMULPD      Z6, Z8, Z8              // t1

	// t2 := s4·(L2 + s4·(L4 + s4·L6)); R := t1 + t2
	VMULPD.BCST logL6<>(SB), Z7, Z9
	VADDPD.BCST logL4<>(SB), Z9, Z9
	VMULPD      Z7, Z9, Z9
	VADDPD.BCST logL2<>(SB), Z9, Z9
	VMULPD      Z7, Z9, Z9              // t2
	VADDPD      Z9, Z8, Z8              // R

	// hfsq := ½·f·f
	VMULPD.BCST logHalf<>(SB), Z4, Z9
	VMULPD      Z4, Z9, Z9              // hfsq

	// k·Ln2Hi − ((hfsq − (s·(hfsq+R) + k·Ln2Lo)) − f)
	VADDPD      Z9, Z8, Z8              // hfsq + R
	VMULPD      Z8, Z5, Z8              // s·(hfsq+R)
	VMULPD.BCST logLn2Lo<>(SB), Z3, Z10 // k·Ln2Lo
	VADDPD      Z10, Z8, Z8
	VSUBPD      Z8, Z9, Z9              // hfsq − (…)
	VSUBPD      Z4, Z9, Z9              // … − f
	VMULPD.BCST logLn2Hi<>(SB), Z3, Z3  // k·Ln2Hi
	VSUBPD      Z9, Z3, Z3

	VMOVUPD Z3, K1, (SI)(DX*8)
	ADDQ    $8, DX
	JMP     loop

done:
	CMPQ    DX, BX
	CMOVQGT BX, DX // a partial last block counts its lanes only
	VZEROUPPER
	MOVQ    DX, ret+24(FP)
	RET
