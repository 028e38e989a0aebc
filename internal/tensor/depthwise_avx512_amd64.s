//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// func depthwiseAVX512(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)
//
// The depthwise span sixteen lanes wide: depthwise_amd64.h on ZMM
// registers. It stays below Z16, so VZEROUPPER clears the upper state
// of every register it wrote, and runs only AVX512F instructions (it
// zeroes with VPXORD; VXORPS on ZMM would need AVX512DQ).
#define VA0 Z0
#define VA1 Z1
#define VA2 Z2
#define VA3 Z3
#define VA4 Z4
#define VA5 Z5
#define VA6 Z6
#define VA7 Z7
#define VW0 Z8
#define VW1 Z9
#define VT0 Z10
#define VT1 Z11
#define VT2 Z12
#define VT3 Z13
#define VZERO(r) VPXORD r, r, r
#define LB 64
#define LB2 128
#define LB8 512
#define OFF1 64
#define OFF2 128
#define OFF3 192
#define OFF4 256
#define OFF5 320
#define OFF6 384
#define OFF7 448

TEXT ·depthwiseAVX512(SB), NOSPLIT, $16-80
#include "depthwise_amd64.h"
