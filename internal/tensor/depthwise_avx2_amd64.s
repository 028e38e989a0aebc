//go:build amd64 && !purego

#include "go_asm.h"
#include "textflag.h"

// func depthwiseAVX2(dst *float32, c0, nc, ic, xstride int, x, w *float32, spans *Span, nspans int, ep *kernEpilogue)
//
// The depthwise span eight lanes wide: depthwise_amd64.h on YMM
// registers. The AVX-512 tier runs it too, for a last block of eight
// channels.
#define VA0 Y0
#define VA1 Y1
#define VA2 Y2
#define VA3 Y3
#define VA4 Y4
#define VA5 Y5
#define VA6 Y6
#define VA7 Y7
#define VW0 Y8
#define VW1 Y9
#define VT0 Y10
#define VT1 Y11
#define VT2 Y12
#define VT3 Y13
#define VZERO(r) VXORPS r, r, r
#define LB 32
#define LB2 64
#define LB8 256
#define OFF1 32
#define OFF2 64
#define OFF3 96
#define OFF4 128
#define OFF5 160
#define OFF6 192
#define OFF7 224

TEXT ·depthwiseAVX2(SB), NOSPLIT, $16-80
#include "depthwise_amd64.h"
