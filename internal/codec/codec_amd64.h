// Bit-map helpers of the codec's AVX2 and AVX-512 kernels, included by
// codec_avx2_amd64.s and codec_avx512_amd64.s. A coefficient map holds
// a block row a byte, bit 8k+x for row k, column x.

// ROWBITS leaves in r bit 8k for each row k whose byte of r is nonzero,
// through t; it sets the flags by its last AND.
#define ROWBITS(r, t) \
	MOVQ r, t;                    \
	SHRQ $4, t;                   \
	ORQ  t, r;                    \
	MOVQ r, t;                    \
	SHRQ $2, t;                   \
	ORQ  t, r;                    \
	MOVQ r, t;                    \
	SHRQ $1, t;                   \
	ORQ  t, r;                    \
	MOVQ $0x0101010101010101, t;  \
	ANDQ t, r

// COLBITS leaves in r bit x for each column x that some byte of r
// names, through t; it sets the flags by its last AND.
#define COLBITS(r, t) \
	MOVQ r, t;                    \
	SHRQ $32, t;                  \
	ORQ  t, r;                    \
	MOVQ r, t;                    \
	SHRQ $16, t;                  \
	ORQ  t, r;                    \
	MOVQ r, t;                    \
	SHRQ $8, t;                   \
	ORQ  t, r;                    \
	ANDQ $0xff, r
