//go:build amd64 && !purego

package tensor

// noiseFast is NoisePixels' fast path on the tier this process runs:
// the sixteen-lane AVX-512 kernel (rand_avx512_amd64.s) on the avx512
// tier, the generic tier's Go loop on the others, the avx2 tier
// included.
func noiseFast(pix []float32, words []uint64, gain, std float32) int {
	if cpuTier == tierAVX512 {
		return noiseAVX512(pix, words, gain, std, gain != 1)
	}
	return noiseGo(pix, words, gain, std)
}

// noiseAVX512 is noiseGo's contract, sixteen values at a time; scale is
// gain != 1.
//
//go:noescape
func noiseAVX512(pix []float32, words []uint64, gain, std float32, scale bool) int
