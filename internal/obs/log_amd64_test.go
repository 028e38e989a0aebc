//go:build amd64 && !purego

package obs

import "testing"

// logTiers lists the logarithm tiers this machine can run, math.Log
// first; use() makes logs run that tier until the test ends.
func logTiers(tb testing.TB) []logTier {
	detected := logAVX512
	tb.Cleanup(func() { logAVX512 = detected })
	tiers := []logTier{{"math.Log", func() { logAVX512 = false }}}
	if detected {
		tiers = append(tiers, logTier{"avx512", func() { logAVX512 = true }})
	}
	return tiers
}
