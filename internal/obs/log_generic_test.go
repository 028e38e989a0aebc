//go:build !amd64 || purego

package obs

import "testing"

// logTiers lists the logarithm tiers this build can run: math.Log
// alone.
func logTiers(tb testing.TB) []logTier {
	return []logTier{{"math.Log", func() {}}}
}
