//go:build !amd64 || purego

package codec

import "testing"

// codecTiers lists the tiers this build can run: the generic kernels
// alone.
func codecTiers(tb testing.TB) []codecTier {
	return []codecTier{{"generic", func() {}}}
}
