//go:build !amd64 || purego

package obs

// logs replaces each x[i] by math.Log(x[i]): the portable build has no
// vector kernel.
func logs(x []float64) { mathLogs(x) }
