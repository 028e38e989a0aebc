package obs

import "math"

// mathLogs replaces each x[i] by math.Log(x[i]).
func mathLogs(x []float64) {
	for i, v := range x {
		x[i] = math.Log(v)
	}
}
