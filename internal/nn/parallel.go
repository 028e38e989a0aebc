package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers controls the maximum goroutine fan-out used inside the
// training pass's convolution and GEMM loops (compiled programs run
// serially). It defaults to GOMAXPROCS. Set it to 1 for fully
// deterministic single-threaded timing (bench/ does this so that its
// timings reflect algorithmic cost, not scheduler noise).
var Workers = runtime.GOMAXPROCS(0)

// parallelThreshold is the minimum number of loop iterations before
// parFor bothers spawning goroutines.
const parallelThreshold = 8

// ForEach runs fn(i) for i in [0,n) across up to workers goroutines,
// handing out iterations dynamically so unequal per-iteration costs
// balance (chunked splitting, as parFor does, would pin a slow
// iteration run to one goroutine). workers <= 1 runs inline.
// Iterations must be independent. This is the fan-out primitive the
// edge runtime uses to spread microclassifiers across cores.
func ForEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
}

// parFor runs fn(i) for i in [0,n), splitting the range across
// Workers goroutines when n is large enough. Iterations must be
// independent.
func parFor(n int, fn func(i int)) {
	w := Workers
	if w > n {
		w = n
	}
	if w <= 1 || n < parallelThreshold {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
}
