package linpack

import (
	"runtime"
	"sync"
)

// Kernel parallelism. Dmmul and DgefaBlocked split their row-wise
// work across GOMAXPROCS goroutines — the software analogue of the
// paper's data-parallel J90 runs, where one Ninf_call occupies all
// PEs. Each worker executes the exact serial inner loops over its row
// range, so parallel results are bit-identical to the serial ones.
// Below parallelThreshold (or with a single worker) the kernels run
// the serial path unchanged.

// defaultParallelThreshold is the matrix order below which the kernels
// stay serial. Measured with the vector axpy on 2 vCPU (parallel over
// serial Mflops, medians of 5–26 runs of
// Benchmark{DgefaBlocked,Dmmul}{Serial,Parallel}): DgefaBlocked −10% at 128, −6% at
// 160, +2% at 192, +3% at 256, +8% at 384; Dmmul −2% at 64, +19% at 96
// and 128, +28% at 192. DgefaBlocked forks once per 48-column block, on
// a trailing matrix smaller than n, so it crosses over later; the
// threshold is its crossover, and Dmmul between 96 and 191 gives up
// what parallelism would have bought it.
const defaultParallelThreshold = 192

// parallelThreshold and kernelWorkers are set only by tests, before
// the kernels they pin run.
var (
	parallelThreshold = defaultParallelThreshold
	kernelWorkers     int // 0 means GOMAXPROCS
)

// workersFor resolves the worker count for a kernel invocation on a
// matrix of order n.
func workersFor(n int) int {
	if n < parallelThreshold {
		return 1
	}
	w := kernelWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelRows splits the row range [lo, hi) into contiguous chunks
// and runs fn on each chunk concurrently across the given number of
// workers. fn must only write rows inside its chunk. With one worker
// (or a single row) it degenerates to a direct call.
func parallelRows(lo, hi, workers int, fn func(start, end int)) {
	n := hi - lo
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(lo, hi)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for start := lo; start < hi; start += chunk {
		end := start + chunk
		if end > hi {
			end = hi
		}
		wg.Add(1)
		go func(s, e int) {
			defer wg.Done()
			fn(s, e)
		}(start, end)
	}
	wg.Wait()
}
