package linpack

import (
	"math/rand"
	"runtime"
	"testing"
)

// forceWorkers pins the kernel worker count and parallel threshold for
// the duration of a test, restoring the defaults afterwards.
func forceWorkers(t testing.TB, workers, threshold int) {
	t.Helper()
	kernelWorkers, parallelThreshold = workers, threshold
	t.Cleanup(func() {
		kernelWorkers, parallelThreshold = 0, defaultParallelThreshold
	})
}

func TestDmmulParallelBitIdentical(t *testing.T) {
	// The parallel row split must reproduce the serial product
	// bit-for-bit: each worker runs the same inner loops over its rows.
	// The serial reference runs the portable loop, so a wrong vector
	// kernel cannot agree with itself here.
	n := 65 // odd size exercises uneven chunking
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	Matgen(a, n)
	// Not Matgen: its entries have 16 significant bits, so every
	// product is exact and a fused kernel would pass.
	rng := rand.New(rand.NewSource(65))
	for i := range b {
		b[i] = rng.NormFloat64()
	}

	serial := make([]float64, n*n)
	forceWorkers(t, 1, 1)
	if err := onPortable(func() error { return Dmmul(n, a, b, serial) }); err != nil {
		t.Fatal(err)
	}

	par := make([]float64, n*n)
	for _, workers := range []int{2, 3, 4, 7} {
		kernelWorkers = workers
		if err := Dmmul(n, a, b, par); err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(par, serial); i >= 0 {
			t.Fatalf("workers=%d: C[%d] = %v, serial %v", workers, i, par[i], serial[i])
		}
	}
}

func TestDgefaBlockedParallelBitIdentical(t *testing.T) {
	// The parallel trailing-matrix update must leave factors and
	// pivots bit-identical to the serial blocked path (which in turn
	// matches Dgefa — see TestBlockedMatchesUnblocked).
	n := 129
	src := make([]float64, n*n)
	Matgen(src, n)

	serialA := append([]float64(nil), src...)
	serialP := make([]int64, n)
	forceWorkers(t, 1, 1)
	if err := onPortable(func() error { return DgefaBlocked(serialA, n, serialP, 32) }); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 4, 5} {
		kernelWorkers = workers
		parA := append([]float64(nil), src...)
		parP := make([]int64, n)
		if err := DgefaBlocked(parA, n, parP, 32); err != nil {
			t.Fatal(err)
		}
		if i := firstBitDiff(parA, serialA); i >= 0 {
			t.Fatalf("workers=%d: a[%d] = %v, serial %v", workers, i, parA[i], serialA[i])
		}
		for i := range parP {
			if parP[i] != serialP[i] {
				t.Fatalf("workers=%d: ipvt[%d] = %d, serial %d", workers, i, parP[i], serialP[i])
			}
		}
	}
}

func TestParallelSolveResidual(t *testing.T) {
	// End-to-end: a parallel blocked factor + solve still passes the
	// LINPACK residual criterion.
	forceWorkers(t, 4, 1)
	n := 200
	a := make([]float64, n*n)
	b := Matgen(a, n)
	ac := append([]float64(nil), a...)
	ipvt := make([]int64, n)
	if err := DgefaBlocked(ac, n, ipvt, 0); err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), b...)
	if err := Dgesl(ac, n, ipvt, x); err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, n, x, b); r > 10 {
		t.Errorf("residual %g, want < 10", r)
	}
}

func TestSerialFallbackBelowThreshold(t *testing.T) {
	// Below the threshold workersFor must report a single worker, and
	// the kernels must still be correct there.
	if w := workersFor(defaultParallelThreshold - 1); w != 1 {
		t.Errorf("workersFor(threshold-1) = %d, want 1", w)
	}
	forceWorkers(t, 8, 1000)
	if w := workersFor(999); w != 1 {
		t.Errorf("below custom threshold: workers = %d, want 1", w)
	}
	if w := workersFor(1000); w != 8 {
		t.Errorf("at custom threshold: workers = %d, want 8", w)
	}
}

func TestParallelRowsCoversRange(t *testing.T) {
	marks := make([]int32, 100)
	parallelRows(0, len(marks), 7, func(start, end int) {
		for i := start; i < end; i++ {
			marks[i]++
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("row %d visited %d times", i, m)
		}
	}
	// Degenerate ranges must not panic or spin.
	parallelRows(5, 5, 4, func(int, int) { t.Fatal("fn called on empty range") })
}

func benchmarkDmmul(b *testing.B, n, workers int) {
	threshold := 1
	if workers == 1 {
		threshold = n + 1 // force the serial path
	}
	forceWorkers(b, workers, threshold)
	a := make([]float64, n*n)
	Matgen(a, n)
	bb := append([]float64(nil), a...)
	c := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Dmmul(n, a, bb, c); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflops")
}

// thresholdSizes straddle defaultParallelThreshold: serial against
// parallel at these orders is where its value comes from.
var thresholdSizes = []int{64, 96, 128, 160, 192, 256, 384, 512}

func BenchmarkDmmulSerial(b *testing.B) {
	for _, n := range thresholdSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchmarkDmmul(b, n, 1) })
	}
}

func BenchmarkDmmulParallel(b *testing.B) {
	for _, n := range thresholdSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchmarkDmmul(b, n, runtime.GOMAXPROCS(0)) })
	}
}

func benchmarkDgefaBlockedWorkers(b *testing.B, n, workers int) {
	threshold := 1
	if workers == 1 {
		threshold = n + 1
	}
	forceWorkers(b, workers, threshold)
	// Not Matgen: at n = 256, 384 and 512 its rows repeat.
	rng := rand.New(rand.NewSource(int64(n)))
	src := make([]float64, n*n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	ipvt := make([]int64, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a, src)
		if err := DgefaBlocked(a, n, ipvt, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(Flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflops")
}

func BenchmarkDgefaBlockedSerial(b *testing.B) {
	for _, n := range thresholdSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchmarkDgefaBlockedWorkers(b, n, 1) })
	}
}

func BenchmarkDgefaBlockedParallel(b *testing.B) {
	for _, n := range thresholdSizes {
		b.Run(sizeName(n), func(b *testing.B) { benchmarkDgefaBlockedWorkers(b, n, runtime.GOMAXPROCS(0)) })
	}
}
