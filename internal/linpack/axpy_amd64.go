package linpack

import "ninf/internal/cpufeat"

// axpyVectorMin is the shortest row handed to the vector kernel. The
// kernel costs a few ns however short the row (the call, the
// broadcast, VZEROUPPER): through axpy it took 8–12 ns for 4–8
// elements, where the Go loop takes 5–12, and ≈ 12 ns for 16, where the
// loop takes ≈ 18 (BenchmarkAxpy, 2 vCPU).
const axpyVectorMin = 16

// axpyVector runs the AVX2 kernel over the leading multiple of 4 of a
// long enough row and reports its length; 0 when the row is short or
// the CPU has no AVX2, and axpyGeneric does it all.
func axpyVector(y, x []float64, m float64) int {
	n := len(y) &^ 3
	if !cpufeat.AVX2 || n < axpyVectorMin {
		return 0
	}
	axpyAVX2(y[:n], x[:n], m)
	return n
}

// axpyAVX2 is axpy for len(y) a positive multiple of 4 and
// len(x) ≥ len(y): VMULPD then VSUBPD, 4 doubles to a register and 16
// to an iteration. No FMA — the product is rounded before the
// subtraction, as axpyGeneric rounds it.
//
//go:noescape
func axpyAVX2(y, x []float64, m float64)
