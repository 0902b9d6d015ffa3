// Package cpufeat reads, once at init, the CPU features the vector
// kernels select on: xdr.Swab's byte reversal and linpack's axpy. One
// probe for both, so the two can never disagree about the machine.
package cpufeat

// AVX2 reports that the CPU has AVX2 and the OS saves the YMM state, so
// an AVX2 kernel may run. Always false off amd64.
var AVX2 = hasAVX2()
