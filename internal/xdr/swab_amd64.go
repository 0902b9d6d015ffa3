package xdr

import "ninf/internal/cpufeat"

// swabVectorMin is the shortest span handed to the vector kernel. The
// kernel costs about 8 ns however short the span (the call, the mask
// load, VZEROUPPER), which is what the Go loop takes for 64 bytes;
// below that the loop wins.
const swabVectorMin = 64

// swabVector converts the leading 32-byte-multiple of a long enough
// span with the AVX2 kernel and reports its length; 0 when the span is
// short or the CPU has no AVX2, and swabGeneric does it all.
func swabVector(dst, src []byte, size int) int {
	n := len(src) &^ 31
	if !cpufeat.AVX2 || n < swabVectorMin {
		return 0
	}
	swabAVX2(dst[:n], src[:n], size)
	return n
}

// swabAVX2 is Swab for len(src) a positive multiple of 32 and
// len(dst) ≥ len(src): 32 bytes per VPSHUFB, four to an iteration.
//
//go:noescape
func swabAVX2(dst, src []byte, size int)
