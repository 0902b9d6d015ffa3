package xdr

import (
	"testing"

	"ninf/internal/cpufeat/cpufeattest"
)

// TestSwabKernelSelected: where Linux says the CPU has AVX2, Swab must
// be running the vector kernel.
func TestSwabKernelSelected(t *testing.T) {
	cpufeattest.CheckAVX2(t, "xdr.Swab", func() bool {
		buf := make([]byte, 2*4096)
		return swabVector(buf[:4096], buf[4096:], 8) == 4096
	})
}
