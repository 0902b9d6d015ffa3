package xdr

import (
	"os"
	"regexp"
	"runtime"
	"testing"
)

// TestSwabKernelSelected: where Linux says the CPU has AVX2, Swab must
// be running the vector kernel. A detection routine that wrongly
// answers no passes every differential test — it just quietly turns the
// benchmark back into the Go loop.
func TestSwabKernelSelected(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc/cpuinfo")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	if !regexp.MustCompile(`\bavx2\b`).Match(info) {
		t.Skip("no avx2 in /proc/cpuinfo")
	}
	if !haveAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the CPUID probe did not select the vector kernel")
	}
	buf := make([]byte, 2*4096)
	if n := swabVector(buf[:4096], buf[4096:], 8); n != 4096 {
		t.Fatalf("swabVector converted %d of 4096 bytes", n)
	}
}
