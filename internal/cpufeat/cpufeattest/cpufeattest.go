// Package cpufeattest holds the check every AVX2 kernel's tests share:
// where Linux lists avx2, the cpufeat probe must have found it and the
// kernel must be the one that runs. A probe that wrongly answers no
// passes every differential test — it just quietly turns the kernel
// back into the Go loop.
package cpufeattest

import (
	"os"
	"regexp"
	"runtime"
	"testing"

	"ninf/internal/cpufeat"
)

// CheckAVX2 fails t if /proc/cpuinfo lists avx2 but cpufeat.AVX2 is
// false, or runs — which hands the named kernel a span long enough for
// it — reports that the kernel did not run. It skips off Linux, where
// /proc/cpuinfo cannot be read, and on a CPU without AVX2.
func CheckAVX2(t *testing.T, kernel string, runs func() bool) {
	t.Helper()
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
	if !cpufeat.AVX2 {
		t.Fatalf("%s: /proc/cpuinfo lists avx2 but the CPUID probe did not find it", kernel)
	}
	if !runs() {
		t.Fatalf("%s: the CPU has AVX2 but the vector kernel did not run", kernel)
	}
}
