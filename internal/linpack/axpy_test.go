package linpack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ninf/internal/cpufeat/cpufeattest"
)

// onPortable runs fn with every axpy on axpyGeneric: the reference side
// of a bit-identity test.
func onPortable(fn func() error) error {
	portableOnly = true
	defer func() { portableOnly = false }()
	return fn()
}

// sameBits reports whether a and b are the same float64 bits, any NaN
// counting as any other NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// firstBitDiff returns the first index where got and want differ by
// sameBits, or -1.
func firstBitDiff(got, want []float64) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// axpySpecials are the values a rounding or fusing difference shows
// on: signed zeros, subnormals, the largest finite values, infinities
// and NaN.
var axpySpecials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, -0x1p-1023, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 1 + 0x1p-52, 0x1p-27,
}

// TestAxpyKernelVsPortable holds axpy — the vector kernel over a long
// enough row, the Go tail behind it — to axpyGeneric bit for bit, over
// every length either side of the kernel's thresholds and each start
// offset of y and x, and checks nothing past len(y) is written.
func TestAxpyKernelVsPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	value := func() float64 {
		if rng.Intn(3) == 0 {
			return axpySpecials[rng.Intn(len(axpySpecials))]
		}
		return rng.NormFloat64() * math.Ldexp(1, rng.Intn(80)-40)
	}
	ms := append([]float64{0.3, -7.25e-3, 1e300, 3e-310}, axpySpecials...)
	const canary = -12345.5
	for n := 0; n <= 130; n++ {
		for offY := 0; offY < 4; offY++ {
			for offX := 0; offX < 4; offX++ {
				m := ms[(n+offY+offX)%len(ms)]
				x := make([]float64, offX+n)
				buf := make([]float64, offY+n+4)
				for i := range x {
					x[i] = value()
				}
				for i := range buf {
					buf[i] = value()
				}
				for i := offY + n; i < len(buf); i++ {
					buf[i] = canary
				}
				want := append([]float64(nil), buf...)
				axpyGeneric(want[offY:offY+n], x[offX:], m)
				axpy(buf[offY:offY+n], x[offX:], m)
				if i := firstBitDiff(buf, want); i >= 0 {
					t.Fatalf("n=%d offY=%d offX=%d m=%v: y[%d] = %v (%#x), portable %v (%#x)",
						n, offY, offX, m, i-offY, buf[i], math.Float64bits(buf[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestKernelsBitIdentical holds each kernel with the vector axpy on to
// the same kernel on the portable loop: factors, pivots and products
// bit for bit, serial and with two workers.
func TestKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 7, 16, 17, 100, 200, 257} {
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(16) == 0 {
				a[i] = 0 // zero multipliers take the skip
			}
		}
		a[0] = 1 // keep the first pivot nonzero
		kernels := []struct {
			name string
			run  func(out []float64, ipvt []int64) error
		}{
			{"Dgefa", func(out []float64, ipvt []int64) error { copy(out, a); return Dgefa(out, n, ipvt) }},
			{"DgefaBlocked", func(out []float64, ipvt []int64) error { copy(out, a); return DgefaBlocked(out, n, ipvt, 0) }},
			{"Dmmul", func(out []float64, _ []int64) error { return Dmmul(n, a, b, out) }},
		}
		for _, workers := range []int{1, 2} {
			forceWorkers(t, workers, 1)
			for _, k := range kernels {
				label := fmt.Sprintf("%s n=%d workers=%d", k.name, n, workers)
				want, wantP := make([]float64, n*n), make([]int64, n)
				wantErr := onPortable(func() error { return k.run(want, wantP) })
				got, gotP := make([]float64, n*n), make([]int64, n)
				if err := k.run(got, gotP); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: err %v, portable %v", label, err, wantErr)
				}
				if i := firstBitDiff(got, want); i >= 0 {
					t.Fatalf("%s: [%d] = %v, portable %v", label, i, got[i], want[i])
				}
				for i := range wantP {
					if gotP[i] != wantP[i] {
						t.Fatalf("%s: ipvt[%d] = %d, portable %d", label, i, gotP[i], wantP[i])
					}
				}
			}
		}
	}
}

// TestAxpyKernelSelected: where Linux says the CPU has AVX2, axpy must
// be running the vector kernel.
func TestAxpyKernelSelected(t *testing.T) {
	cpufeattest.CheckAVX2(t, "linpack axpy", func() bool {
		y, x := make([]float64, 256), make([]float64, 256)
		return axpyVector(y, x, 1) == 256
	})
}

// BenchmarkAxpy times axpy, kernel and tail, against the portable loop
// at row lengths either side of axpyVectorMin.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16, 24, 32, 64, 256} {
		y, x := make([]float64, n), make([]float64, n)
		for i := range x {
			x[i] = float64(i)
		}
		b.Run("axpy/"+sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				axpy(y, x, 0x1p-40)
			}
		})
		b.Run("portable/"+sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				axpyGeneric(y, x, 0x1p-40)
			}
		})
	}
}
