package linpack

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	// 2x2: [2 1; 1 3]·x = [3; 5] → x = [0.8, 1.4]
	a := []float64{2, 1, 1, 3}
	b := []float64{3, 5}
	x, err := Solve(a, 2, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-0.8) > 1e-12 || math.Abs(x[1]-1.4) > 1e-12 {
		t.Errorf("x = %v", x)
	}
}

func TestMatgenSolveAllOnes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 50, 100} {
		a := make([]float64, n*n)
		b := Matgen(a, n)
		x, err := Solve(a, n, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, v := range x {
			if math.Abs(v-1) > 1e-8 {
				t.Fatalf("n=%d: x[%d] = %g, want 1", n, i, v)
			}
		}
		if r := Residual(a, n, x, b); r > 10 {
			t.Errorf("n=%d: residual %g exceeds LINPACK threshold", n, r)
		}
	}
}

func TestBlockedMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 5, 47, 48, 49, 100, 130} {
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		a2 := append([]float64(nil), a...)
		ipvt1 := make([]int64, n)
		ipvt2 := make([]int64, n)
		// Unblocked on the portable loop against blocked on the vector
		// kernel: each element sees the same updates in the same order,
		// so the factors agree bit for bit.
		if err := onPortable(func() error { return Dgefa(a, n, ipvt1) }); err != nil {
			t.Fatalf("n=%d Dgefa: %v", n, err)
		}
		if err := DgefaBlocked(a2, n, ipvt2, 16); err != nil {
			t.Fatalf("n=%d DgefaBlocked: %v", n, err)
		}
		for i := range ipvt1 {
			if ipvt1[i] != ipvt2[i] {
				t.Fatalf("n=%d: pivot %d differs: %d vs %d", n, i, ipvt1[i], ipvt2[i])
			}
		}
		if i := firstBitDiff(a2, a); i >= 0 {
			t.Fatalf("n=%d: factor element %d differs: %g vs %g", n, i, a[i], a2[i])
		}
	}
}

func TestBlockedSolve(t *testing.T) {
	n := 80
	a := make([]float64, n*n)
	b := Matgen(a, n)
	ac := append([]float64(nil), a...)
	ipvt := make([]int64, n)
	if err := DgefaBlocked(ac, n, ipvt, 0); err != nil { // 0 → DefaultBlock
		t.Fatal(err)
	}
	x := append([]float64(nil), b...)
	if err := Dgesl(ac, n, ipvt, x); err != nil {
		t.Fatal(err)
	}
	if r := Residual(a, n, x, b); r > 10 {
		t.Errorf("residual %g", r)
	}
}

func TestSingular(t *testing.T) {
	a := []float64{1, 2, 2, 4} // rank 1
	ipvt := make([]int64, 2)
	if err := Dgefa(a, 2, ipvt); !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
	z := []float64{0}
	if err := Dgefa(z, 1, make([]int64, 1)); !errors.Is(err, ErrSingular) {
		t.Errorf("1x1 zero: err = %v", err)
	}
}

func TestArgumentValidation(t *testing.T) {
	if err := Dgefa(make([]float64, 5), 2, make([]int64, 2)); err == nil {
		t.Error("bad matrix length accepted")
	}
	if err := Dgefa(make([]float64, 4), 2, make([]int64, 1)); err == nil {
		t.Error("bad ipvt length accepted")
	}
	if err := Dgefa(nil, -1, nil); err == nil {
		t.Error("negative order accepted")
	}
	if err := Dgesl(make([]float64, 4), 2, make([]int64, 2), make([]float64, 1)); err == nil {
		t.Error("bad b length accepted")
	}
	if err := Dmmul(2, make([]float64, 4), make([]float64, 3), make([]float64, 4)); err == nil {
		t.Error("bad operand length accepted")
	}
	// Corrupt pivot vector must not panic.
	if err := Dgesl(make([]float64, 4), 2, []int64{99, 0}, make([]float64, 2)); err == nil {
		t.Error("out-of-range pivot accepted")
	}
}

func TestEmptySystem(t *testing.T) {
	if err := Dgefa(nil, 0, nil); err != nil {
		t.Errorf("n=0 Dgefa: %v", err)
	}
	if err := Dgesl(nil, 0, nil, nil); err != nil {
		t.Errorf("n=0 Dgesl: %v", err)
	}
}

func TestDmmulIdentity(t *testing.T) {
	n := 8
	id := make([]float64, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	a := make([]float64, n*n)
	Matgen(a, n)
	c := make([]float64, n*n)
	if err := Dmmul(n, a, id, c); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("A·I ≠ A at %d", i)
		}
	}
	if err := Dmmul(n, id, a, c); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if c[i] != a[i] {
			t.Fatalf("I·A ≠ A at %d", i)
		}
	}
}

func TestDmmulAssociatesWithVector(t *testing.T) {
	// Property: (A·B)·x == A·(B·x) within roundoff, for random small
	// matrices — checks Dmmul against an independent mat-vec.
	matvec := func(n int, m, x []float64) []float64 {
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := 0.0
			for j := 0; j < n; j++ {
				s += m[i*n+j] * x[j]
			}
			y[i] = s
		}
		return y
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		a := make([]float64, n*n)
		b := make([]float64, n*n)
		x := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ab := make([]float64, n*n)
		if err := Dmmul(n, a, b, ab); err != nil {
			return false
		}
		lhs := matvec(n, ab, x)
		rhs := matvec(n, a, matvec(n, b, x))
		for i := range lhs {
			if math.Abs(lhs[i]-rhs[i]) > 1e-8*(1+math.Abs(rhs[i]))*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSolveProperty(t *testing.T) {
	// Property: for random well-conditioned A (diag-dominant), the
	// residual criterion holds for both factorizations.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := make([]float64, n*n)
		for i := range a {
			a[i] = rng.Float64() - 0.5
		}
		for i := 0; i < n; i++ {
			a[i*n+i] += float64(n) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, n, b)
		if err != nil {
			return false
		}
		return Residual(a, n, x, b) < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFlopsAndCommBytes(t *testing.T) {
	if got, want := Flops(100), 2.0/3.0*1e6+2e4; got != want {
		t.Errorf("Flops(100) = %g, want %g", got, want)
	}
	if got, want := CommBytes(100), 8e4+2e3; got != want {
		t.Errorf("CommBytes(100) = %g, want %g", got, want)
	}
}

func BenchmarkDgefa(b *testing.B) {
	for _, n := range []int{100, 300, 600} {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]float64, n*n)
			Matgen(src, n)
			a := make([]float64, n*n)
			ipvt := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, src)
				if err := Dgefa(a, n, ipvt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(Flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflops")
		})
	}
}

func BenchmarkDgefaBlocked(b *testing.B) {
	for _, n := range []int{100, 300, 600} {
		b.Run(sizeName(n), func(b *testing.B) {
			src := make([]float64, n*n)
			Matgen(src, n)
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
		})
	}
}

// BenchmarkPcalc is the server library's compute rate Pcalc(n) — the
// computation term of the paper's Ninf_call model — for each kernel
// as the server runs it (default workers and threshold), in Mflops
// over its nominal operation count.
func BenchmarkPcalc(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{100, 200, 400, 800, 1600} {
		// Not Matgen: its generator's period is 16384, so at n = 800
		// and 1600 its rows repeat and the matrix is singular.
		src := make([]float64, n*n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		a := make([]float64, n*n)
		ipvt := make([]int64, n)
		factor := func(name string, f func() error) {
			b.Run(name+"/"+sizeName(n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(a, src)
					if err := f(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(Flops(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflops")
			})
		}
		factor("Dgefa", func() error { return Dgefa(a, n, ipvt) })
		factor("DgefaBlocked", func() error { return DgefaBlocked(a, n, ipvt, 0) })
		b.Run("Dmmul/"+sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := Dmmul(n, src, src, a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(2*float64(n)*float64(n)*float64(n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflops")
		})
	}
}

func sizeName(n int) string {
	return "n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
