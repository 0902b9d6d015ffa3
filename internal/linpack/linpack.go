// Package linpack implements the dense linear-algebra kernels the
// paper registers on Ninf servers: the LINPACK LU decomposition
// (dgefa) and backward substitution (dgesl), a blocked right-looking
// LU (the analogue of the glub4/gslv4 routines the paper uses on
// RISC workstations), and a double-precision matrix multiply (dmmul,
// the paper's §2.2 running example).
//
// Matrices are dense, row-major, flattened into []float64 of length
// n*n; element (i,j) is a[i*n+j]. This matches how Ninf RPC ships
// two-dimensional IDL arrays.
//
// Flops reports the canonical LINPACK operation count used throughout
// the paper's performance model: 2/3·n³ + 2·n².
package linpack

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a (numerically) singular matrix: a zero pivot was
// found during factorization.
var ErrSingular = errors.New("linpack: matrix is singular")

// Flops returns the nominal LINPACK operation count 2/3·n³ + 2·n² for a
// factor+solve of order n, the quantity in the paper's P_Ninf_call.
func Flops(n int) float64 {
	fn := float64(n)
	return 2.0/3.0*fn*fn*fn + 2*fn*fn
}

// CommBytes returns the paper's §3.1 estimate of bytes shipped for a
// remote factor+solve of order n: 8n² + 20n.
func CommBytes(n int) float64 {
	fn := float64(n)
	return 8*fn*fn + 20*fn
}

func checkSquare(a []float64, n int) error {
	if n < 0 {
		return fmt.Errorf("linpack: negative order %d", n)
	}
	if len(a) != n*n {
		return fmt.Errorf("linpack: matrix length %d does not match order %d", len(a), n)
	}
	return nil
}

// Dgefa factors a in place by Gaussian elimination with partial
// pivoting, recording the pivot sequence in ipvt (length n). It is the
// LINPACK factorization transcribed to row-major storage, with
// full-row pivot swaps (the LAPACK convention) so that the blocked
// variant produces bit-identical factors. On return a holds L (unit
// lower, below the diagonal) and U.
func Dgefa(a []float64, n int, ipvt []int64) error {
	if err := checkSquare(a, n); err != nil {
		return err
	}
	if len(ipvt) != n {
		return fmt.Errorf("linpack: ipvt length %d, want %d", len(ipvt), n)
	}
	for k := 0; k < n-1; k++ {
		// Find the pivot: largest magnitude in column k at or below
		// the diagonal.
		p := k
		pmax := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > pmax {
				pmax = v
				p = i
			}
		}
		ipvt[k] = int64(p)
		if a[p*n+k] == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
		}
		if p != k {
			rowP, rowK := a[p*n:p*n+n], a[k*n:k*n+n]
			for j := 0; j < n; j++ {
				rowP[j], rowK[j] = rowK[j], rowP[j]
			}
		}
		// Compute multipliers and eliminate.
		pivot := a[k*n+k]
		rowK := a[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			m := a[i*n+k] / pivot
			a[i*n+k] = m
			if m == 0 {
				continue
			}
			axpy(a[i*n+k+1:i*n+n], rowK, m)
		}
	}
	if n > 0 {
		ipvt[n-1] = int64(n - 1)
		if a[(n-1)*n+(n-1)] == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, n-1)
		}
	}
	return nil
}

// Dgesl solves A·x = b using the factors computed by Dgefa; b is
// overwritten with the solution.
func Dgesl(a []float64, n int, ipvt []int64, b []float64) error {
	if err := checkSquare(a, n); err != nil {
		return err
	}
	if len(ipvt) != n || len(b) != n {
		return fmt.Errorf("linpack: ipvt/b lengths %d/%d, want %d", len(ipvt), len(b), n)
	}
	// Apply the pivot sequence to b, then forward-eliminate with L.
	// (Full-row swaps during factorization leave the stored L in
	// final row order, so pivots must be applied before the solve.)
	for k := 0; k < n-1; k++ {
		p := int(ipvt[k])
		if p < 0 || p >= n {
			return fmt.Errorf("linpack: pivot index %d out of range", p)
		}
		if p != k {
			b[p], b[k] = b[k], b[p]
		}
	}
	for k := 0; k < n-1; k++ {
		bk := b[k]
		if bk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			b[i] -= a[i*n+k] * bk
		}
	}
	// Back substitution: solve U·x = y.
	for k := n - 1; k >= 0; k-- {
		piv := a[k*n+k]
		if piv == 0 {
			return fmt.Errorf("%w: zero diagonal at %d", ErrSingular, k)
		}
		b[k] /= piv
		bk := b[k]
		for i := 0; i < k; i++ {
			b[i] -= a[i*n+k] * bk
		}
	}
	return nil
}

// Solve factors a copy of a and solves for b, returning the solution
// without mutating its inputs. Convenience wrapper used by examples.
func Solve(a []float64, n int, b []float64) ([]float64, error) {
	ac := append([]float64(nil), a...)
	bc := append([]float64(nil), b...)
	ipvt := make([]int64, n)
	if err := Dgefa(ac, n, ipvt); err != nil {
		return nil, err
	}
	if err := Dgesl(ac, n, ipvt, bc); err != nil {
		return nil, err
	}
	return bc, nil
}

// DefaultBlock is the blocking factor for the blocked factorization,
// chosen so a block panel fits comfortably in L1 cache.
const DefaultBlock = 48

// DgefaBlocked is a right-looking blocked LU with partial pivoting —
// the stand-in for the paper's glub4 "blocking optimized" routine that
// runs efficiently on RISC workstations. Semantics are identical to
// Dgefa: same factors, same pivot vector.
func DgefaBlocked(a []float64, n int, ipvt []int64, block int) error {
	if err := checkSquare(a, n); err != nil {
		return err
	}
	if len(ipvt) != n {
		return fmt.Errorf("linpack: ipvt length %d, want %d", len(ipvt), n)
	}
	if block < 1 {
		block = DefaultBlock
	}
	workers := workersFor(n)
	for kb := 0; kb < n; kb += block {
		kend := kb + block
		if kend > n {
			kend = n
		}
		// Factor the panel a[kb:n, kb:kend] with partial pivoting,
		// applying row swaps across the full matrix width.
		for k := kb; k < kend; k++ {
			p := k
			pmax := math.Abs(a[k*n+k])
			for i := k + 1; i < n; i++ {
				if v := math.Abs(a[i*n+k]); v > pmax {
					pmax = v
					p = i
				}
			}
			ipvt[k] = int64(p)
			if a[p*n+k] == 0 {
				return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, k)
			}
			if p != k {
				rowP, rowK := a[p*n:p*n+n], a[k*n:k*n+n]
				for j := 0; j < n; j++ {
					rowP[j], rowK[j] = rowK[j], rowP[j]
				}
			}
			pivot := a[k*n+k]
			// Update only within the panel; the trailing matrix is
			// updated in the blocked GEMM below.
			rowK := a[k*n+k+1 : k*n+kend]
			for i := k + 1; i < n; i++ {
				m := a[i*n+k] / pivot
				a[i*n+k] = m
				if m == 0 {
					continue
				}
				axpy(a[i*n+k+1:i*n+kend], rowK, m)
			}
		}
		if kend == n {
			break
		}
		// Triangular solve: U12 = L11⁻¹ · A12 for the block rows.
		for k := kb; k < kend; k++ {
			rowK := a[k*n+kend : k*n+n]
			for i := k + 1; i < kend; i++ {
				if m := a[i*n+k]; m != 0 {
					axpy(a[i*n+kend:i*n+n], rowK, m)
				}
			}
		}
		// Trailing update: A22 -= L21 · U12, blocked over k for reuse.
		// This is the O(n³) bulk of the factorization; rows are
		// independent (the panel rows kb:kend are read-only here), so
		// it is split across the kernel workers. Each worker runs the
		// serial loop over its rows, keeping the factors bit-identical
		// to the serial path.
		parallelRows(kend, n, workers, func(start, end int) {
			for i := start; i < end; i++ {
				rowI := a[i*n : i*n+n]
				for k := kb; k < kend; k++ {
					if m := rowI[k]; m != 0 {
						axpy(rowI[kend:], a[k*n+kend:k*n+n], m)
					}
				}
			}
		})
	}
	if n > 0 {
		if a[(n-1)*n+(n-1)] == 0 {
			return fmt.Errorf("%w: zero pivot at column %d", ErrSingular, n-1)
		}
	}
	return nil
}

// Dmmul computes C = A·B for n×n row-major matrices, the paper's §2.2
// example routine. The inner loops are ordered i-k-j for stride-1
// access on both operands. At or above the parallel threshold the row
// loop is split across GOMAXPROCS workers (rows of C are independent),
// with results bit-identical to the serial path.
func Dmmul(n int, a, b, c []float64) error {
	if err := checkSquare(a, n); err != nil {
		return err
	}
	if len(b) != n*n || len(c) != n*n {
		return fmt.Errorf("linpack: operand lengths %d/%d, want %d", len(b), len(c), n*n)
	}
	parallelRows(0, n, workersFor(n), func(start, end int) {
		dmmulRows(n, a, b, c, start, end)
	})
	return nil
}

// dmmulRows computes rows [start, end) of C = A·B with the serial
// i-k-j kernel. Row k of B is accumulated as an axpy with −aik: in IEEE
// 754, y − (−a)·x is y + a·x bit for bit, signed zeros included.
func dmmulRows(n int, a, b, c []float64, start, end int) {
	for i := start; i < end; i++ {
		rowC := c[i*n : i*n+n]
		clear(rowC)
		for k := 0; k < n; k++ {
			if aik := a[i*n+k]; aik != 0 {
				axpy(rowC, b[k*n:k*n+n], -aik)
			}
		}
	}
}

// axpy sets y[j] -= m·x[j] for every j < len(y), len(x) ≥ len(y): the
// inner loop of all four O(n³) loops above. The vector kernel, where
// there is one, takes the leading multiple of 4 of a long enough row
// and axpyGeneric the rest; the bits are the same either way.
func axpy(y, x []float64, m float64) {
	n := 0
	if !portableOnly {
		n = axpyVector(y, x, m)
	}
	axpyGeneric(y[n:], x[n:], m)
}

// portableOnly, set only by tests, keeps every axpy on axpyGeneric: the
// reference the vector kernel is held to.
var portableOnly bool

// axpyGeneric is axpy in portable Go: all of it on a CPU without a
// vector kernel, the tail behind one, and the tests' reference. The
// explicit conversion rounds the product before the subtraction — the
// Go spec forbids fusing it into an FMA — so every platform computes
// the bits the kernel does.
func axpyGeneric(y, x []float64, m float64) {
	x = x[:len(y)]
	for j := range y {
		y[j] -= float64(m * x[j])
	}
}

// Matgen fills a with the standard LINPACK benchmark test matrix (a
// reproducible pseudo-random matrix) and returns b = A·ones so the
// exact solution of A·x=b is the all-ones vector. This is the classic
// driver's matgen, giving every client/server pair the same problem.
func Matgen(a []float64, n int) (b []float64) {
	seed := int64(1325)
	norm := 1.0 / 65536.0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			seed = (3125 * seed) % 65536
			a[i*n+j] = (float64(seed) - 32768.0) * norm
		}
	}
	b = make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b[i] += a[i*n+j]
		}
	}
	return b
}

// Residual computes the normalized LINPACK residual
// ‖A·x−b‖∞ / (‖A‖∞·‖x‖∞·n·ε), the benchmark's pass criterion. Values
// below ~10 indicate a correct solve.
func Residual(a []float64, n int, x, b []float64) float64 {
	// r = A·x − b
	resid := 0.0
	for i := 0; i < n; i++ {
		s := -b[i]
		row := a[i*n : i*n+n]
		for j := 0; j < n; j++ {
			s += row[j] * x[j]
		}
		if v := math.Abs(s); v > resid {
			resid = v
		}
	}
	anorm := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a[i*n+j])
		}
		if s > anorm {
			anorm = s
		}
	}
	xnorm := 0.0
	for i := 0; i < n; i++ {
		if v := math.Abs(x[i]); v > xnorm {
			xnorm = v
		}
	}
	eps := math.Nextafter(1, 2) - 1
	den := anorm * xnorm * float64(n) * eps
	if den == 0 {
		return math.Inf(1)
	}
	return resid / den
}
