//go:build !amd64

package linpack

// axpyVector reports how many leading elements a vector kernel
// updated: none on this architecture, so axpy is the portable loop
// axpyGeneric. A port adds an axpy_GOARCH.go/.s pair beside axpy_amd64
// and narrows this file's build constraint.
func axpyVector(y, x []float64, m float64) int { return 0 }
