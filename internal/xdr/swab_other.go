//go:build !amd64

package xdr

// swabVector reports how many leading bytes a vector kernel converted:
// none on this architecture, so Swab is swabGeneric. A port adds a
// swab_GOARCH.go/.s pair beside swab_amd64 and narrows this file's
// build constraint.
func swabVector(dst, src []byte, size int) int { return 0 }
