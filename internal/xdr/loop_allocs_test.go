package xdr

import (
	"bytes"
	"io"
	"testing"
)

// TestLoopAllocsFlat drives each conversion loop of the codec over n
// and 8n units — elements, or chunkSize chunks for a stream — and holds
// the allocations at 8n to those at n plus 3: whatever a loop body
// allocates shows up 7n times over.
func TestLoopAllocsFlat(t *testing.T) {
	elems := func(n int) (dst, src []byte) { return make([]byte, 8*n), make([]byte, 8*n) }
	chunks := func(n int) []float64 { return make([]float64, n*chunkSize/8) }
	rows := []struct {
		name string
		at   func(n int) func()
	}{
		{"Swab", func(n int) func() {
			dst, src := elems(n)
			return func() { Swab(dst, src, 8) }
		}},
		{"swabGeneric/4", func(n int) func() {
			dst, src := elems(n)
			return func() { swabGeneric(dst, src, 4) }
		}},
		{"swabGeneric/8", func(n int) func() {
			dst, src := elems(n)
			return func() { swabGeneric(dst, src, 8) }
		}},
		{"convert", func(n int) func() {
			dst, src := elems(n)
			return func() { convert(dst, src, 8) }
		}},
		{"putVec/memory", func(n int) func() {
			v := make([]float64, n)
			s := &memSink{b: make([]byte, 0, 4+8*n)}
			e := new(Encoder)
			return func() {
				s.b = s.b[:0]
				e.Reset(s)
				e.PutFloat64s(v)
			}
		}},
		{"putVec/stream", func(n int) func() {
			v := chunks(n)
			e := new(Encoder)
			return func() {
				e.Reset(io.Discard)
				e.PutFloat64s(v)
			}
		}},
		{"getVec/memory", func(n int) func() {
			dst, src := elems(n)
			d := new(Decoder)
			return func() {
				d.ResetBytes(src)
				d.getVec(dst, 8)
			}
		}},
		{"getVec/stream", func(n int) func() {
			v := chunks(n)
			src := make([]byte, 8*len(v))
			r := bytes.NewReader(src)
			d := new(Decoder)
			return func() {
				r.Reset(src)
				d.Reset(r)
				d.getVec(rawBytes(v), 8)
			}
		}},
	}
	const n = 16
	for _, r := range rows {
		small := testing.AllocsPerRun(20, r.at(n))
		large := testing.AllocsPerRun(20, r.at(8*n))
		t.Logf("%s: %.1f allocations at n = %d, %.1f at %d", r.name, small, n, large, 8*n)
		if large > small+3 {
			t.Errorf("%s: %.1f allocations at n = %d, %.1f at %d: the loop allocates per unit", r.name, small, n, large, 8*n)
		}
	}
}
