package xdr

import "testing"

// BenchmarkSwab prices one array conversion: ref is the portable loop,
// kernel is Swab as the codec calls it (the same loop where there is no
// vector kernel). BenchmarkCopy is the floor — the same bytes through
// memmove. The source sits 4 past alignment, where the XDR count word
// leaves the elements of a frame.
func BenchmarkSwab(b *testing.B) {
	b.Run("ref", func(b *testing.B) { benchSpans(b, swabGeneric) })
	b.Run("kernel", func(b *testing.B) { benchSpans(b, Swab) })
}

func BenchmarkCopy(b *testing.B) {
	benchSpans(b, func(dst, src []byte, _ int) { copy(dst, src) })
}

func benchSpans(b *testing.B, fn func(dst, src []byte, size int)) {
	for _, s := range []struct {
		name string
		n    int
	}{{"64B", 64}, {"4KiB", 4 << 10}, {"64KiB", 64 << 10}, {"1MiB", 1 << 20}} {
		b.Run(s.name, func(b *testing.B) {
			src, dst := aligned(s.n + 4)[4:], aligned(s.n)
			b.SetBytes(int64(s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn(dst, src, 8)
			}
		})
	}
}
