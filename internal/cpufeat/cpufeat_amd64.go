package cpufeat

// hasAVX2 reports CPUID leaf 7 AVX2 together with OSXSAVE, AVX and
// XCR0 bits 1–2 (the OS preserves XMM and YMM registers).
func hasAVX2() bool
