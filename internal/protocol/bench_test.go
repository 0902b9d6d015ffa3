package protocol

import (
	"bytes"
	"io"
	"testing"

	"ninf/internal/idl"
)

// benchInfo is a dmmul-shaped interface used by the marshalling
// benchmarks.
func benchInfo(b *testing.B) *idl.Info {
	b.Helper()
	info, err := idl.ParseOne(`
Define dmmul(mode_in int n, mode_in double A[n][n], mode_in double B[n][n], mode_out double C[n][n])
    Complexity 2*n^3 Calls "go" dmmul(n, A, B, C);`)
	if err != nil {
		b.Fatal(err)
	}
	return info
}

func BenchmarkEncodeCallRequest(b *testing.B) {
	info := benchInfo(b)
	n := 128
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	args := []idl.Value{int64(n), a, bb, nil}
	b.SetBytes(int64(2 * 8 * n * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul", Args: args}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEncodeCallRequestBuf is the pooled counterpart of
// BenchmarkEncodeCallRequest: the frame buffer is recycled, so the
// steady state runs at zero allocations per call.
func BenchmarkEncodeCallRequestBuf(b *testing.B) {
	info := benchInfo(b)
	n := 128
	a := make([]float64, n*n)
	bb := make([]float64, n*n)
	args := []idl.Value{int64(n), a, bb, nil}
	b.SetBytes(int64(2 * 8 * n * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fb, err := EncodeCallRequestBuf(info, &CallRequest{Name: "dmmul", Args: args})
		if err != nil {
			b.Fatal(err)
		}
		fb.Release()
	}
}

// discardWriter swallows frames without retaining them, isolating the
// framing layer's own cost from the transport.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkFrameRoundTrip writes a call-request frame and reads it
// back through the pooled framing path (WriteFrameBuf/ReadFrameBuf),
// the code path a loopback Ninf_call exercises on both sides.
func BenchmarkFrameRoundTrip(b *testing.B) {
	info := benchInfo(b)
	n := 128
	args := []idl.Value{int64(n), make([]float64, n*n), make([]float64, n*n), nil}
	sizes := []struct {
		name string
		run  func(b *testing.B)
	}{
		{"pooled", func(b *testing.B) {
			var wire bytes.Buffer
			for i := 0; i < b.N; i++ {
				fb, err := EncodeCallRequestBuf(info, &CallRequest{Name: "dmmul", Args: args})
				if err != nil {
					b.Fatal(err)
				}
				wire.Reset()
				if err := WriteFrameBuf(&wire, MsgCall, fb); err != nil {
					b.Fatal(err)
				}
				fb.Release()
				t, rfb, err := ReadFrameBuf(&wire, 0)
				if err != nil || t != MsgCall {
					b.Fatalf("read: %v (%v)", err, t)
				}
				rfb.Release()
			}
		}},
		{"legacy", func(b *testing.B) {
			var wire bytes.Buffer
			for i := 0; i < b.N; i++ {
				p, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul", Args: args})
				if err != nil {
					b.Fatal(err)
				}
				wire.Reset()
				if err := WriteFrame(&wire, MsgCall, p); err != nil {
					b.Fatal(err)
				}
				t, rp, err := ReadFrame(&wire, 0)
				if err != nil || t != MsgCall || rp == nil {
					b.Fatalf("read: %v (%v)", err, t)
				}
			}
		}},
	}
	for _, s := range sizes {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(int64(2*8*n*n + headerSize))
			b.ReportAllocs()
			s.run(b)
		})
	}
}

// BenchmarkWriteFrame measures the header+payload write alone: the
// pooled path issues one contiguous write, the legacy path a vectored
// one; neither allocates.
func BenchmarkWriteFrame(b *testing.B) {
	payload := make([]byte, 64<<10)
	b.Run("pooled", func(b *testing.B) {
		fb := AcquireBuffer(len(payload))
		fb.Write(payload)
		defer fb.Release()
		b.SetBytes(int64(len(payload) + headerSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteFrameBuf(io.Discard, MsgCall, fb); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		b.SetBytes(int64(len(payload) + headerSize))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := WriteFrame(discardWriter{}, MsgCall, payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeCallArgs(b *testing.B) {
	info := benchInfo(b)
	n := 128
	args := []idl.Value{int64(n), make([]float64, n*n), make([]float64, n*n), nil}
	p, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul", Args: args})
	if err != nil {
		b.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(rest)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
