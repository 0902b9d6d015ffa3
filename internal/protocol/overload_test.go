package protocol

import (
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// The overload-control wire extensions — the retry-after hint on error
// replies, the caller deadline trailing a call request, the Draining
// stats flag, and the overload fields of an observation — all ride as
// optional trailers. These tests pin both directions of compatibility:
// new decoders read old payloads (fields default to zero) and old-style
// decoders are unaffected by the trailers new encoders append.

func TestErrorReplyHintRoundTrip(t *testing.T) {
	p := EncodeErrorReplyHint(CodeOverloaded, "queue full", 250)
	er, err := DecodeErrorReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeOverloaded || er.Detail != "queue full" || er.RetryAfterMillis != 250 {
		t.Errorf("got %+v", er)
	}
}

func TestErrorReplyHintZeroOmitted(t *testing.T) {
	// A zero hint must not change the wire image: EncodeErrorReply and
	// EncodeErrorReplyHint(..., 0) are byte-identical, so an old peer
	// decoding either sees exactly the v1 payload.
	plain := EncodeErrorReply(CodeExecFailed, "boom")
	hinted := EncodeErrorReplyHint(CodeExecFailed, "boom", 0)
	if string(plain) != string(hinted) {
		t.Errorf("zero-hint encoding differs: %x vs %x", plain, hinted)
	}
	er, err := DecodeErrorReply(plain)
	if err != nil || er.RetryAfterMillis != 0 {
		t.Errorf("got %+v, %v", er, err)
	}
}

func TestErrorReplyOldPayloadDecodes(t *testing.T) {
	// Strip the trailer to emulate an old sender: the new decoder must
	// leave the hint zero.
	p := EncodeErrorReplyHint(CodeOverloaded, "busy", 99)
	old := p[:len(p)-4]
	er, err := DecodeErrorReply(old)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeOverloaded || er.Detail != "busy" || er.RetryAfterMillis != 0 {
		t.Errorf("got %+v", er)
	}
}

func TestCallRequestDeadlineRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 2
	a := []float64{1, 2, 3, 4}
	b := []float64{5, 6, 7, 8}
	const deadline = int64(1234567890123456789)
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}, Deadline: deadline}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	args, got, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != deadline {
		t.Errorf("deadline = %d, want %d", got, deadline)
	}
	if !reflect.DeepEqual(args[1], a) || !reflect.DeepEqual(args[2], b) {
		t.Error("array arguments corrupted by deadline trailer")
	}

	// The old decoder path must still parse the args, ignoring the
	// trailer — a new client calling an old server loses the deadline
	// but not the call.
	oldArgs, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatalf("old-style decode with deadline trailer: %v", err)
	}
	if !reflect.DeepEqual(oldArgs[1], a) {
		t.Error("old-style decode corrupted args")
	}
}

func TestCallRequestNoDeadlineUnchanged(t *testing.T) {
	info := dmmulInfo(t)
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(2), make([]float64, 4), make([]float64, 4), nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	_, deadline, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if deadline != 0 {
		t.Errorf("deadline = %d, want 0 for a v1-shaped request", deadline)
	}
}

func TestStatsDrainingRoundTrip(t *testing.T) {
	in := Stats{Hostname: "h", PEs: 4, Queued: 2, Draining: true}
	out, err := DecodeStats(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !out.Draining || out.Hostname != "h" || out.PEs != 4 {
		t.Errorf("got %+v", out)
	}

	// An old server's stats payload lacks the cache counters and the
	// draining word; the new decoder must default both trailers.
	p := in.Encode()
	old := p[:len(p)-52] // 48 cache-counter bytes + 4 draining bytes
	out, err = DecodeStats(old)
	if err != nil {
		t.Fatal(err)
	}
	if out.Draining {
		t.Error("Draining = true decoding an old-format payload")
	}

	// A PR 8-era payload carries Draining but no cache counters.
	mid := p[:len(p)-48]
	out, err = DecodeStats(mid)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Draining || out.CacheHits != 0 {
		t.Errorf("mid-format decode: got %+v", out)
	}
}

func TestStatsCacheCountersRoundTrip(t *testing.T) {
	in := Stats{Hostname: "h", PEs: 2, CacheHits: 10, CacheMisses: 3,
		CacheEvictions: 1, CachePinnedBytes: 4096, CacheUsedBytes: 1 << 20, CacheBudget: 1 << 24}
	out, err := DecodeStats(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("got %+v, want %+v", out, in)
	}
}

func TestObserveRequestOverloadRoundTrip(t *testing.T) {
	in := ObserveRequest{Name: "s0", Bytes: 7, Nanos: 9, Failed: true, Overloaded: true, RetryAfterMillis: 120}
	out, err := DecodeObserveRequest(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("got %+v, want %+v", out, in)
	}

	// A PR 5-era client stops after the overload trailer (no
	// origin/seq); the new daemon decodes it with a zero Origin,
	// marking a legacy, non-idempotent report.
	p := in.Encode()
	pr5 := p[:len(p)-12] // empty Origin (4) + Seq (8)
	out, err = DecodeObserveRequest(pr5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Origin != "" || out.Seq != 0 {
		t.Errorf("got %+v decoding PR5-format payload", out)
	}
	if !out.Overloaded || out.RetryAfterMillis != 120 {
		t.Errorf("overload trailer corrupted: %+v", out)
	}

	// Old clients stop after Failed; the new daemon decodes the short
	// payload with the overload fields zero.
	old := p[:len(p)-20]
	out, err = DecodeObserveRequest(old)
	if err != nil {
		t.Fatal(err)
	}
	if out.Overloaded || out.RetryAfterMillis != 0 {
		t.Errorf("got %+v decoding old-format payload", out)
	}
	if !out.Failed || out.Name != "s0" {
		t.Errorf("prefix fields corrupted: %+v", out)
	}
}

func TestObserveRequestOriginSeqRoundTrip(t *testing.T) {
	in := ObserveRequest{Name: "s1", Bytes: 3, Nanos: 5, Origin: "client-7", Seq: 42}
	out, err := DecodeObserveRequest(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("got %+v, want %+v", out, in)
	}
}
