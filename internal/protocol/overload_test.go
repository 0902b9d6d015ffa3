package protocol

import (
	"reflect"
	"testing"

	"ninf/internal/idl"
)

// The overload-control fields — the retry-after hint on error replies,
// the caller deadline of a call request, the Draining stats flag, and
// the overload fields of an observation — are fixed fields of their
// messages. These tests pin that each one survives a round trip;
// TestPayloadLayoutsStrict pins that no shorter payload decodes.

func TestErrorReplyHintRoundTrip(t *testing.T) {
	p := EncodeErrorReply(CodeOverloaded, "queue full", 250)
	er, err := DecodeErrorReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeOverloaded || er.Detail != "queue full" || er.RetryAfterMillis != 250 {
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
		t.Error("array arguments corrupted by the deadline")
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
