package protocol

import (
	"fmt"
	"testing"

	"ninf/internal/idl"
)

// TestTrailersRideEveryShape: the deadline and retain words are part
// of the envelope, not of a placement — whichever way the arrays go, a
// call and a submit carry both. (The plain chunked request used to drop
// retain, on exactly the path where a cache-granting server refuses the
// warmth query and the client falls back to plain framing.)
func TestTrailersRideEveryShape(t *testing.T) {
	info := echoInfos(t)[0]
	data := make([]float64, 600)
	for i := range data {
		data[i] = float64(i) / 4
	}
	dig, resolved := DigestFloat64s(data), 0
	le, _ := ValueLEBytes(data)
	cache := &mapResolver{held: map[Digest][]byte{dig: le}, resolved: &resolved}
	shapes := []struct {
		name  string
		shape Shape
		cache *mapResolver
	}{
		{"inline", Shape{}, nil},
		{"segment", NewShape(false, 4096, nil, nil), nil},
		{"digest", NewShape(true, 4096, []Digest{dig}, []bool{true}), cache},
	}
	for _, sh := range shapes {
		for _, mt := range []MsgType{MsgCall, MsgSubmit} {
			t.Run(fmt.Sprintf("%s/%v", sh.name, mt), func(t *testing.T) {
				req := &CallRequest{Name: info.Name, Args: []idl.Value{int64(len(data)), data, nil}, Deadline: 12345, Retain: true}
				bm, fb, err := EncodeRequest(info, mt, req, 77, sh.shape)
				if err != nil {
					t.Fatal(err)
				}
				if (bm != nil) != (sh.name == "segment") {
					t.Fatalf("BulkMsg %v under the %s shape", bm != nil, sh.name)
				}
				head, bulk := deliver(t, bm, fb, sh.cache)
				if mt == MsgSubmit {
					var key uint64
					if key, head, err = DecodeSubmitKey(head); err != nil || key != 77 {
						t.Fatalf("key %d, %v", key, err)
					}
				}
				_, rest, err := DecodeCallName(head)
				if err != nil {
					t.Fatal(err)
				}
				var retain bool
				args, deadline, err := DecodeCallArgsPooled(info, rest, bulk, &retain, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				if deadline != 12345 || !retain {
					t.Errorf("deadline=%d retain=%t, want 12345 true", deadline, retain)
				}
				if got := args[1].([]float64); len(got) != len(data) || got[599] != data[599] {
					t.Errorf("array did not survive: %d elements", len(got))
				}
			})
		}
	}
	if resolved != 2 {
		t.Errorf("%d digest markers resolved, want one per digest-shape message", resolved)
	}
}

// TestSubThresholdEncodeAllocsSameUnderAnyShape: span and patch
// bookkeeping is made only when a segment exists, so a message nothing
// in which reaches the threshold costs the same to encode on a
// bulk-capable session as on a lockstep connection.
func TestSubThresholdEncodeAllocsSameUnderAnyShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the counts assume they are kept")
	}
	info := echoInfos(t)[0]
	req := &CallRequest{Name: info.Name, Args: []idl.Value{int64(1), []float64{1.5}, nil}}
	reply := []idl.Value{int64(1), []float64{1.5}, []float64{1.5}}
	measure := func(sh Shape) (request, rep float64) {
		request = testing.AllocsPerRun(1000, func() {
			bm, fb, err := EncodeRequest(info, MsgCall, req, 0, sh)
			if err != nil || bm != nil {
				t.Fatalf("request: %v, BulkMsg %v", err, bm != nil)
			}
			fb.Release()
		})
		rep = testing.AllocsPerRun(1000, func() {
			bm, fb, err := EncodeReply(info, Timings{}, reply, sh)
			if err != nil || bm != nil {
				t.Fatalf("reply: %v, BulkMsg %v", err, bm != nil)
			}
			fb.Release()
		})
		return request, rep
	}
	zeroReq, zeroRep := measure(Shape{})
	bulkReq, bulkRep := measure(NewShape(false, DefaultBulkThreshold, nil, nil))
	if bulkReq > zeroReq || bulkRep > zeroRep {
		t.Errorf("allocs per message under a bulk shape: request %.0f, reply %.0f; inline-only: %.0f, %.0f", bulkReq, bulkRep, zeroReq, zeroRep)
	}
	t.Logf("allocs per message: request %.0f, reply %.0f", zeroReq, zeroRep)
}
