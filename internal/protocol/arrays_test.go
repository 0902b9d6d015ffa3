package protocol

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// One routine per array element type, each an echo: the request ships
// n and the in-array, the reply the out-array.
const echoTypesIDL = `
Define echo(mode_in int n, mode_in double data[n], mode_out double copy[n])
    "double echo" Calls "go" echo(n, data, copy);
Define echof(mode_in int n, mode_in float data[n], mode_out float copy[n])
    "float echo" Calls "go" echof(n, data, copy);
Define echoi(mode_in int n, mode_in int data[n], mode_out int copy[n])
    "int echo" Calls "go" echoi(n, data, copy);
`

func echoInfos(t testing.TB) []*idl.Info {
	t.Helper()
	infos, err := idl.Parse(echoTypesIDL)
	if err != nil {
		t.Fatal(err)
	}
	return infos
}

// hostileArgs is the 12-byte argument payload that used to make the
// server allocate 1 GiB: scalar n, then an array count word promising
// 2^27 elements and not one of them.
func hostileArgs(n int64) []byte {
	p := make([]byte, 12)
	binary.BigEndian.PutUint64(p, uint64(n))
	binary.BigEndian.PutUint32(p[8:], 1<<27)
	return p
}

// hostileReply is the same shape in a reply: the three timing words,
// then the out-array's count word.
func hostileReply() []byte {
	p := make([]byte, 28)
	binary.BigEndian.PutUint32(p[24:], 1<<27)
	return p
}

// totalAlloc reports the bytes fn allocated, process-wide.
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestHostileCountWordAllocatesNothing is the amplification regression:
// an array count word is held to the IDL-derived count and to the bytes
// the payload really holds before anything is allocated for the array.
// Twelve bytes used to cost the server 1 GiB (the decoder made the
// vector, then found the payload empty), and a hostile reply cost the
// client the same; a 4-byte list reply cost it 16 MiB.
func TestHostileCountWordAllocatesNothing(t *testing.T) {
	for _, info := range echoInfos(t) {
		// n=1 contradicts the count word; n=2^27 agrees with it, so
		// only the missing bytes give the payload away.
		for _, n := range []int64{1, 1 << 27} {
			var err error
			got := totalAlloc(func() { _, _, err = DecodeCallArgsPooled(info, hostileArgs(n), nil, nil, nil, 0) })
			if err == nil {
				t.Errorf("%s n=%d: hostile request decoded", info.Name, n)
			}
			if got > 1<<20 {
				t.Errorf("%s n=%d: request decode allocated %d bytes for a 12-byte payload (%v)", info.Name, n, got, err)
			}
			arrays := NewArrays()
			got = totalAlloc(func() { _, _, err = DecodeCallArgsPooled(info, hostileArgs(n), nil, nil, arrays, 0) })
			arrays.Release()
			if err == nil || got > 1<<20 {
				t.Errorf("%s n=%d: pooled request decode: err %v, %d bytes allocated", info.Name, n, err, got)
			}

			callArgs := []idl.Value{n, nil, nil}
			got = totalAlloc(func() { _, _, err = DecodeCallReply(info, callArgs, hostileReply()) })
			if err == nil {
				t.Errorf("%s n=%d: hostile reply decoded", info.Name, n)
			}
			if got > 1<<20 {
				t.Errorf("%s n=%d: reply decode allocated %d bytes for a 28-byte payload (%v)", info.Name, n, got, err)
			}
		}
	}
	// A list reply's count word is held to the payload too.
	var err error
	list := []byte{0, 0x10, 0, 0} // 2^20 names and none of them
	if got := totalAlloc(func() { _, err = DecodeListReply(list) }); err == nil || got > 1<<20 {
		t.Errorf("a 4-byte list reply: err %v, %d bytes allocated", err, got)
	}
	// So is a trace reply's.
	traces := []byte{0, 1, 0, 0} // 2^16 routine traces and none of them
	if got := totalAlloc(func() { _, err = DecodeTraces(traces) }); err == nil || got > 1<<10 {
		t.Errorf("a 4-byte trace reply: err %v, %d bytes allocated", err, got)
	}
}

// TestCountWordHeldToIDL: the count word must be the IDL's count, and
// the error says so, whichever side of it the word errs on.
func TestCountWordHeldToIDL(t *testing.T) {
	info := echoInfos(t)[0]
	p, err := EncodeCallRequest(info, &CallRequest{Name: "echo", Args: []idl.Value{int64(3), []float64{1, 2, 3}, nil}})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []uint32{2, 4} {
		bad := append([]byte(nil), rest...)
		binary.BigEndian.PutUint32(bad[8:], count)
		if _, _, err := DecodeCallArgsPooled(info, bad, nil, nil, nil, 0); err == nil || !strings.Contains(err.Error(), "IDL dimensions give 3") {
			t.Errorf("count word %d against IDL count 3: %v", count, err)
		}
	}
}

// TestDecodeCallReplyInto: with destinations, array results land in the
// caller's slices — from a monolithic payload, from a bulk segment in
// the host's order and from one in the other order — and the returned
// vector holds those same slices; a nil destination discards; a
// destination of the wrong shape is refused before anything is written.
func TestDecodeCallReplyInto(t *testing.T) {
	info := dmmulInfo(t)
	const n = 40
	c := make([]float64, n*n)
	for i := range c {
		c[i] = float64(i) - 0.5
	}
	args := []idl.Value{int64(n), nil, nil, c}
	callArgs := []idl.Value{int64(n), nil, nil, nil}

	mono, err := EncodeCallReplyBuf(info, Timings{}, args)
	if err != nil {
		t.Fatal(err)
	}
	defer mono.Release()
	m, err := EncodeCallReplyChunks(info, Timings{}, args, 1024)
	if err != nil || m == nil {
		t.Fatalf("reply not chunked: %v", err)
	}
	var wire bytes.Buffer
	streamBulk(t, &wire, m, 9, 2048)
	bd := reassemble(t, &wire, false)
	defer bd.FB.Release()
	// The same reply as a peer of the other byte order would send it.
	foreign := bd.Bulk
	foreign.Base = append([]byte(nil), bd.Bulk.Base...)
	foreign.LE = !bd.Bulk.LE
	seg := foreign.Base[foreign.HeadLen:]
	xdr.Swab(seg, bd.Bulk.Base[bd.Bulk.HeadLen:], 8)

	replies := []struct {
		name string
		head []byte
		bulk *BulkInfo
	}{
		{"monolithic", mono.Payload(), nil},
		{"segment", bd.Bulk.Head(), &bd.Bulk},
		{"foreign-order segment", foreign.Head(), &foreign},
	}
	for _, r := range replies {
		dst := make([]float64, n*n)
		_, out, err := DecodeCallReplyInto(info, callArgs, []any{nil, nil, nil, dst}, r.head, r.bulk)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if !reflect.DeepEqual(dst, c) {
			t.Errorf("%s: destination does not hold the result", r.name)
		}
		if got := out[3].([]float64); &got[0] != &dst[0] {
			t.Errorf("%s: the returned array is not the destination", r.name)
		}

		if _, out, err = DecodeCallReplyInto(info, callArgs, make([]any, 4), r.head, r.bulk); err != nil || out[3] != nil {
			t.Errorf("%s: discarded result: out %v, err %v", r.name, out[3], err)
		}

		for _, bad := range []any{make([]float64, n*n-1), make([]float32, n*n), new(float64)} {
			if _, _, err := DecodeCallReplyInto(info, callArgs, []any{nil, nil, nil, bad}, r.head, r.bulk); err == nil {
				t.Errorf("%s: stored a %d-element double array into %T", r.name, n*n, bad)
			}
		}
	}
}

// TestArraysPoolFloorAndZeroing: arrays under the floor are plain
// allocations the pool never sees; above it they are recorded,
// recycled by Release (once), and an out-array cut from a recycled,
// dirtied block still arrives zeroed.
func TestArraysPoolFloorAndZeroing(t *testing.T) {
	recycled := 0
	SetArrayReleaseHook(func(mem []uint64) {
		recycled++
		for i := range mem {
			mem[i] = ^uint64(0)
		}
	})
	defer SetArrayReleaseHook(nil)
	info := echoInfos(t)[0]
	for _, tc := range []struct{ n, pooled int }{{minArrayBytes/8 - 1, 0}, {minArrayBytes / 8, 2}} {
		in := make([]float64, tc.n)
		for i := range in {
			in[i] = float64(i + 1)
		}
		p, err := EncodeCallRequest(info, &CallRequest{Name: "echo", Args: []idl.Value{int64(tc.n), in, nil}})
		if err != nil {
			t.Fatal(err)
		}
		_, rest, _ := DecodeCallName(p)
		for round := 0; round < 3; round++ {
			recycled = 0
			arrays := NewArrays()
			args, _, err := DecodeCallArgsPooled(info, rest, nil, nil, arrays, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(args[1], in) {
				t.Fatalf("n=%d round %d: in-array decoded wrong", tc.n, round)
			}
			for i, x := range args[2].([]float64) {
				if x != 0 {
					t.Fatalf("n=%d round %d: out-array element %d arrived as %v", tc.n, round, i, x)
				}
			}
			arrays.Release()
			arrays.Release()
			if recycled != tc.pooled {
				t.Fatalf("n=%d round %d: %d arrays recycled, want %d", tc.n, round, recycled, tc.pooled)
			}
		}
	}
}
