package protocol

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"ninf/internal/idl"
)

func TestScheduleRequestRoundTrip(t *testing.T) {
	m := ScheduleRequest{
		Routine: "linsolve", InBytes: 2_880_000, OutBytes: 4800, Ops: 144_000_000,
		Exclude: []string{"j90", "smp"},
	}
	got, err := DecodeScheduleRequest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("got %+v", got)
	}

	empty := ScheduleRequest{Routine: "ep"}
	got, err = DecodeScheduleRequest(empty.Encode())
	if err != nil || got.Routine != "ep" || len(got.Exclude) != 0 {
		t.Errorf("empty: %+v %v", got, err)
	}
}

// TestScheduleRequestExcludeBound: an Exclude list over the bound is
// refused, not cut short with its next name read as the Affinity.
func TestScheduleRequestExcludeBound(t *testing.T) {
	m := ScheduleRequest{Routine: "ep"}
	for i := 0; i <= maxExclude; i++ {
		m.Exclude = append(m.Exclude, fmt.Sprintf("srv%d", i))
	}
	if got, err := DecodeScheduleRequest(m.Encode()); err == nil {
		t.Errorf("%d excludes decoded as %d plus affinity %q", len(m.Exclude), len(got.Exclude), got.Affinity)
	}
	m.Exclude = m.Exclude[:maxExclude]
	if got, err := DecodeScheduleRequest(m.Encode()); err != nil || len(got.Exclude) != maxExclude || got.Affinity != "" {
		t.Errorf("%d excludes: got %d, affinity %q, %v", maxExclude, len(got.Exclude), got.Affinity, err)
	}
	// A count the payload cannot hold is refused before any name is read.
	p := (&ScheduleRequest{Routine: "ep", Exclude: []string{"a"}}).Encode()
	binary.BigEndian.PutUint32(p[len(p)-16:], 4) // count, "a", empty affinity
	if got, err := DecodeScheduleRequest(p); err == nil {
		t.Errorf("4 excludes in room for 3 decoded: %+v", got)
	}
}

func TestScheduleReplyRoundTrip(t *testing.T) {
	m := ScheduleReply{Name: "j90", Addr: "10.0.0.1:3000"}
	got, err := DecodeScheduleReply(m.Encode())
	if err != nil || got != m {
		t.Errorf("got %+v err %v", got, err)
	}
}

func TestObserveRequestRoundTrip(t *testing.T) {
	m := ObserveRequest{Name: "j90", Bytes: 123456, Nanos: 7_000_000_000, Failed: true}
	got, err := DecodeObserveRequest(m.Encode())
	if err != nil || got != m {
		t.Errorf("got %+v err %v", got, err)
	}
}

func TestScheduleDecodeGarbage(t *testing.T) {
	if _, err := DecodeScheduleRequest([]byte{1, 2}); err == nil {
		t.Error("garbage schedule request decoded")
	}
	if _, err := DecodeScheduleReply([]byte{0, 0, 0}); err == nil {
		t.Error("garbage schedule reply decoded")
	}
	if _, err := DecodeObserveRequest(nil); err == nil {
		t.Error("garbage observe request decoded")
	}
}

func TestFloat32AndInt64Args(t *testing.T) {
	info, err := idl.ParseOne(`
Define mix(mode_in int n,
           mode_in float f[n], mode_inout int q[n],
           mode_out float g[n],
           mode_in float scale, mode_out float total)
    Calls "go" mix(n, f, q, g, scale, total);`)
	if err != nil {
		t.Fatal(err)
	}
	n := 3
	f := []float32{1.5, -2, 3.25}
	q := []int64{7, 8, 9}
	args := []idl.Value{int64(n), f, q, nil, float32(2.5), nil}
	p, err := EncodeCallRequest(info, &CallRequest{Name: "mix", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded[1], f) || !reflect.DeepEqual(decoded[2], q) {
		t.Error("float32/int64 arrays corrupted")
	}
	if decoded[4].(float32) != 2.5 {
		t.Errorf("scale = %v", decoded[4])
	}
	g, ok := decoded[3].([]float32)
	if !ok || len(g) != n {
		t.Fatalf("out float array = %#v", decoded[3])
	}
	// Server fills and replies.
	for i := range g {
		g[i] = float32(i)
	}
	decoded[5] = float32(42)
	_, fb, err := EncodeReply(info, Timings{}, decoded, Shape{})
	reply := CopyOut(fb)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeCallReply(info, args, reply)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[3], g) || out[5].(float32) != 42 {
		t.Error("float32 results corrupted")
	}
	if !reflect.DeepEqual(out[2], q) {
		t.Error("inout int64 results corrupted")
	}
}

func TestFloat64ScalarAndFloat32Conversion(t *testing.T) {
	info, err := idl.ParseOne(`Define s(mode_in double x, mode_in float y) Calls "go" s(x, y);`)
	if err != nil {
		t.Fatal(err)
	}
	// float64 accepted for a float param (converted on encode).
	args := []idl.Value{float64(1.25), float64(0.5)}
	p, err := EncodeCallRequest(info, &CallRequest{Name: "s", Args: args})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, _ := DecodeCallName(p)
	decoded, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if decoded[0].(float64) != 1.25 || decoded[1].(float32) != 0.5 {
		t.Errorf("decoded %v %v", decoded[0], decoded[1])
	}
	// Wrong scalar types rejected.
	if _, err := EncodeCallRequest(info, &CallRequest{Name: "s", Args: []idl.Value{"x", float32(1)}}); err == nil {
		t.Error("string for double accepted")
	}
	if _, err := EncodeCallRequest(info, &CallRequest{Name: "s", Args: []idl.Value{1.0, "y"}}); err == nil {
		t.Error("string for float accepted")
	}
}
