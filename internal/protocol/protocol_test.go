package protocol

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"ninf/internal/idl"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello ninf")
	if err := WriteFrame(&buf, MsgCall, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if typ != MsgCall || !bytes.Equal(got, payload) {
		t.Errorf("got %v %q", typ, got)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf, 0)
	if err != nil || typ != MsgPing || len(got) != 0 {
		t.Errorf("got %v %v %v", typ, got, err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Clean EOF between frames.
	_, _, err := ReadFrame(bytes.NewReader(nil), 0)
	if err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}

	// Bad magic.
	_, _, err = ReadFrame(bytes.NewReader(make([]byte, 16)), 0)
	if !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: %v", err)
	}

	// Bad version.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgPing, nil); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[7] = 99
	_, _, err = ReadFrame(bytes.NewReader(b), 0)
	if !errors.Is(err, ErrBadVersion) {
		t.Errorf("bad version: %v", err)
	}

	// Oversized payload length.
	buf.Reset()
	if err := WriteFrame(&buf, MsgCall, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFrame(bytes.NewReader(buf.Bytes()), 50)
	if !errors.Is(err, ErrOversized) {
		t.Errorf("oversized: %v", err)
	}

	// Truncated payload.
	buf.Reset()
	if err := WriteFrame(&buf, MsgCall, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadFrame(bytes.NewReader(buf.Bytes()[:18]), 0)
	if err == nil {
		t.Error("truncated payload not detected")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{MsgError, MsgPing, MsgPong, MsgList, MsgListReply,
		MsgInterface, MsgInterfaceOK, MsgCall, MsgCallOK, MsgSubmit, MsgSubmitOK,
		MsgFetch, MsgFetchOK, MsgStats, MsgStatsOK} {
		if s := typ.String(); strings.HasPrefix(s, "MsgType(") {
			t.Errorf("missing name for %d", uint32(typ))
		}
	}
	if s := MsgType(999).String(); !strings.HasPrefix(s, "MsgType(") {
		t.Errorf("unknown type string %q", s)
	}
}

const dmmulIDL = `
Define dmmul(mode_in int n,
             mode_in double A[n][n], mode_in double B[n][n],
             mode_out double C[n][n])
    "matrix multiply" Complexity 2*n^3
    Calls "go" dmmul(n, A, B, C);
`

func dmmulInfo(t testing.TB) *idl.Info {
	t.Helper()
	info, err := idl.ParseOne(dmmulIDL)
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestCallRequestRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 3
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i) * 2
	}
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), a, b, nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}

	name, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	if name != "dmmul" {
		t.Errorf("name = %q", name)
	}
	args, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := args[0].(int64); got != 3 {
		t.Errorf("n = %d", got)
	}
	if !reflect.DeepEqual(args[1], a) || !reflect.DeepEqual(args[2], b) {
		t.Error("array arguments corrupted")
	}
	// Out-only C must be allocated and zeroed with the right size.
	c, ok := args[3].([]float64)
	if !ok || len(c) != n*n {
		t.Fatalf("out arg C = %T len %d", args[3], len(c))
	}
	for _, v := range c {
		if v != 0 {
			t.Fatal("out arg not zeroed")
		}
	}
}

func TestCallReplyRoundTrip(t *testing.T) {
	info := dmmulInfo(t)
	n := 2
	callArgs := []idl.Value{int64(n), make([]float64, 4), make([]float64, 4), nil}
	c := []float64{1, 2, 3, 4}
	serverArgs := []idl.Value{int64(n), make([]float64, 4), make([]float64, 4), c}
	want := Timings{Enqueue: 10, Dequeue: 20, Complete: 30}
	_, fb, err := EncodeReply(info, want, serverArgs, Shape{})
	p := CopyOut(fb)
	if err != nil {
		t.Fatal(err)
	}
	tm, out, err := DecodeCallReply(info, callArgs, p)
	if err != nil {
		t.Fatal(err)
	}
	if tm != want {
		t.Errorf("timings = %+v", tm)
	}
	if !reflect.DeepEqual(out[3], c) {
		t.Errorf("C = %v", out[3])
	}
	if out[0] != nil || out[1] != nil {
		t.Error("in-only args unexpectedly present in reply")
	}
}

func TestInoutShipsBothWays(t *testing.T) {
	info, err := idl.ParseOne(`Define dgefa(mode_in int n, mode_inout double a[n][n], mode_out int ipvt[n]) Calls "go" dgefa(n, a, ipvt);`)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	a := []float64{4, 3, 6, 3}
	req := &CallRequest{Name: "dgefa", Args: []idl.Value{int64(n), a, nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	args, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(args[1], a) {
		t.Error("inout did not ship in")
	}
	if ip, ok := args[2].([]int64); !ok || len(ip) != n {
		t.Errorf("ipvt = %#v", args[2])
	}

	// Server mutates and replies; the inout value must come back.
	args[1].([]float64)[0] = 99
	args[2].([]int64)[0] = 1
	_, fb, err := EncodeReply(info, Timings{}, args, Shape{})
	reply := CopyOut(fb)
	if err != nil {
		t.Fatal(err)
	}
	_, out, err := DecodeCallReply(info, req.Args, reply)
	if err != nil {
		t.Fatal(err)
	}
	if out[1].([]float64)[0] != 99 {
		t.Error("inout did not ship back")
	}
	if out[2].([]int64)[0] != 1 {
		t.Error("out did not ship back")
	}
}

func TestEncodeCallRequestErrors(t *testing.T) {
	info := dmmulInfo(t)
	// Wrong arg count.
	if _, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul", Args: []idl.Value{int64(2)}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Wrong array size vs dims.
	if _, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul",
		Args: []idl.Value{int64(3), make([]float64, 4), make([]float64, 9), nil}}); err == nil {
		t.Error("size mismatch accepted")
	}
	// Wrong type.
	if _, err := EncodeCallRequest(info, &CallRequest{Name: "dmmul",
		Args: []idl.Value{"three", make([]float64, 9), make([]float64, 9), nil}}); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestDecodeCallArgsCorrupt(t *testing.T) {
	info := dmmulInfo(t)
	n := 2
	req := &CallRequest{Name: "dmmul", Args: []idl.Value{int64(n), make([]float64, 4), make([]float64, 4), nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-arguments.
	if _, _, err := DecodeCallArgsPooled(info, rest[:len(rest)-6], nil, nil, nil, 0); err == nil {
		t.Error("truncated args decoded")
	}
}

func TestErrorReplyRoundTrip(t *testing.T) {
	p := EncodeErrorReply(CodeUnknownRoutine, "no such routine", 0)
	er, err := DecodeErrorReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if er.Code != CodeUnknownRoutine || er.Detail != "no such routine" {
		t.Errorf("got %+v", er)
	}
	re := &RemoteError{Code: er.Code, Detail: er.Detail}
	if !strings.Contains(re.Error(), "no such routine") {
		t.Errorf("RemoteError text %q", re.Error())
	}
}

func TestInterfaceMessages(t *testing.T) {
	req := InterfaceRequest{Name: "dmmul"}
	got, err := DecodeInterfaceRequest(req.Encode())
	if err != nil || got.Name != "dmmul" {
		t.Errorf("got %+v err %v", got, err)
	}

	info := dmmulInfo(t)
	p, err := EncodeInterfaceReply(info)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeInterfaceReply(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != info.Name || len(back.Params) != len(info.Params) {
		t.Errorf("interface mangled: %+v", back)
	}
}

func TestListReplyRoundTrip(t *testing.T) {
	m := ListReply{Names: []string{"dgefa", "dgesl", "ep"}}
	got, err := DecodeListReply(m.Encode())
	if err != nil || !reflect.DeepEqual(got.Names, m.Names) {
		t.Errorf("got %+v err %v", got, err)
	}
	empty := ListReply{}
	got, err = DecodeListReply(empty.Encode())
	if err != nil || len(got.Names) != 0 {
		t.Errorf("empty: %+v err %v", got, err)
	}
}

func TestSubmitFetchStats(t *testing.T) {
	sr := SubmitReply{JobID: 42}
	gotSR, err := DecodeSubmitReply(sr.Encode())
	if err != nil || gotSR != sr {
		t.Errorf("submit: %+v err %v", gotSR, err)
	}

	fr := FetchRequest{JobID: 42, Wait: true}
	gotFR, err := DecodeFetchRequest(fr.Encode())
	if err != nil || gotFR != fr {
		t.Errorf("fetch: %+v err %v", gotFR, err)
	}

	st := Stats{Hostname: "j90.etl", PEs: 4, Running: 2, Queued: 7, TotalCalls: 100, LoadAverage: 3.5, CPUUtil: 0.92}
	gotST, err := DecodeStats(st.Encode())
	if err != nil || gotST != st {
		t.Errorf("stats: %+v err %v", gotST, err)
	}
}

func TestStringScalarParam(t *testing.T) {
	info, err := idl.ParseOne(`Define tag(mode_in string label, mode_in int n, mode_out double v[n]) Calls "go" tag(label, n, v);`)
	if err != nil {
		t.Fatal(err)
	}
	req := &CallRequest{Name: "tag", Args: []idl.Value{"hello", int64(4), nil}}
	p, err := EncodeCallRequest(info, req)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	args, _, err := DecodeCallArgsPooled(info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if args[0].(string) != "hello" {
		t.Errorf("label = %v", args[0])
	}
	if v := args[2].([]float64); len(v) != 4 {
		t.Errorf("out len = %d", len(v))
	}
}
