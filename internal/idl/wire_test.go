package idl

import (
	"bytes"
	"reflect"
	"testing"

	"ninf/internal/xdr"
)

func TestWireRoundTrip(t *testing.T) {
	for _, src := range []string{dmmulIDL, linpackIDL} {
		infos, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			var buf bytes.Buffer
			if err := Encode(&buf, in); err != nil {
				t.Fatalf("encode %s: %v", in.Name, err)
			}
			back, err := Decode(xdr.NewDecoder(&buf))
			if err != nil {
				t.Fatalf("decode %s: %v", in.Name, err)
			}
			if !reflect.DeepEqual(in, back) {
				t.Errorf("%s: wire round trip changed Info:\n%+v\nvs\n%+v", in.Name, in, back)
			}
		}
	}
}

func TestWireRoundTripPreservesSemantics(t *testing.T) {
	in, err := ParseOne(dmmulIDL)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(xdr.NewDecoder(&buf))
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{int64(37), nil, nil, nil}
	s1, err1 := in.DimSizes(args, nil)
	s2, err2 := back.DimSizes(args, nil)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(s1, s2) {
		t.Errorf("DimSizes diverge after round trip: %v/%v vs %v/%v", s1, err1, s2, err2)
	}
}

func TestDecodeGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0, 0, 99},              // wrong version
		{0, 0, 0, 1, 0, 0, 0, 200}, // version ok, then absurd string length… truncated
	}
	for i, b := range cases {
		if _, err := Decode(xdr.NewDecoder(bytes.NewReader(b))); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
}

func TestDecodeImplausibleCounts(t *testing.T) {
	// Hand-craft a frame with a huge parameter count to hit the
	// plausibility guard rather than OOM.
	var buf bytes.Buffer
	in := &Info{Name: "f", Language: "C", Target: "f"}
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The param count is the last uint32 before the hasComplexity
	// bool: locate it by structure — name "f" (8) + 3 empty strings
	// (12) + lang "C" (8) + target "f" (8) + nTargetArgs (4) = offset
	// 4+8+12+8+8+4 = 44; params count at 44.
	copy(b[44:48], []byte{0xff, 0xff, 0xff, 0xff})
	if _, err := Decode(xdr.NewDecoder(bytes.NewReader(b))); err == nil {
		t.Error("implausible parameter count accepted")
	}
}
