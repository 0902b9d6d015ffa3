package idl

import (
	"bytes"
	"testing"

	"ninf/internal/xdr"
)

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(dmmulIDL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireEncodeDecode(b *testing.B) {
	info, err := ParseOne(dmmulIDL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Encode(&buf, info); err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(xdr.NewDecoder(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExprEval(b *testing.B) {
	infos, err := Parse(linpackIDL) // dgefa(n, a, ipvt) first
	if err != nil {
		b.Fatal(err)
	}
	info, args := infos[0], []Value{int64(1400), nil, nil}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := info.PredictedOps(args); !ok {
			b.Fatal("no prediction")
		}
	}
}
