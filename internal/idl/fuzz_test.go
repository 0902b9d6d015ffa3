package idl

import (
	"bytes"
	"testing"

	"ninf/internal/xdr"
)

// FuzzParse checks the parser never panics and that anything it
// accepts survives String→reparse and wire round trips.
func FuzzParse(f *testing.F) {
	f.Add(dmmulIDL)
	f.Add(linpackIDL)
	f.Add(`Define f(mode_in int n) Calls "C" f(n);`)
	f.Add(`Define f(mode_in int n, mode_out double v[n*n+2]) Complexity 2^n Calls "go" f(n, v);`)
	f.Add(`Define f() Calls "x" f();`)
	f.Add("Define f(mode_in int n) /* unterminated")
	f.Add("Define f(mode_in int \xff) Calls \"C\" f();")
	f.Add(`Define 日本(mode_in int n) Calls "C" 日本(n);`)
	f.Fuzz(func(t *testing.T, src string) {
		infos, err := Parse(src)
		if err != nil {
			return
		}
		for _, in := range infos {
			// Accepted IDL must reparse from its String form…
			re, err := ParseOne(in.String())
			if err != nil {
				t.Fatalf("String() does not reparse: %v\n%s", err, in.String())
			}
			if re.Name != in.Name || len(re.Params) != len(in.Params) {
				t.Fatalf("reparse changed interface: %v vs %v", re, in)
			}
			// …and round-trip the wire form.
			var buf bytes.Buffer
			if err := Encode(&buf, in); err != nil {
				t.Fatalf("encode: %v", err)
			}
			if _, err := Decode(xdr.NewDecoder(&buf)); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
	})
}

// FuzzDecode checks the wire decoder never panics on arbitrary bytes.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	info, _ := ParseOne(dmmulIDL)
	_ = Encode(&buf, info)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Decode(xdr.NewDecoder(bytes.NewReader(data)))
		if err == nil && info.Name == "" {
			t.Fatal("decoder accepted an interface with no name")
		}
	})
}
