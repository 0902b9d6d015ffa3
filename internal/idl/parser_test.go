package idl

import (
	"errors"
	"strings"
	"testing"
)

// dmmulIDL is the paper's §2.3 example, including the vestigial "long"
// before the first parameter's mode keyword, which we tolerate.
const dmmulIDL = `
Define dmmul(long mode_in int n,
             mode_in double A[n][n],
             mode_in double B[n][n],
             mode_out double C[n][n])
    "dmmul is double precision matrix multiply",
    Required "libxxx.o"
    Calls "C" mmul(n, A, B, C);
`

func TestParseDmmul(t *testing.T) {
	in, err := ParseOne(dmmulIDL)
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "dmmul" {
		t.Errorf("Name = %q", in.Name)
	}
	if in.Description != "dmmul is double precision matrix multiply" {
		t.Errorf("Description = %q", in.Description)
	}
	if in.Required != "libxxx.o" {
		t.Errorf("Required = %q", in.Required)
	}
	if in.Language != "C" || in.Target != "mmul" {
		t.Errorf("Calls = %q %q", in.Language, in.Target)
	}
	if len(in.TargetArgs) != 4 {
		t.Fatalf("TargetArgs = %v", in.TargetArgs)
	}
	if len(in.Params) != 4 {
		t.Fatalf("got %d params", len(in.Params))
	}
	n := in.Params[0]
	if n.Name != "n" || n.Mode != In || n.Type != Int || !n.IsScalar() {
		t.Errorf("param n = %+v", n)
	}
	a := in.Params[1]
	if a.Name != "A" || a.Mode != In || a.Type != Double || len(a.Dims) != 2 {
		t.Errorf("param A = %+v", a)
	}
	c := in.Params[3]
	if c.Mode != Out {
		t.Errorf("param C mode = %v", c.Mode)
	}
}

const linpackIDL = `
# LINPACK LU factor + solve, registered together as in §3.1.
Define dgefa(mode_in int n,
             mode_inout double a[n][n],
             mode_out int ipvt[n])
    "LU decomposition with partial pivoting"
    Complexity 2*n^3/3 + 2*n^2
    Calls "go" dgefa(n, a, ipvt);

Define dgesl(mode_in int n,
             mode_in double a[n][n],
             mode_in int ipvt[n],
             mode_inout double b[n])
    "backward substitution"
    Complexity 2*n^2
    Calls "go" dgesl(n, a, ipvt, b);
`

func TestParseMultipleDefines(t *testing.T) {
	infos, err := Parse(linpackIDL)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("got %d defines", len(infos))
	}
	if infos[0].Name != "dgefa" || infos[1].Name != "dgesl" {
		t.Errorf("names = %q, %q", infos[0].Name, infos[1].Name)
	}
	if infos[0].Complexity == nil {
		t.Fatal("dgefa has no complexity")
	}
	ops, ok := infos[0].PredictedOps([]Value{int64(100), nil, nil})
	if !ok {
		t.Fatal("PredictedOps failed")
	}
	// 2*100^3/3 + 2*100^2 = 666666 + 20000
	if want := int64(2*100*100*100/3 + 2*100*100); ops != want {
		t.Errorf("ops = %d, want %d", ops, want)
	}
}

func TestDimSizesAndTransferBytes(t *testing.T) {
	in, err := ParseOne(dmmulIDL)
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{int64(10), nil, nil, nil}
	sizes, err := in.DimSizes(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 100, 100, 100}
	for i := range want {
		if sizes[i] != want[i] {
			t.Errorf("sizes[%d] = %d, want %d", i, sizes[i], want[i])
		}
	}
	inB, outB, err := in.TransferBytes(args)
	if err != nil {
		t.Fatal(err)
	}
	// in: scalar n (8) + A (800) + B (800); out: C (800).
	if inB != 1608 || outB != 800 {
		t.Errorf("transfer = %d in, %d out", inB, outB)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"empty", "", "no Define"},
		{"not define", "Became dmmul();", "expected 'Define'"},
		{"missing mode", "Define f(int n) Calls \"C\" f(n);", "access mode"},
		{"bad type", "Define f(mode_in quux n) Calls \"C\" f(n);", "element type"},
		{"unterminated string", "Define f(mode_in int n) \"oops\nCalls \"C\" f(n);", "unterminated string"},
		{"no calls", "Define f(mode_in int n)", "expected 'Required'"},
		{"missing semi", `Define f(mode_in int n) Calls "C" f(n)`, "';'"},
		{"bad char", "Define f(mode_in int n) Calls \"C\" f(n)@;", "unexpected character"},
		{"unterminated comment", "/* hi Define f();", "unterminated block comment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("Define f(\n  mode_in quux n) Calls \"C\" f(n);")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %T, want *SyntaxError", err)
	}
	if serr.Line != 2 {
		t.Errorf("line = %d, want 2", serr.Line)
	}
}

func TestCheckRules(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"dup param", `Define f(mode_in int n, mode_in int n) Calls "C" f(n);`},
		{"forward dim ref", `Define f(mode_in double a[n], mode_in int n) Calls "C" f(a, n);`},
		{"out scalar dim ref", `Define f(mode_out int n, mode_in double a[n]) Calls "C" f(n, a);`},
		{"array dim ref", `Define f(mode_in int m, mode_in int v[m], mode_in double a[v]) Calls "C" f(m, v, a);`},
		{"string array", `Define f(mode_in int n, mode_in string s[n]) Calls "C" f(n, s);`},
		{"complexity bad ref", `Define f(mode_in int n) Complexity n*m Calls "C" f(n);`},
		{"calls unknown arg", `Define f(mode_in int n) Calls "C" f(bogus);`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if !errors.Is(err, ErrInvalid) {
				t.Errorf("err = %v, want ErrInvalid", err)
			}
		})
	}
}

func TestCheckInvalidModeType(t *testing.T) {
	in := &Info{Name: "f", Target: "f", Params: []Param{{Name: "x", Mode: Mode(9), Type: Int}}}
	if err := Check(in); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad mode: err = %v", err)
	}
	in = &Info{Name: "f", Target: "f", Params: []Param{{Name: "x", Mode: In, Type: Type(9)}}}
	if err := Check(in); !errors.Is(err, ErrInvalid) {
		t.Errorf("bad type: err = %v", err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, src := range []string{dmmulIDL, linpackIDL} {
		infos, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range infos {
			re, err := ParseOne(in.String())
			if err != nil {
				t.Fatalf("reparse %s: %v\nsource:\n%s", in.Name, err, in.String())
			}
			if re.String() != in.String() {
				t.Errorf("String round trip changed:\n%s\nvs\n%s", in.String(), re.String())
			}
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	src := `
// line comment
# hash comment
/* block
   comment */
Define f(mode_in int n /* inline */, mode_out double v[n]) // trailing
    Calls "go" f(n, v);
`
	in, err := ParseOne(src)
	if err != nil {
		t.Fatal(err)
	}
	if in.Name != "f" || len(in.Params) != 2 {
		t.Errorf("parsed %+v", in)
	}
}

func TestScalarOnlySignature(t *testing.T) {
	in, err := ParseOne(`Define ep(mode_in int m, mode_out double sx, mode_out double sy, mode_out int q[10]) Complexity 2^(m+1) Calls "go" ep(m, sx, sy, q);`)
	if err != nil {
		t.Fatal(err)
	}
	ops, ok := in.PredictedOps([]Value{int64(24), nil, nil, nil})
	if !ok || ops != 1<<25 {
		t.Errorf("ops = %d, ok=%v, want %d", ops, ok, 1<<25)
	}
	sizes, err := in.DimSizes([]Value{int64(24), nil, nil, nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sizes[3] != 10 {
		t.Errorf("fixed dim = %d", sizes[3])
	}
}

func TestNegativeDimension(t *testing.T) {
	in, err := ParseOne(`Define f(mode_in int n, mode_in double a[n-10]) Calls "C" f(n, a);`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.DimSizes([]Value{int64(5), nil}, nil); err == nil {
		t.Error("negative dimension not rejected")
	}
}

// TestDimSizesOverflow: a dimension past int is an error, not a
// wrapped count (2^32 · 2^32 wraps to 0), whether the product spans
// dimensions or sits inside one expression.
func TestDimSizesOverflow(t *testing.T) {
	for _, dims := range []string{"[n][n]", "[n*n]", "[n^2]"} {
		in, err := ParseOne(`Define f(mode_in int n, mode_out double c` + dims + `) Calls "C" f(n, c);`)
		if err != nil {
			t.Fatal(err)
		}
		if sizes, err := in.DimSizes([]Value{int64(1) << 32, nil}, nil); err == nil {
			t.Errorf("c%s: overflowing dimensions accepted: %v", dims, sizes)
		}
		if sizes, err := in.DimSizes([]Value{int64(1) << 31, nil}, nil); err != nil || sizes[1] != 1<<62 {
			t.Errorf("c%s: sizes = %v, %v; want [1 %d]", dims, sizes, err, 1<<62)
		}
	}
	in, err := ParseOne(`Define f(mode_in int n) Complexity 2*n^3 Calls "C" f(n);`)
	if err != nil {
		t.Fatal(err)
	}
	if ops, ok := in.PredictedOps([]Value{int64(1) << 21}); ok {
		t.Errorf("2*n^3 at n=2^21 predicted %d ops, want no prediction", ops)
	}
}

// TestDimSizesFillsStorage: counts land in the caller's storage when it
// has room, so a caller's stack array keeps them off the heap.
func TestDimSizesFillsStorage(t *testing.T) {
	in, err := ParseOne(dmmulIDL)
	if err != nil {
		t.Fatal(err)
	}
	args := []Value{int64(10), nil, nil, nil}
	var few [8]int
	sizes, err := in.DimSizes(args, few[:0])
	if err != nil || &sizes[0] != &few[0] || sizes[3] != 100 {
		t.Fatalf("sizes = %v, %v: not filled into the caller's storage", sizes, err)
	}
}

func TestStringEscapesRoundTrip(t *testing.T) {
	// Descriptions may contain arbitrary bytes; String() quotes them
	// with Go escapes and the lexer must read them all back (found by
	// FuzzParse).
	weird := "tab\t nl\n cr\r vt\v bell\a quote\" back\\ nul\x00 high\xff é"
	in := &Info{
		Name: "f", Language: "C", Target: "f",
		Description: weird,
		Params:      []Param{{Name: "n", Mode: In, Type: Int}},
	}
	if err := Check(in); err != nil {
		t.Fatal(err)
	}
	re, err := ParseOne(in.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, in.String())
	}
	if re.Description != weird {
		t.Errorf("description changed: %q vs %q", re.Description, weird)
	}
}

func TestLexerEscapeErrors(t *testing.T) {
	for _, src := range []string{
		`Define f(mode_in int n) "\q" Calls "C" f(n);`,
		`Define f(mode_in int n) "\xZZ" Calls "C" f(n);`,
		`Define f(mode_in int n) "\u12" Calls "C" f(n);`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("bad escape accepted: %s", src)
		}
	}
}
