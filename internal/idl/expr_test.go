package idl

import (
	"errors"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// mustExpr parses src as the Complexity clause of f(n, m, k), so its
// references resolve to positions 0, 1 and 2 of the argument vector.
func mustExpr(t *testing.T, src string) Expr {
	t.Helper()
	in, err := ParseOne(`Define f(mode_in int n, mode_in int m, mode_in int k) Complexity ` + src + ` Calls "C" f(n, m, k);`)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return in.Complexity
}

func TestExprEval(t *testing.T) {
	args := []Value{int64(10), 3, 2.0}
	cases := []struct {
		src  string
		want int64
	}{
		{"1", 1},
		{"n", 10},
		{"n+1", 11},
		{"n*n", 100},
		{"2*n^3/3 + 2*n^2", 866},
		{"(n+m)*2", 26},
		{"n-m*2", 4},
		{"n%m", 1},
		{"-n+20", 10},
		{"2^10", 1024},
		{"n/m", 3},
		{"8*n^2 + 20*n", 1000},
		{"k*m", 6},
	}
	for _, tc := range cases {
		got, err := mustExpr(t, tc.src).Eval(args)
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q = %d, want %d", tc.src, got, tc.want)
		}
	}
}

func TestExprErrors(t *testing.T) {
	args := []Value{int64(10), nil, "x"}
	for _, tc := range []struct {
		e    Expr
		want error
	}{
		{Ref{Name: "x", Index: 3}, ErrUnboundRef},
		{Ref{Name: "x", Index: -1}, ErrUnboundRef},
		{Ref{Name: "k", Index: 2}, ErrUnboundRef},
		{mustExpr(t, "n/0"), ErrDivByZero},
		{mustExpr(t, "n%0"), ErrDivByZero},
	} {
		if _, err := tc.e.Eval(args); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.e, err, tc.want)
		}
	}
	if _, err := mustExpr(t, "m+1").Eval(args); err == nil || !strings.Contains(err.Error(), "is nil") {
		t.Errorf("nil argument: %v", err)
	}
	if _, err := mustExpr(t, "2^(0-1)").Eval(args); err == nil {
		t.Error("negative exponent accepted")
	}
}

// TestExprOverflowQuick checks +, -, * and ^ on int64 operands against
// exact arithmetic: the value when it fits, ErrOverflow when it does
// not, so a wrapped result can never pass for a small dimension or a
// cheap call.
func TestExprOverflowQuick(t *testing.T) {
	ops := []Op{OpAdd, OpSub, OpMul, OpPow}
	f := func(a, b int64, pick uint8) bool {
		op := ops[pick%4]
		x, y := big.NewInt(a), big.NewInt(b)
		want := new(big.Int)
		switch op {
		case OpAdd:
			want.Add(x, y)
		case OpSub:
			want.Sub(x, y)
		case OpMul:
			want.Mul(x, y)
		case OpPow:
			b = int64(uint64(b) % 64)
			want.Exp(x, big.NewInt(b), nil)
		}
		v, err := (&BinOp{Op: op, L: Num(a), R: Num(b)}).Eval(nil)
		if want.IsInt64() {
			return err == nil && v == want.Int64()
		}
		return errors.Is(err, ErrOverflow)
	}
	edges := []int64{0, 1, -1, 2, -2, 3, 62, 63, math.MaxInt64, math.MinInt64, 1 << 32, -1 << 32, 1 << 21}
	for _, a := range edges {
		for _, b := range edges {
			for pick := range uint8(4) {
				if !f(a, b, pick) {
					t.Errorf("%d %c %d disagrees with exact arithmetic", a, ops[pick], b)
				}
			}
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExprStringReparse(t *testing.T) {
	srcs := []string{
		"2*n^3/3 + 2*n^2",
		"8*n^2 + 20*n",
		"(n+m)*(n-m)",
		"n-(m-1)",
		"n/m/2",
		"n-m-1",
		"2^n",
	}
	args := []Value{int64(7), int64(2)}
	for _, src := range srcs {
		e := mustExpr(t, src)
		re := mustExpr(t, e.String())
		v1, err1 := e.Eval(args)
		v2, err2 := re.Eval(args)
		if err1 != nil || err2 != nil || v1 != v2 {
			t.Errorf("%q → %q: %d/%v vs %d/%v", src, e.String(), v1, err1, v2, err2)
		}
	}
}

// TestRefs: the parser resolves each name to its parameter's position.
func TestRefs(t *testing.T) {
	got := mustExpr(t, "n*m + n*2 + k").refs(nil)
	want := []Ref{{"n", 0}, {"m", 1}, {"n", 0}, {"k", 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("refs = %v, want %v", got, want)
	}
}

// randomExpr builds a random expression over the given names for
// property testing of compile/decompile.
func randomExpr(r *rand.Rand, names []string, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		if r.Intn(2) == 0 {
			return Num(r.Int63n(1000))
		}
		i := r.Intn(len(names))
		return Ref{Name: names[i], Index: i}
	}
	ops := []Op{OpAdd, OpSub, OpMul, OpDiv, OpMod, OpPow}
	return &BinOp{
		Op: ops[r.Intn(len(ops))],
		L:  randomExpr(r, names, depth-1),
		R:  randomExpr(r, names, depth-1),
	}
}

func TestCompileDecompileProperty(t *testing.T) {
	names := []string{"n", "m", "k"}
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		e := randomExpr(r, names, 4)
		code, err := CompileExpr(e)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		back, err := DecompileExpr(code, names)
		if err != nil {
			t.Fatalf("decompile %s: %v", e, err)
		}
		if !reflect.DeepEqual(e, back) {
			t.Fatalf("round trip changed tree: %s vs %s", e, back)
		}
	}
}

func TestDecompileMalformed(t *testing.T) {
	cases := [][]byte{
		{opAdd},                 // stack underflow
		{opPushConst, 1, 2},     // truncated constant
		{opPushArg, 0, 0, 0, 9}, // arg index out of range
		{0x7f},                  // unknown opcode
		{},                      // empty program
		{opPushConst, 0, 0, 0, 0, 0, 0, 0, 1, opPushConst, 0, 0, 0, 0, 0, 0, 0, 2}, // 2 values left
	}
	for i, code := range cases {
		if _, err := DecompileExpr(code, []string{"n"}); err == nil {
			t.Errorf("case %d: malformed bytecode accepted", i)
		}
	}
}

func TestCompileUnboundRef(t *testing.T) {
	if _, err := CompileExpr(Ref{Name: "zz", Index: -1}); !errors.Is(err, ErrUnboundRef) {
		t.Errorf("err = %v", err)
	}
}
