package library

import (
	"context"
	"math"
	"reflect"
	"testing"

	"ninf/internal/ep"
	"ninf/internal/idl"
	"ninf/internal/linpack"
	"ninf/internal/protocol"
)

func TestRegisterAll(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"dgefa", "dgesl", "linsolve", "linsolve_blocked", "dmmul", "ep", "dos", "echo", "busy"}
	got := reg.Names()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
	for _, n := range want {
		ex := reg.Lookup(n)
		if ex == nil || ex.Info == nil || ex.Handler == nil {
			t.Errorf("%s: incomplete executable", n)
		}
	}
}

// invoke mimics the server's argument path: encode a call against the
// IDL, decode it (allocating out args), run the handler, and return
// the argument vector.
func invoke(t *testing.T, name string, args ...idl.Value) []idl.Value {
	t.Helper()
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ex := reg.Lookup(name)
	if ex == nil {
		t.Fatalf("no routine %q", name)
	}
	p, err := protocol.EncodeCallRequest(ex.Info, &protocol.CallRequest{Name: name, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	_, rest, err := protocol.DecodeCallName(p)
	if err != nil {
		t.Fatal(err)
	}
	decoded, _, err := protocol.DecodeCallArgsPooled(ex.Info, rest, nil, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Handler(context.Background(), decoded); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return decoded
}

func TestDgefaDgeslHandlers(t *testing.T) {
	n := 24
	a := make([]float64, n*n)
	b := linpack.Matgen(a, n)
	orig := append([]float64(nil), a...)

	out := invoke(t, "dgefa", int64(n), a, nil)
	fact := out[1].([]float64)
	ipvt := out[2].([]int64)

	out = invoke(t, "dgesl", int64(n), fact, ipvt, append([]float64(nil), b...))
	x := out[3].([]float64)
	if r := linpack.Residual(orig, n, x, b); r > 10 {
		t.Errorf("residual %g", r)
	}
}

func TestLinsolveHandlersAgree(t *testing.T) {
	n := 32
	a := make([]float64, n*n)
	b := linpack.Matgen(a, n)
	plain := invoke(t, "linsolve", int64(n), a, append([]float64(nil), b...))[2].([]float64)
	blocked := invoke(t, "linsolve_blocked", int64(n), a, append([]float64(nil), b...))[2].([]float64)
	for i := range plain {
		if math.Abs(plain[i]-blocked[i]) > 1e-9 {
			t.Fatalf("solutions diverge at %d: %g vs %g", i, plain[i], blocked[i])
		}
	}
}

func TestEPHandlerMatchesKernel(t *testing.T) {
	m := 10
	out := invoke(t, "ep", int64(m), int64(0), int64(1)<<m, nil, nil, nil, nil)
	want, err := ep.Run(m)
	if err != nil {
		t.Fatal(err)
	}
	if out[3].(float64) != want.SumX || out[5].(int64) != want.Pairs {
		t.Errorf("handler EP = %v/%v, want %v/%v", out[3], out[5], want.SumX, want.Pairs)
	}
	counts := out[6].([]int64)
	for i := range counts {
		if counts[i] != want.Counts[i] {
			t.Errorf("count[%d] = %d, want %d", i, counts[i], want.Counts[i])
		}
	}
}

func TestEchoAndDosHandlers(t *testing.T) {
	data := []float64{1, 2.5, -3}
	out := invoke(t, "echo", int64(3), data, nil)
	if !reflect.DeepEqual(out[2], data) {
		t.Errorf("echo = %v", out[2])
	}

	out = invoke(t, "dos", int64(10), int64(8), nil)
	hist := out[2].([]float64)
	sum := 0.0
	for _, v := range hist {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("dos histogram integral %g", sum)
	}
}

func TestBusyHandler(t *testing.T) {
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	ex := reg.Lookup("busy")
	if err := ex.Handler(context.Background(), []idl.Value{int64(1)}); err != nil {
		t.Errorf("busy(1): %v", err)
	}
	if err := ex.Handler(context.Background(), []idl.Value{int64(-1)}); err == nil {
		t.Error("busy(-1) accepted")
	}
	// Cancellation interrupts the spin.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ex.Handler(ctx, []idl.Value{int64(10_000)}); err == nil {
		t.Error("cancelled busy returned nil")
	}
}

func TestComplexityClausesPresent(t *testing.T) {
	// SJF needs Complexity on the compute routines.
	reg, err := NewRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"dgefa", "dgesl", "linsolve", "dmmul", "ep", "busy"} {
		info := reg.Lookup(name).Info
		if info.Complexity == nil {
			t.Errorf("%s: no Complexity clause", name)
		}
	}
	// And the values must scale correctly.
	info := reg.Lookup("linsolve").Info
	ops, ok := info.PredictedOps([]idl.Value{int64(600), nil, nil})
	if !ok {
		t.Fatal("no prediction")
	}
	if want := int64(2*600*600*600/3 + 2*600*600); ops != want {
		t.Errorf("linsolve ops(600) = %d, want %d", ops, want)
	}
}
