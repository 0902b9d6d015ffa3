package protocol

import (
	"fmt"
	"strings"
	"testing"

	"ninf/internal/idl"
	"ninf/internal/xdr"
)

// wideInfo is a routine with n out-arrays of m doubles each, so a
// reply's encode and decode walk n parameters.
func wideInfo(t *testing.T, n int) *idl.Info {
	var decl, call strings.Builder
	for i := range n {
		fmt.Fprintf(&decl, ", mode_out double c%d[m]", i)
		fmt.Fprintf(&call, ", c%d", i)
	}
	info, err := idl.ParseOne(fmt.Sprintf(`Define wide(mode_in int m%s) Calls "go" wide(m%s);`, decl.String(), call.String()))
	if err != nil {
		t.Fatal(err)
	}
	return info
}

// wideReply returns the argument vector of a wide call of m-element
// arrays, results filled in.
func wideReply(info *idl.Info, m int) []idl.Value {
	args := []idl.Value{int64(m)}
	for range info.Params[1:] {
		args = append(args, make([]float64, m))
	}
	return args
}

// TestLoopAllocsFlat drives each loop of the argument codec over n and
// 8n units — parameters of a message, or elements of an array — and
// holds the allocations at 8n to those at n plus 3: whatever a loop
// body allocates shows up 7n times over, while per-message bookkeeping
// (a message of more than 8 parameters takes its tables off the stack)
// stays within the slack.
func TestLoopAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random; the counts assume they are kept")
	}
	vec := wideInfo(t, 1)
	arr := &vec.Params[1] // one double[m]
	rows := []struct {
		name string
		at   func(n int) func()
	}{
		{"encodeMessage", func(n int) func() {
			info := wideInfo(t, n)
			args := wideReply(info, 4)
			_, fb, err := EncodeReply(info, Timings{}, args, Shape{})
			if err != nil {
				t.Fatal(err)
			}
			fb.Release()
			return func() {
				_, fb, _ := EncodeReply(info, Timings{}, args, Shape{})
				fb.Release()
			}
		}},
		{"decodeCallReply", func(n int) func() {
			info := wideInfo(t, n)
			args := wideReply(info, 4)
			_, fb, err := EncodeReply(info, Timings{}, args, Shape{})
			if err != nil {
				t.Fatal(err)
			}
			payload := CopyOut(fb)
			dst := make([]any, len(args))
			for i := range dst[1:] {
				dst[i+1] = args[i+1]
			}
			callArgs := []idl.Value{int64(4)}
			callArgs = append(callArgs, make([]idl.Value, n)...)
			if _, _, err := decodeCallReply(info, callArgs, dst, payload, nil); err != nil {
				t.Fatal(err)
			}
			return func() { decodeCallReply(info, callArgs, dst, payload, nil) }
		}},
		{"encodeArg", func(n int) func() {
			v := make([]float64, n)
			return func() {
				fb := AcquireBuffer(4 + 8*n)
				encodeArg(fb.Encoder(), arr, n, v)
				fb.Release()
			}
		}},
		{"decodeArg", func(n int) func() {
			fb := AcquireBuffer(4 + 8*n)
			encodeArg(fb.Encoder(), arr, n, make([]float64, n))
			payload := CopyOut(fb)
			var d xdr.Decoder
			d.ResetBytes(payload)
			if _, err := decodeArg(&d, arr, n, nil, nil); err != nil {
				t.Fatal(err)
			}
			return func() {
				d.ResetBytes(payload)
				decodeArg(&d, arr, n, nil, nil)
			}
		}},
		{"fillRaw", func(n int) func() { // the foreign order: the swapping loop
			dst, src := make([]byte, 8*n), make([]byte, 8*n)
			return func() { fillRaw(dst, src, !hostLittle, 8) }
		}},
	}
	const n = 16
	for _, r := range rows {
		small := testing.AllocsPerRun(20, r.at(n))
		large := testing.AllocsPerRun(20, r.at(8*n))
		t.Logf("%s: %.1f allocations at n = %d, %.1f at %d", r.name, small, n, large, 8*n)
		if large > small+3 {
			t.Errorf("%s: %.1f allocations at n = %d, %.1f at %d: the loop allocates per unit", r.name, small, n, large, 8*n)
		}
	}
}
