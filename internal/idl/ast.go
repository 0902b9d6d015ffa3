// Package idl implements the Ninf Interface Description Language.
//
// Ninf executables are registered on a computational server together
// with an IDL description of their calling interface, for example:
//
//	Define dmmul(mode_in int n,
//	             mode_in double A[n][n], mode_in double B[n][n],
//	             mode_out double C[n][n])
//	    "dmmul is double precision matrix multiply"
//	    Required "libxxx.o"
//	    Complexity 2*n*n*n
//	    Calls "C" mmul(n, A, B, C);
//
// The package provides the lexer and parser for this language, semantic
// checking, and a compiled form (Info) whose array-dimension expressions
// are lowered to a small stack-machine bytecode. That bytecode is the
// "interpretable code" of the paper's two-stage RPC: the server ships it
// to the client at call time, and the client interprets it to marshal
// arguments without any client-side stub generation, header files or
// linking.
//
// The optional Complexity clause declares the operation count of the
// routine as a function of its scalar inputs (the facility the paper
// credits to NetSolve in §6 and proposes for SJF scheduling in §5.2).
package idl

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Mode is an argument access mode.
type Mode int

// Argument access modes. In arguments are shipped client→server, Out
// arguments server→client, and InOut both ways.
const (
	In Mode = iota
	Out
	InOut
)

// String returns the IDL spelling of the mode.
func (m Mode) String() string {
	switch m {
	case In:
		return "mode_in"
	case Out:
		return "mode_out"
	case InOut:
		return "mode_inout"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Ships reports whether data moves in the given direction for this mode.
func (m Mode) Ships(out bool) bool {
	if out {
		return m == Out || m == InOut
	}
	return m == In || m == InOut
}

// Type is an IDL element type.
type Type int

// Element types supported by Ninf RPC.
const (
	Int Type = iota // 64-bit signed integer on the wire
	Double
	Float
	String
)

// String returns the IDL spelling of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Double:
		return "double"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// WireSize reports the encoded size in bytes of one element of the type.
// Strings report 0 because their size is data-dependent.
func (t Type) WireSize() int {
	switch t {
	case Int, Double:
		return 8
	case Float:
		return 4
	default:
		return 0
	}
}

// A Param describes one formal parameter of a Ninf executable.
type Param struct {
	Name string
	Mode Mode
	Type Type
	// Dims holds one expression per array dimension, outermost first.
	// A scalar parameter has no dims. Expressions may reference any
	// mode_in scalar parameter declared earlier in the signature.
	Dims []Expr
}

// IsScalar reports whether the parameter is a scalar.
func (p *Param) IsScalar() bool { return len(p.Dims) == 0 }

// Count multiplies out the parameter's dimensions against a call's
// positional arguments: 1 for a scalar, an error for a negative
// dimension or a product that overflows int (a wrapped product could
// come out small, even 0). Only the earlier scalars its dimensions
// reference need be filled in.
func (p *Param) Count(args []Value) (int, error) {
	count := int64(1)
	for _, d := range p.Dims {
		n, err := d.Eval(args)
		if err != nil {
			return 0, err
		}
		if n < 0 {
			return 0, fmt.Errorf("negative (%d)", n)
		}
		if n != 0 && count > math.MaxInt/n {
			return 0, errors.New("element count overflows")
		}
		count *= n
	}
	return int(count), nil
}

// String returns the IDL spelling of the parameter.
func (p *Param) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s", p.Mode, p.Type, p.Name)
	for _, d := range p.Dims {
		fmt.Fprintf(&b, "[%s]", d)
	}
	return b.String()
}

// An Info is the compiled interface of one Ninf executable: everything
// a client needs to marshal a call and everything a scheduler needs to
// predict its cost. Info is what the server returns in the first stage
// of the two-stage RPC.
type Info struct {
	Name        string
	Description string
	Required    string // module needed at link time, informational
	Language    string // implementation language named in the Calls clause
	Target      string // local routine the server invokes
	TargetArgs  []string
	Params      []Param
	// Complexity is the declared operation count as a function of the
	// scalar in-arguments; nil when the IDL omits the clause.
	Complexity Expr
}

// ParamIndex returns the position of the named parameter, or -1.
func (in *Info) ParamIndex(name string) int {
	for i := range in.Params {
		if in.Params[i].Name == name {
			return i
		}
	}
	return -1
}

// DimSizes evaluates every dimension expression of every parameter
// against the scalar arguments of a call and returns, per parameter,
// the total element count (product of dims; 1 for scalars). The counts
// go into counts' storage when it has room for every parameter, so a
// caller can keep them off the heap; pass nil to have them allocated.
func (in *Info) DimSizes(args []Value, counts []int) ([]int, error) {
	if cap(counts) < len(in.Params) {
		counts = make([]int, len(in.Params))
	}
	counts = counts[:len(in.Params)]
	for i := range in.Params {
		var err error
		if counts[i], err = in.Params[i].Count(args); err != nil {
			return nil, fmt.Errorf("idl: %s: dimension of %q: %w", in.Name, in.Params[i].Name, err)
		}
	}
	return counts, nil
}

// PredictedOps evaluates the Complexity clause for a call. It returns
// 0, false when the IDL declares no complexity or the clause cannot be
// evaluated: a missing argument, a negative count, an overflow.
func (in *Info) PredictedOps(args []Value) (int64, bool) {
	if in.Complexity == nil {
		return 0, false
	}
	n, err := in.Complexity.Eval(args)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// TransferBytes predicts the XDR payload bytes shipped in each
// direction for a call, from the dimension expressions alone. String
// parameters are counted as 0 (size is data-dependent). This is the
// information the metaserver uses to weigh communication against
// computation when placing calls (§5.1).
func (in *Info) TransferBytes(args []Value) (inBytes, outBytes int64, err error) {
	counts, err := in.DimSizes(args, nil)
	if err != nil {
		return 0, 0, err
	}
	for i := range in.Params {
		p := &in.Params[i]
		sz := int64(counts[i]) * int64(p.Type.WireSize())
		if p.Mode.Ships(false) {
			inBytes += sz
		}
		if p.Mode.Ships(true) {
			outBytes += sz
		}
	}
	return inBytes, outBytes, nil
}

// String reconstructs IDL source for the interface. The output parses
// back to an equivalent Info, which the tests verify.
func (in *Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Define %s(", in.Name)
	for i := range in.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(in.Params[i].String())
	}
	b.WriteString(")")
	if in.Description != "" {
		fmt.Fprintf(&b, "\n    %q", in.Description)
	}
	if in.Required != "" {
		fmt.Fprintf(&b, "\n    Required %q", in.Required)
	}
	if in.Complexity != nil {
		fmt.Fprintf(&b, "\n    Complexity %s", in.Complexity)
	}
	fmt.Fprintf(&b, "\n    Calls %q %s(%s);", in.Language, in.Target, strings.Join(in.TargetArgs, ", "))
	return b.String()
}

// Value is a dynamically-typed argument to a Ninf call. The concrete
// types accepted on the client side are int, int64, float64, string,
// []float64, []int64 and []float32; the protocol layer normalizes int
// to int64.
type Value any
