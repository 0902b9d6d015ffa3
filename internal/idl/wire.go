package idl

import (
	"fmt"
	"io"

	"ninf/internal/xdr"
)

// Wire form of an Info. This is what a Ninf server returns in the first
// stage of the two-stage RPC: a self-contained description the client
// interprets to marshal the call, with dimension and complexity
// expressions lowered to stack-machine bytecode (see expr.go).
//
// Layout (all XDR):
//
//	string  name
//	string  description
//	string  required
//	string  language
//	string  target
//	uint32  nTargetArgs, then that many strings
//	uint32  nParams, then per param:
//	    string  name
//	    uint32  mode
//	    uint32  type
//	    uint32  nDims, then per dim: opaque bytecode
//	bool    hasComplexity, then: opaque bytecode
const wireVersion = 1

// Encode writes the interface description to w in wire form.
func Encode(w io.Writer, in *Info) error {
	e := xdr.NewEncoder(w)
	e.PutUint32(wireVersion)
	e.PutString(in.Name)
	e.PutString(in.Description)
	e.PutString(in.Required)
	e.PutString(in.Language)
	e.PutString(in.Target)
	e.PutUint32(uint32(len(in.TargetArgs)))
	for _, a := range in.TargetArgs {
		e.PutString(a)
	}
	e.PutUint32(uint32(len(in.Params)))
	for i := range in.Params {
		p := &in.Params[i]
		e.PutString(p.Name)
		e.PutUint32(uint32(p.Mode))
		e.PutUint32(uint32(p.Type))
		e.PutUint32(uint32(len(p.Dims)))
		for _, d := range p.Dims {
			code, err := CompileExpr(d)
			if err != nil {
				return fmt.Errorf("idl: encode %s: %w", in.Name, err)
			}
			e.PutOpaque(code)
		}
	}
	if in.Complexity != nil {
		e.PutBool(true)
		code, err := CompileExpr(in.Complexity)
		if err != nil {
			return fmt.Errorf("idl: encode %s: %w", in.Name, err)
		}
		e.PutOpaque(code)
	} else {
		e.PutBool(false)
	}
	return e.Err()
}

// Decode reads a wire-form interface description. The reconstructed
// Info has expression trees rebuilt from the bytecode, so it satisfies
// the same invariants as a parsed one (Check is re-run).
func Decode(d *xdr.Decoder) (*Info, error) {
	if v := d.Uint32(); d.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("idl: unsupported wire version %d", v)
	}
	in := &Info{
		Name:        d.String(),
		Description: d.String(),
		Required:    d.String(),
		Language:    d.String(),
		Target:      d.String(),
	}
	nArgs := int(d.Uint32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nArgs > maxWireItems {
		return nil, fmt.Errorf("idl: implausible target-arg count %d", nArgs)
	}
	for i := 0; i < nArgs; i++ {
		in.TargetArgs = append(in.TargetArgs, d.String())
	}

	nParams := int(d.Uint32())
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nParams > maxWireItems {
		return nil, fmt.Errorf("idl: implausible parameter count %d", nParams)
	}
	type pendingDim struct {
		param int
		code  []byte
	}
	var dims []pendingDim
	names := make([]string, 0, nParams)
	for i := 0; i < nParams; i++ {
		p := Param{
			Name: d.String(),
			Mode: Mode(d.Uint32()),
			Type: Type(d.Uint32()),
		}
		nDims := int(d.Uint32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if nDims > maxWireDims {
			return nil, fmt.Errorf("idl: implausible dimension count %d", nDims)
		}
		for j := 0; j < nDims; j++ {
			dims = append(dims, pendingDim{param: i, code: d.Opaque()})
		}
		in.Params = append(in.Params, p)
		names = append(names, p.Name)
	}
	var complexityCode []byte
	if d.Bool() {
		complexityCode = d.Opaque()
	}
	if d.Err() != nil {
		return nil, d.Err()
	}

	// Rebuild expression trees now that all parameter names are known.
	for _, pd := range dims {
		e, err := DecompileExpr(pd.code, names)
		if err != nil {
			return nil, fmt.Errorf("idl: decode %s: %w", in.Name, err)
		}
		in.Params[pd.param].Dims = append(in.Params[pd.param].Dims, e)
	}
	if complexityCode != nil {
		e, err := DecompileExpr(complexityCode, names)
		if err != nil {
			return nil, fmt.Errorf("idl: decode %s complexity: %w", in.Name, err)
		}
		in.Complexity = e
	}
	if err := Check(in); err != nil {
		return nil, err
	}
	return in, nil
}

const (
	maxWireItems = 1 << 16
	maxWireDims  = 16
)
