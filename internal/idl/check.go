package idl

import (
	"errors"
	"fmt"
)

// ErrInvalid is wrapped by all semantic-check failures.
var ErrInvalid = errors.New("idl: invalid interface")

func checkErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Check validates an interface description:
//
//   - parameter names are unique and non-empty;
//   - every dimension expression references only scalar, in-shipping
//     (mode_in or mode_inout) integer parameters declared *earlier* in
//     the signature, so a left-to-right marshaller always has the
//     values it needs, and each reference carries that parameter's
//     position, which evaluation reads;
//   - string parameters are scalar (no string arrays);
//   - the Complexity expression references only scalar in-shipping
//     integer parameters;
//   - the Calls clause names only declared parameters;
//   - a Calls target is present.
//
// Parse runs Check automatically; servers run it again on registration
// so hand-built Info values get the same screening.
func Check(in *Info) error {
	if in.Name == "" {
		return checkErrf("missing interface name")
	}
	if in.Target == "" {
		return checkErrf("%s: missing Calls target", in.Name)
	}

	seen := make(map[string]int, len(in.Params))
	for i := range in.Params {
		p := &in.Params[i]
		if p.Name == "" {
			return checkErrf("%s: parameter %d has no name", in.Name, i)
		}
		if prev, dup := seen[p.Name]; dup {
			return checkErrf("%s: duplicate parameter %q (positions %d and %d)", in.Name, p.Name, prev, i)
		}
		seen[p.Name] = i
		if p.Mode < In || p.Mode > InOut {
			return checkErrf("%s: parameter %q has invalid mode %d", in.Name, p.Name, int(p.Mode))
		}
		if p.Type < Int || p.Type > String {
			return checkErrf("%s: parameter %q has invalid type %d", in.Name, p.Name, int(p.Type))
		}
		if p.Type == String && !p.IsScalar() {
			return checkErrf("%s: parameter %q: string arrays are not supported", in.Name, p.Name)
		}
		for di, d := range p.Dims {
			for _, ref := range d.refs(nil) {
				if !in.refersBefore(ref, i) {
					return checkErrf("%s: parameter %q dimension %d references %q, which is not an earlier scalar in-mode integer parameter",
						in.Name, p.Name, di, ref.Name)
				}
			}
		}
	}

	if in.Complexity != nil {
		for _, ref := range in.Complexity.refs(nil) {
			if !in.refersBefore(ref, len(in.Params)) {
				return checkErrf("%s: Complexity references %q, which is not a scalar in-mode integer parameter", in.Name, ref.Name)
			}
		}
	}

	for _, arg := range in.TargetArgs {
		if _, ok := seen[arg]; !ok {
			return checkErrf("%s: Calls argument %q is not a declared parameter", in.Name, arg)
		}
	}
	return nil
}

// refersBefore reports whether r names, by both name and position, a
// scalar in-shipping integer parameter declared before position end.
func (in *Info) refersBefore(r Ref, end int) bool {
	if r.Index < 0 || r.Index >= end {
		return false
	}
	p := &in.Params[r.Index]
	return p.Name == r.Name && p.IsScalar() && p.Type == Int && p.Mode.Ships(false)
}
