package idl

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// An Expr is an integer expression over scalar in-mode arguments:
// array dimensions and complexity declarations are Exprs.
type Expr interface {
	// Eval computes the expression against a call's positional
	// arguments, one value per parameter.
	Eval(args []Value) (int64, error)
	// refs appends the referenced arguments.
	refs(dst []Ref) []Ref
	fmt.Stringer
}

// ErrUnboundRef reports a reference to a scalar argument absent from
// the argument vector, or one not resolved to a parameter position.
var ErrUnboundRef = errors.New("idl: unbound argument reference")

// ErrDivByZero reports division (or modulo) by zero during expression
// evaluation.
var ErrDivByZero = errors.New("idl: division by zero")

// ErrOverflow reports an intermediate result outside int64: a wrapped
// value could pass for a small dimension or a cheap call.
var ErrOverflow = errors.New("idl: integer overflow")

// Num is an integer literal.
type Num int64

// Eval implements Expr.
func (n Num) Eval([]Value) (int64, error) { return int64(n), nil }

func (n Num) refs(dst []Ref) []Ref { return dst }

// String implements fmt.Stringer.
func (n Num) String() string { return fmt.Sprintf("%d", int64(n)) }

// Ref is a reference to a scalar in-mode argument: its name, and the
// position of that parameter in the signature, resolved when the Info
// is parsed or decoded and verified by Check.
type Ref struct {
	Name  string
	Index int
}

// Eval implements Expr. Integer arguments may arrive as int64, int or
// (from loosely typed callers) float64.
func (r Ref) Eval(args []Value) (int64, error) {
	if r.Index < 0 || r.Index >= len(args) {
		return 0, fmt.Errorf("%w: missing argument %q", ErrUnboundRef, r.Name)
	}
	switch v := args[r.Index].(type) {
	case int64:
		return v, nil
	case int:
		return int64(v), nil
	case float64:
		return int64(v), nil
	case nil:
		return 0, fmt.Errorf("scalar argument %q is nil", r.Name)
	default:
		return 0, fmt.Errorf("%w: argument %q is %T, not an integer", ErrUnboundRef, r.Name, v)
	}
}

func (r Ref) refs(dst []Ref) []Ref { return append(dst, r) }

// String implements fmt.Stringer.
func (r Ref) String() string { return r.Name }

// Op identifies a binary operator.
type Op byte

// Binary operators, in increasing precedence order of their groups.
const (
	OpAdd Op = '+'
	OpSub Op = '-'
	OpMul Op = '*'
	OpDiv Op = '/'
	OpMod Op = '%'
	OpPow Op = '^'
)

// BinOp is a binary operation node.
type BinOp struct {
	Op   Op
	L, R Expr
}

// Eval implements Expr.
func (b *BinOp) Eval(args []Value) (int64, error) {
	l, err := b.L.Eval(args)
	if err != nil {
		return 0, err
	}
	r, err := b.R.Eval(args)
	if err != nil {
		return 0, err
	}
	return applyOp(b.Op, l, r)
}

func applyOp(op Op, l, r int64) (int64, error) {
	switch op {
	case OpAdd:
		if s := l + r; (s > l) == (r > 0) {
			return s, nil
		}
		return 0, ErrOverflow
	case OpSub:
		if d := l - r; (d < l) == (r > 0) {
			return d, nil
		}
		return 0, ErrOverflow
	case OpMul:
		return mul(l, r)
	case OpDiv:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, ErrDivByZero
		}
		return l % r, nil
	case OpPow:
		// Dimension and complexity formulas never need exponents
		// beyond the width of int64; larger values are certainly a
		// bug (and would loop for years), so reject them.
		if r < 0 || r > 63 {
			return 0, fmt.Errorf("idl: exponent %d outside [0,63]", r)
		}
		out := int64(1)
		for i := int64(0); i < r; i++ {
			var err error
			if out, err = mul(out, l); err != nil {
				return 0, err
			}
		}
		return out, nil
	default:
		return 0, fmt.Errorf("idl: unknown operator %q", byte(op))
	}
}

// mul is l*r, or ErrOverflow when the product leaves int64.
func mul(l, r int64) (int64, error) {
	p := l * r
	if l != 0 && (p/l != r || (l == -1 && r == math.MinInt64)) {
		return 0, ErrOverflow
	}
	return p, nil
}

func (b *BinOp) refs(dst []Ref) []Ref { return b.R.refs(b.L.refs(dst)) }

func opPrec(op Op) int {
	switch op {
	case OpAdd, OpSub:
		return 1
	case OpMul, OpDiv, OpMod:
		return 2
	case OpPow:
		return 3
	default:
		return 0
	}
}

// String implements fmt.Stringer, parenthesizing only where required.
func (b *BinOp) String() string {
	var sb strings.Builder
	writeOperand(&sb, b.L, opPrec(b.Op), false)
	fmt.Fprintf(&sb, "%c", byte(b.Op))
	writeOperand(&sb, b.R, opPrec(b.Op), true)
	return sb.String()
}

func writeOperand(sb *strings.Builder, e Expr, parentPrec int, isRight bool) {
	if sub, ok := e.(*BinOp); ok {
		p := opPrec(sub.Op)
		// Right operands of equal precedence need parens because
		// the operators are left-associative (except ^, which is
		// emitted fully parenthesized on the right by this rule
		// only when precedence demands; for simplicity we
		// parenthesize equal-precedence right children).
		if p < parentPrec || (p == parentPrec && isRight) {
			sb.WriteByte('(')
			sb.WriteString(sub.String())
			sb.WriteByte(')')
			return
		}
	}
	sb.WriteString(e.String())
}

// Bytecode: the wire form of an Expr, a stack-machine program. This is
// the "interpretable code" shipped to clients in the two-stage RPC.
// Programs are sequences of instructions:
//
//	opPushConst <int64>   push a constant
//	opPushArg   <uint32>  push the value of scalar parameter #n
//	opAdd..opPow          pop two, apply, push
//
// Argument references are compiled to parameter indices so the client
// need not ship names back and forth. The receiver rebuilds the tree
// (DecompileExpr), whose Refs keep those indices for Eval.
const (
	opPushConst byte = 0x01
	opPushArg   byte = 0x02
	opAdd       byte = 0x10
	opSub       byte = 0x11
	opMul       byte = 0x12
	opDiv       byte = 0x13
	opMod       byte = 0x14
	opPow       byte = 0x15
)

func opToByte(op Op) byte {
	switch op {
	case OpAdd:
		return opAdd
	case OpSub:
		return opSub
	case OpMul:
		return opMul
	case OpDiv:
		return opDiv
	case OpMod:
		return opMod
	case OpPow:
		return opPow
	}
	return 0
}

func byteToOp(b byte) (Op, bool) {
	switch b {
	case opAdd:
		return OpAdd, true
	case opSub:
		return OpSub, true
	case opMul:
		return OpMul, true
	case opDiv:
		return OpDiv, true
	case opMod:
		return OpMod, true
	case opPow:
		return OpPow, true
	}
	return 0, false
}

// CompileExpr lowers an expression to bytecode, each argument reference
// to the parameter position its Ref carries.
func CompileExpr(e Expr) ([]byte, error) {
	var out []byte
	var walk func(Expr) error
	walk = func(e Expr) error {
		switch v := e.(type) {
		case Num:
			out = append(out, opPushConst)
			out = appendInt64(out, int64(v))
		case Ref:
			if v.Index < 0 {
				return fmt.Errorf("%w: %q", ErrUnboundRef, v.Name)
			}
			out = append(out, opPushArg)
			out = appendUint32(out, uint32(v.Index))
		case *BinOp:
			if err := walk(v.L); err != nil {
				return err
			}
			if err := walk(v.R); err != nil {
				return err
			}
			b := opToByte(v.Op)
			if b == 0 {
				return fmt.Errorf("idl: cannot compile operator %q", byte(v.Op))
			}
			out = append(out, b)
		default:
			return fmt.Errorf("idl: cannot compile %T", e)
		}
		return nil
	}
	if err := walk(e); err != nil {
		return nil, err
	}
	return out, nil
}

// DecompileExpr rebuilds an expression tree from bytecode, naming each
// argument index through indexToName. It is the exact
// inverse of CompileExpr, which the property tests verify.
func DecompileExpr(code []byte, indexToName []string) (Expr, error) {
	var stack []Expr
	i := 0
	for i < len(code) {
		op := code[i]
		i++
		switch op {
		case opPushConst:
			if i+8 > len(code) {
				return nil, errors.New("idl: truncated constant in bytecode")
			}
			stack = append(stack, Num(readInt64(code[i:])))
			i += 8
		case opPushArg:
			if i+4 > len(code) {
				return nil, errors.New("idl: truncated argument index in bytecode")
			}
			idx := int(readUint32(code[i:]))
			i += 4
			if idx < 0 || idx >= len(indexToName) {
				return nil, fmt.Errorf("idl: bytecode argument index %d out of range", idx)
			}
			stack = append(stack, Ref{Name: indexToName[idx], Index: idx})
		default:
			o, ok := byteToOp(op)
			if !ok {
				return nil, fmt.Errorf("idl: unknown opcode %#x", op)
			}
			if len(stack) < 2 {
				return nil, errors.New("idl: stack underflow in bytecode")
			}
			l, r := stack[len(stack)-2], stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			stack = append(stack, &BinOp{Op: o, L: l, R: r})
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("idl: bytecode leaves %d values on stack, want 1", len(stack))
	}
	return stack[0], nil
}

func appendInt64(b []byte, v int64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readInt64(b []byte) int64 {
	return int64(b[0])<<56 | int64(b[1])<<48 | int64(b[2])<<40 | int64(b[3])<<32 |
		int64(b[4])<<24 | int64(b[5])<<16 | int64(b[6])<<8 | int64(b[7])
}

func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func readUint32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
