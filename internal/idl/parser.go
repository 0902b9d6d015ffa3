package idl

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse compiles IDL source containing one or more Define declarations
// into checked interface descriptions.
//
// Grammar (keywords are case-insensitive):
//
//	file       = { define } .
//	define     = "Define" ident "(" [ param { "," param } ] ")"
//	             [ string [","] ]            // description
//	             [ "Required" string ]
//	             [ "Complexity" expr ]
//	             "Calls" string ident "(" [ ident { "," ident } ] ")" ";" .
//	param      = [ "long" ] mode type ident { "[" expr "]" } .
//	mode       = "mode_in" | "mode_out" | "mode_inout" | "IN" | "OUT" | "INOUT" .
//	type       = "int" | "long" | "double" | "float" | "string" .
//	expr       = term { ("+"|"-") term } .
//	term       = power { ("*"|"/"|"%") power } .
//	power      = factor [ "^" power ] .
//	factor     = number | ident | "(" expr ")" | "-" factor .
//
// The vestigial "long" before the mode keyword, seen in the paper's
// dmmul example, is accepted and ignored.
func Parse(src string) ([]*Info, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var out []*Info
	for p.tok.kind != tokEOF {
		in, err := p.parseDefine()
		if err != nil {
			return nil, err
		}
		if err := Check(in); err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("idl: no Define declarations found")
	}
	return out, nil
}

// ParseOne parses IDL source that must contain exactly one Define.
func ParseOne(src string) (*Info, error) {
	infos, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(infos) != 1 {
		return nil, fmt.Errorf("idl: expected exactly one Define, found %d", len(infos))
	}
	return infos[0], nil
}

type parser struct {
	lex *lexer
	tok token
	// in is the Define being parsed; a name in an expression resolves
	// to the position of the parameter it names among those parsed so
	// far (-1 when none does, which Check reports).
	in *Info
}

func (p *parser) errorf(format string, args ...any) *SyntaxError {
	return &SyntaxError{Line: p.tok.line, Col: p.tok.col, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) advance() error {
	tok, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = tok
	return nil
}

// keyword reports whether the current token is the given keyword,
// case-insensitively.
func (p *parser) keyword(kw string) bool {
	return p.tok.kind == tokIdent && strings.EqualFold(p.tok.text, kw)
}

func (p *parser) expect(kind tokKind) (token, error) {
	if p.tok.kind != kind {
		return token{}, p.errorf("expected %s, found %s %q", kind, p.tok.kind, p.tok.text)
	}
	tok := p.tok
	return tok, p.advance()
}

func (p *parser) parseDefine() (*Info, error) {
	if !p.keyword("Define") {
		return nil, p.errorf("expected 'Define', found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	in := &Info{Name: name.text}
	p.in = in

	if _, err := p.expect(tokLParen); err != nil {
		return nil, err
	}
	if p.tok.kind != tokRParen {
		for {
			param, err := p.parseParam()
			if err != nil {
				return nil, err
			}
			in.Params = append(in.Params, param)
			if p.tok.kind == tokComma {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}

	// Optional description string, optionally followed by a comma as
	// in the paper's example.
	if p.tok.kind == tokString {
		in.Description = p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind == tokComma {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}

	for {
		switch {
		case p.keyword("Required"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			s, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			in.Required = s.text
		case p.keyword("Complexity") || p.keyword("CalcOrder"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			in.Complexity = e
		case p.keyword("Calls"):
			if err := p.advance(); err != nil {
				return nil, err
			}
			lang, err := p.expect(tokString)
			if err != nil {
				return nil, err
			}
			in.Language = lang.text
			target, err := p.expect(tokIdent)
			if err != nil {
				return nil, err
			}
			in.Target = target.text
			if _, err := p.expect(tokLParen); err != nil {
				return nil, err
			}
			if p.tok.kind != tokRParen {
				for {
					arg, err := p.expect(tokIdent)
					if err != nil {
						return nil, err
					}
					in.TargetArgs = append(in.TargetArgs, arg.text)
					if p.tok.kind == tokComma {
						if err := p.advance(); err != nil {
							return nil, err
						}
						continue
					}
					break
				}
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSemi); err != nil {
				return nil, err
			}
			return in, nil
		default:
			return nil, p.errorf("expected 'Required', 'Complexity' or 'Calls', found %q", p.tok.text)
		}
	}
}

func (p *parser) parseParam() (Param, error) {
	// Tolerate the vestigial leading "long" storage-class seen in the
	// paper's published IDL example ("long mode_in int n").
	if p.keyword("long") {
		saveLex, saveTok := *p.lex, p.tok
		if err := p.advance(); err != nil {
			return Param{}, err
		}
		if _, ok := parseMode(p.tok.text); !ok {
			// It was the element type, not a storage class; restore.
			*p.lex, p.tok = saveLex, saveTok
		}
	}
	mode, ok := parseMode(p.tok.text)
	if p.tok.kind != tokIdent || !ok {
		return Param{}, p.errorf("expected access mode (mode_in/mode_out/mode_inout), found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return Param{}, err
	}

	typ, ok := parseType(p.tok.text)
	if p.tok.kind != tokIdent || !ok {
		return Param{}, p.errorf("expected element type (int/long/float/double/string), found %q", p.tok.text)
	}
	if err := p.advance(); err != nil {
		return Param{}, err
	}

	name, err := p.expect(tokIdent)
	if err != nil {
		return Param{}, err
	}
	param := Param{Name: name.text, Mode: mode, Type: typ}

	for p.tok.kind == tokLBracket {
		if err := p.advance(); err != nil {
			return Param{}, err
		}
		dim, err := p.parseExpr()
		if err != nil {
			return Param{}, err
		}
		if _, err := p.expect(tokRBracket); err != nil {
			return Param{}, err
		}
		param.Dims = append(param.Dims, dim)
	}
	return param, nil
}

func parseMode(s string) (Mode, bool) {
	switch strings.ToLower(s) {
	case "mode_in", "in":
		return In, true
	case "mode_out", "out":
		return Out, true
	case "mode_inout", "inout":
		return InOut, true
	}
	return 0, false
}

func parseType(s string) (Type, bool) {
	switch strings.ToLower(s) {
	case "int", "long":
		return Int, true
	case "double":
		return Double, true
	case "float":
		return Float, true
	case "string":
		return String, true
	}
	return 0, false
}

func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokPlus || p.tok.kind == tokMinus {
		op := OpAdd
		if p.tok.kind == tokMinus {
			op = OpSub
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseTerm() (Expr, error) {
	left, err := p.parsePower()
	if err != nil {
		return nil, err
	}
	for p.tok.kind == tokStar || p.tok.kind == tokSlash || p.tok.kind == tokPercent {
		var op Op
		switch p.tok.kind {
		case tokStar:
			op = OpMul
		case tokSlash:
			op = OpDiv
		case tokPercent:
			op = OpMod
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parsePower()
		if err != nil {
			return nil, err
		}
		left = &BinOp{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parsePower() (Expr, error) {
	base, err := p.parseFactor()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == tokCaret {
		if err := p.advance(); err != nil {
			return nil, err
		}
		exp, err := p.parsePower() // right-associative
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: OpPow, L: base, R: exp}, nil
	}
	return base, nil
}

func (p *parser) parseFactor() (Expr, error) {
	switch p.tok.kind {
	case tokNumber:
		v, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil {
			return nil, p.errorf("invalid number %q: %v", p.tok.text, err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Num(v), nil
	case tokIdent:
		name := p.tok.text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return Ref{Name: name, Index: p.in.ParamIndex(name)}, nil
	case tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokMinus:
		if err := p.advance(); err != nil {
			return nil, err
		}
		f, err := p.parseFactor()
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: OpSub, L: Num(0), R: f}, nil
	default:
		return nil, p.errorf("expected expression, found %s %q", p.tok.kind, p.tok.text)
	}
}
