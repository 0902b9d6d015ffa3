package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ReleaseCheck enforces the pooled-buffer ownership protocol of the
// data plane: every value obtained from a pool-returning call
// (ReadFrameBuf, EncodeRequest, EncodeReply, EncodeBuf,
// AcquireBuffer, acquireDecoder — recognized structurally as any call
// returning a pointer type with a Release/release method) must reach a
// Release call, an ownership transfer (returned, passed to a consuming
// call, stored, sent, or captured by a closure), or a defer, on every
// control-flow path, including early error returns. Functions taking
// an owned buffer parameter inherit the same obligation. Callee
// behavior is interprocedural since v2: a callee annotated
// //ninflint:owner borrow (or recorded as borrowing in the fact store)
// does NOT discharge the caller's obligation, and a callee whose body
// provably releases its parameter on every path is summarized as
// consuming, so handing the buffer across internal/protocol ↔
// internal/mux ↔ internal/server boundaries is tracked end to end.
var ReleaseCheck = &Analyzer{
	Name: "releasecheck",
	Doc: "pooled frame buffers must be Released (or ownership transferred) " +
		"on every control-flow path, including error returns",
	Run: runReleaseCheck,
}

// borrowerFuncs take a pooled buffer argument without consuming it:
// the caller still owns the buffer afterwards. StampMux only writes
// the version-2 header into the buffer's reserved prefix. This name
// table predates the fact store and is kept as the fallback for
// drivers that analyze one package with no cross-package facts (vet
// unitchecker mode); //ninflint:owner annotations and inferred
// summaries supersede it when a FactStore is present.
var borrowerFuncs = map[string]bool{
	"WriteFrameBuf":    true,
	"WriteMuxFrameBuf": true,
	"StampMux":         true,
	// putBulkMarker reads the buffer's current length to record a patch
	// position for the chunked encoders; the caller keeps ownership.
	"putBulkMarker": true,
}

func runReleaseCheck(pass *Pass) error {
	for _, f := range pass.Files {
		dirs := funcDirectives(pass.Fset, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body == nil {
					return true
				}
				checkOwnedParams(pass, fn.Type, fn.Body, fn.Name.Name, dirs[fn])
				scanForAcquisitions(pass, fn.Body.List, false)
			case *ast.FuncLit:
				checkOwnedParams(pass, fn.Type, fn.Body, "", nil)
				scanForAcquisitions(pass, fn.Body.List, false)
			}
			return true
		})
	}
	return nil
}

// checkOwnedParams applies the release obligation to pooled-type
// parameters: a function that accepts an owned buffer must dispose of
// it on every path. Receivers are exempt (methods on the pooled type
// itself), as are declared borrowers — by legacy name table or by a
// //ninflint:owner borrow annotation, which shifts the obligation back
// to every caller.
func checkOwnedParams(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, name string, dirs []directive) {
	if borrowerFuncs[name] || ft.Params == nil {
		return
	}
	if role, ok := ownerDirective(dirs); ok && role == RoleBorrow {
		return
	}
	for _, field := range ft.Params.List {
		for _, pname := range field.Names {
			obj := pass.TypesInfo.Defs[pname]
			if obj == nil || pname.Name == "_" || !isPooledType(obj.Type()) {
				continue
			}
			tr := newBufferTracker(pass, obj, nil, false)
			out := tr.stmts(body.List, flowState{})
			if !out.terminated && !out.released {
				pass.Reportf(pname.Pos(),
					"owned %s parameter %s may reach the end of %s without Release or ownership transfer",
					typeName(obj.Type()), pname.Name, funcLabel(name))
			}
		}
	}
}

func funcLabel(name string) string {
	if name == "" {
		return "the function literal"
	}
	return name
}

func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		if named, ok := ptr.Elem().(*types.Named); ok {
			return "*" + named.Obj().Name()
		}
	}
	return t.String()
}

// scanForAcquisitions walks every statement list of a function body,
// starting a path analysis at each pooled-value acquisition.
// Nested function literals are handled by the file-level walk, not
// here, so each function's variables are analyzed exactly once.
func scanForAcquisitions(pass *Pass, stmts []ast.Stmt, inLoop bool) {
	for i, stmt := range stmts {
		if assign, ok := stmt.(*ast.AssignStmt); ok {
			for _, acq := range acquisitionsIn(pass, assign) {
				tr := newBufferTracker(pass, acq.obj, acq.errObj, inLoop)
				out := tr.stmts(stmts[i+1:], flowState{})
				if !out.terminated && !out.released {
					if inLoop {
						pass.Reportf(acq.obj.Pos(),
							"%s acquired from %s may be overwritten by the next loop iteration without Release",
							acq.obj.Name(), acq.src)
					} else {
						pass.Reportf(acq.obj.Pos(),
							"%s acquired from %s is not Released (or ownership-transferred) on every path",
							acq.obj.Name(), acq.src)
					}
				}
			}
		}
		scanNested(pass, stmt, inLoop)
	}
}

// scanNested recurses into compound statements to find acquisitions in
// inner blocks. Function literals are deliberately skipped: the
// file-level walk visits them.
func scanNested(pass *Pass, stmt ast.Stmt, inLoop bool) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		scanForAcquisitions(pass, s.List, inLoop)
	case *ast.IfStmt:
		scanForAcquisitions(pass, s.Body.List, inLoop)
		if s.Else != nil {
			scanNested(pass, s.Else, inLoop)
		}
	case *ast.ForStmt:
		scanForAcquisitions(pass, s.Body.List, true)
	case *ast.RangeStmt:
		scanForAcquisitions(pass, s.Body.List, true)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanForAcquisitions(pass, cc.Body, inLoop)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				scanForAcquisitions(pass, cc.Body, inLoop)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				scanForAcquisitions(pass, cc.Body, inLoop)
			}
		}
	case *ast.LabeledStmt:
		scanNested(pass, s.Stmt, inLoop)
	}
}

// An acquisition is one tracked variable born from a pool-returning
// call, with the error variable (if any) assigned alongside it: on the
// err != nil branch the pooled result is nil by convention, so error
// guards release the obligation.
type acquisition struct {
	obj    types.Object
	errObj types.Object
	src    string
}

func acquisitionsIn(pass *Pass, assign *ast.AssignStmt) []acquisition {
	if len(assign.Rhs) != 1 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	src := "the call"
	if fn := funcOf(pass.TypesInfo, call); fn != nil {
		src = fn.Name()
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		src = sel.Sel.Name
	} else if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		src = id.Name
	}

	var acqs []acquisition
	var errObj types.Object
	for _, lhs := range assign.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj == nil {
			continue
		}
		if types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
			errObj = obj
			continue
		}
		if isPooledType(obj.Type()) {
			acqs = append(acqs, acquisition{obj: obj, src: src})
		}
	}
	for i := range acqs {
		acqs[i].errObj = errObj
	}
	return acqs
}

// bufPolicy supplies the pooled-buffer semantics to the engine tracker
// for one tracked variable.
type bufPolicy struct {
	pass   *Pass
	obj    types.Object
	errObj types.Object
}

// newBufferTracker wires a tracker with the pooled-buffer policy:
// Release/release methods discharge, consuming calls transfer, value
// uses move ownership, err/nil guards cancel the obligation, and leaks
// report in releasecheck's PR 2 vocabulary. The return-leak diagnostic
// carries a suggested fix (insert obj.Release() before the return) for
// ninflint -fix.
func newBufferTracker(pass *Pass, obj, errObj types.Object, inLoop bool) *tracker {
	p := &bufPolicy{pass: pass, obj: obj, errObj: errObj}
	return &tracker{
		pass:        pass,
		inLoopBody:  inLoop,
		isVar:       p.isVar,
		releases:    p.releases,
		transfersIn: p.transfersIn,
		valueUse:    p.valueUse,
		captures:    p.captures,
		guardKind:   p.guardKind,
		onReturn: func(pos token.Pos) {
			pass.report(Diagnostic{
				Pos:     pass.Fset.Position(pos),
				Message: "return without releasing " + obj.Name(),
				Edits:   insertBefore(pass.Fset, pos, obj.Name()+".Release()"),
			})
		},
		onContinue: func(pos token.Pos) {
			pass.report(Diagnostic{
				Pos:     pass.Fset.Position(pos),
				Message: "continue without releasing " + obj.Name(),
				Edits:   insertBefore(pass.Fset, pos, obj.Name()+".Release()"),
			})
		},
		onReassign: func(pos token.Pos) {
			pass.Reportf(pos, "%s reassigned before Release", obj.Name())
		},
	}
}

// insertBefore builds the -fix edit that inserts stmt as a new line
// directly above the statement at pos, reproducing its indentation.
func insertBefore(fset *token.FileSet, pos token.Pos, stmt string) []Edit {
	p := fset.Position(pos)
	if !p.IsValid() || p.Column < 1 {
		return nil
	}
	indent := strings.Repeat("\t", p.Column-1)
	return []Edit{{
		Filename: p.Filename,
		Start:    p.Offset,
		End:      p.Offset,
		New:      stmt + "\n" + indent,
	}}
}

// isBorrower reports whether fn lends rather than takes its pooled
// arguments: the legacy name table, a cross-package RoleBorrow fact
// (annotation), but never an inferred-consume summary.
func (b *bufPolicy) isBorrower(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if borrowerFuncs[fn.Name()] {
		return true
	}
	return b.pass.Facts.Owner(fn) == RoleBorrow
}

// releases reports whether call is v.Release() / v.release().
func (b *bufPolicy) releases(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if sel.Sel.Name != "Release" && sel.Sel.Name != "release" {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && b.isVar(id)
}

// transfersIn reports whether the call consumes v: v appears as a
// plain argument value (not as the receiver of a method call on v, and
// not to a borrower).
func (b *bufPolicy) transfersIn(call *ast.CallExpr) bool {
	if b.isBorrower(funcOf(b.pass.TypesInfo, call)) {
		return false
	}
	for _, arg := range call.Args {
		if b.valueUse(arg) {
			return true
		}
	}
	return false
}

func (b *bufPolicy) captures(fl *ast.FuncLit) bool {
	return usesIdentOf(b.pass.TypesInfo, fl, b.obj)
}

// valueUse reports whether expr mentions v as a value (rather than as
// the base of a field access or method call, which merely borrows).
func (b *bufPolicy) valueUse(expr ast.Expr) bool {
	if expr == nil {
		return false
	}
	// First pass: idents that are the direct base of a selector (v.f,
	// v.M(...)) are borrows, not value uses — and so are arguments of
	// borrower calls (WriteFrameBuf lends, it does not take).
	borrowBases := make(map[*ast.Ident]bool)
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
				borrowBases[id] = true
			}
		case *ast.CallExpr:
			if b.isBorrower(funcOf(b.pass.TypesInfo, x)) {
				for _, arg := range x.Args {
					ast.Inspect(arg, func(m ast.Node) bool {
						if id, ok := m.(*ast.Ident); ok {
							borrowBases[id] = true
						}
						return true
					})
				}
			}
		}
		return true
	})
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure capture is handled by applyExpr
		}
		if id, ok := n.(*ast.Ident); ok && b.isVar(id) && !borrowBases[id] {
			found = true
		}
		return true
	})
	return found
}

func (b *bufPolicy) isVar(id *ast.Ident) bool {
	info := b.pass.TypesInfo
	return info.Uses[id] == b.obj || info.Defs[id] == b.obj
}

// guardKind classifies nil-comparison conditions: against the error
// variable paired with the acquisition (err != nil means the pooled
// result is nil by convention), or against the tracked value itself
// (a nil value carries no obligation — Release is nil-safe, and the
// chunked encoders return nil below threshold by design).
func (b *bufPolicy) guardKind(cond ast.Expr) guard {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return guardNone
	}
	if be.Op != token.NEQ && be.Op != token.EQL {
		return guardNone
	}
	x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
	isNil := func(e ast.Expr) bool {
		id, ok := e.(*ast.Ident)
		return ok && id.Name == "nil"
	}
	var operand ast.Expr
	switch {
	case isNil(y):
		operand = x
	case isNil(x):
		operand = y
	default:
		return guardNone
	}
	if b.errObj != nil && exprObj(b.pass.TypesInfo, operand) == b.errObj {
		if be.Op == token.NEQ {
			return guardErrNonNil
		}
		return guardErrNil
	}
	if id, ok := operand.(*ast.Ident); ok && b.isVar(id) {
		if be.Op == token.NEQ {
			return guardValNonNil
		}
		return guardValNil
	}
	return guardNone
}
