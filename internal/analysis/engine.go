package analysis

import (
	"go/ast"
	"go/token"
)

// The obligation tracker: the path-sensitive walker releasecheck
// introduced in PR 2, extracted and parameterized so other passes can
// run the same flow analysis over different resources. The walker
// understands the data plane's control-flow conventions — error-guard
// branches, nil-decline encoders, retry loops, select fan-in — and the
// pass supplies the semantics through hooks: what counts as the
// tracked variable, what discharges the obligation, how conditions
// guard it, and what to say when a path leaks. releasecheck
// instantiates it per pooled buffer.

// flowState is the per-path obligation state of one tracked resource.
type flowState struct {
	// released means the resource no longer carries an obligation on
	// this path: it was discharged, transferred, deferred, or is known
	// nil/absent (error-guard branch).
	released bool
}

// outcome summarizes the analysis of a statement list.
type outcome struct {
	released   bool // obligation discharged at fall-through exit
	terminated bool // no path falls through (return/branch on all paths)
}

// tracker runs the path-sensitive obligation analysis for one
// resource. The func fields are the pass-specific policy; nil report
// hooks make the corresponding violation silent.
type tracker struct {
	pass *Pass

	// inLoopBody marks a resource acquired inside a loop body: an
	// unlabeled continue then re-enters the acquisition and abandons
	// the live value, so the back edge carries the obligation.
	inLoopBody bool
	// nestedLoop counts loops entered during the walk; a continue at
	// depth > 0 targets an inner loop, not the acquiring one.
	nestedLoop int

	// silent suppresses all reports and counts them instead; the fact
	// prepass uses this to test "discharges on every path" without
	// emitting diagnostics.
	silent     bool
	violations int

	// isVar reports whether id denotes the tracked resource.
	isVar func(id *ast.Ident) bool
	// releases reports whether the call explicitly discharges the
	// obligation (v.Release()).
	releases func(call *ast.CallExpr) bool
	// transfersIn reports whether the call consumes the resource
	// (passed by value to a non-borrowing callee).
	transfersIn func(call *ast.CallExpr) bool
	// valueUse reports whether expr mentions the resource as a value
	// (stored, returned, sent: ownership moves).
	valueUse func(expr ast.Expr) bool
	// captures reports whether the function literal captures the
	// resource (ownership escapes into the closure).
	captures func(fl *ast.FuncLit) bool
	// guardKind classifies branch conditions relative to the resource.
	guardKind func(cond ast.Expr) guard

	// Report hooks for the three leak shapes.
	onReturn   func(pos token.Pos)
	onContinue func(pos token.Pos)
	onReassign func(pos token.Pos)
}

// guard classifies a branch condition's effect on the obligation.
type guard int

const (
	guardNone guard = iota
	// guardErrNonNil: condition is err != nil for the error paired
	// with the acquisition; the resource is nil/absent by convention
	// in the then branch.
	guardErrNonNil
	// guardErrNil: err == nil; the else branch carries no obligation.
	guardErrNil
	// guardValNonNil: v != nil; the else (nil) branch carries no
	// obligation — the chunked-encoder decline convention.
	guardValNonNil
	// guardValNil: v == nil; the then branch carries no obligation.
	guardValNil
)

func (tr *tracker) report(hook func(token.Pos), pos token.Pos) {
	if tr.silent {
		tr.violations++
		return
	}
	if hook != nil {
		hook(pos)
	}
}

func (tr *tracker) stmts(list []ast.Stmt, st flowState) outcome {
	for _, stmt := range list {
		if st.released {
			return outcome{released: true}
		}
		var term bool
		st, term = tr.stmt(stmt, st)
		if term {
			return outcome{terminated: true}
		}
	}
	return outcome{released: st.released}
}

// stmt applies one statement to the state, returning the new state and
// whether every path through the statement terminates the enclosing
// list (return, branch, or exhaustive terminating branches).
func (tr *tracker) stmt(stmt ast.Stmt, st flowState) (flowState, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		return tr.applyExpr(s.X, st), false

	case *ast.DeferStmt:
		// A deferred discharge (Release, consuming call, capturing
		// closure) covers every subsequent path.
		return tr.applyExpr(s.Call, st), false

	case *ast.GoStmt:
		return tr.applyExpr(s.Call, st), false

	case *ast.SendStmt:
		if tr.valueUse(s.Value) {
			st.released = true // handed to another goroutine
		}
		return tr.applyExpr(s.Chan, st), false

	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			st = tr.applyExpr(rhs, st)
			if !st.released && tr.valueUse(rhs) {
				st.released = true // stored somewhere: ownership moved
			}
		}
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && tr.isVar(id) {
				if !st.released {
					tr.report(tr.onReassign, s.Pos())
				}
				st.released = true // old value gone either way
			} else {
				st = tr.applyExpr(lhs, st) // index exprs etc.
			}
		}
		return st, false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = tr.applyExpr(v, st)
						if !st.released && tr.valueUse(v) {
							st.released = true
						}
					}
				}
			}
		}
		return st, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if tr.valueUse(r) {
				return st, true // returned to the caller: transferred
			}
			st = tr.applyExpr(r, st)
		}
		if !st.released {
			tr.report(tr.onReturn, s.Pos())
		}
		return st, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = tr.stmt(s.Init, st)
		}
		st = tr.applyExpr(s.Cond, st)
		thenSt, elseSt := st, st
		switch tr.guardKind(s.Cond) {
		case guardErrNonNil:
			thenSt.released = true // v is nil when err != nil
		case guardErrNil:
			elseSt.released = true
		case guardValNil:
			thenSt.released = true // v itself is nil in the then branch
		case guardValNonNil:
			// The chunked-encoder decline convention: below threshold the
			// encoder returns nil and the caller falls through to the
			// monolithic path with no obligation.
			elseSt.released = true
		}
		thenOut := tr.stmts(s.Body.List, thenSt)
		var elseOut outcome
		switch e := s.Else.(type) {
		case nil:
			elseOut = outcome{released: elseSt.released}
		case *ast.BlockStmt:
			elseOut = tr.stmts(e.List, elseSt)
		default: // else-if
			elseOut = tr.stmts([]ast.Stmt{e}, elseSt)
		}
		return mergeBranches([]outcome{thenOut, elseOut})

	case *ast.BlockStmt:
		out := tr.stmts(s.List, st)
		return flowState{released: out.released}, out.terminated

	case *ast.LabeledStmt:
		return tr.stmt(s.Stmt, st)

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = tr.stmt(s.Init, st)
		}
		if s.Tag != nil {
			st = tr.applyExpr(s.Tag, st)
		}
		return tr.caseBodies(s.Body, st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = tr.stmt(s.Init, st)
		}
		return tr.caseBodies(s.Body, st)

	case *ast.SelectStmt:
		var outs []outcome
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			ccSt := st
			if cc.Comm != nil {
				ccSt, _ = tr.stmt(cc.Comm, ccSt)
			}
			outs = append(outs, tr.stmts(cc.Body, ccSt))
		}
		if len(outs) == 0 {
			return st, false
		}
		return mergeBranches(outs)

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = tr.stmt(s.Init, st)
		}
		if s.Cond != nil {
			st = tr.applyExpr(s.Cond, st)
		}
		tr.nestedLoop++
		bodyOut := tr.stmts(s.Body.List, st)
		tr.nestedLoop--
		_ = bodyOut
		if s.Cond == nil {
			// for{}: code after the loop is unreachable (break edges
			// are not modelled; no data-plane code needs them).
			return st, true
		}
		return st, false // body may run zero times

	case *ast.RangeStmt:
		st = tr.applyExpr(s.X, st)
		tr.nestedLoop++
		tr.stmts(s.Body.List, st)
		tr.nestedLoop--
		return st, false

	case *ast.BranchStmt:
		// An unlabeled continue targeting the loop the resource was
		// acquired in re-runs the acquisition: a retry loop must
		// discharge on each failed attempt's path before backing off.
		if s.Tok == token.CONTINUE && s.Label == nil &&
			tr.inLoopBody && tr.nestedLoop == 0 && !st.released {
			tr.report(tr.onContinue, s.Pos())
		}
		// break/goto (and labeled continue) leave this list; the
		// target edge is not modelled, so treat the path as handled
		// elsewhere.
		return st, true

	default:
		return st, false
	}
}

// caseBodies merges the branches of a switch body; a missing default
// contributes an implicit fall-through path.
func (tr *tracker) caseBodies(body *ast.BlockStmt, st flowState) (flowState, bool) {
	var outs []outcome
	hasDefault := false
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		ccSt := st
		for _, e := range cc.List {
			ccSt = tr.applyExpr(e, ccSt)
		}
		outs = append(outs, tr.stmts(cc.Body, ccSt))
	}
	if !hasDefault {
		outs = append(outs, outcome{released: st.released})
	}
	if len(outs) == 0 {
		return st, false
	}
	return mergeBranches(outs)
}

// mergeBranches combines sibling control-flow branches: paths that
// terminate impose no fall-through obligation; every continuing path
// must agree the obligation is discharged for the merged state to be
// released.
func mergeBranches(outs []outcome) (flowState, bool) {
	allTerminated := true
	allReleased := true
	for _, o := range outs {
		if !o.terminated {
			allTerminated = false
			if !o.released {
				allReleased = false
			}
		}
	}
	if allTerminated {
		return flowState{}, true
	}
	return flowState{released: allReleased}, false
}

// applyExpr folds discharge effects of an expression into the state:
// an explicit discharge call, the resource passed to a consuming call,
// or a capturing function literal.
func (tr *tracker) applyExpr(e ast.Expr, st flowState) flowState {
	if e == nil || st.released {
		return st
	}
	released := false
	ast.Inspect(e, func(n ast.Node) bool {
		if released {
			return false
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if tr.releases(x) || tr.transfersIn(x) {
				released = true
				return false
			}
		case *ast.FuncLit:
			if tr.captures(x) {
				released = true // closure capture: ownership escapes
			}
			return false
		}
		return true
	})
	st.released = st.released || released
	return st
}
