package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FeatGate enforces negotiated-feature gating: constructing or sending
// a feature-gated message must be dominated by a check of the
// negotiated protocol level. Class "bulk"
// (feature level 3, protocol.MuxVersionBulk) covers the chunked
// streaming surface: BulkShape — the only way to make the argument
// encoder emit segments — and the chunked fronts over it, RawBulkMsg,
// RoundtripBulk, and the MsgBulkBegin/MsgBulkChunk/MsgBulkAbort wire
// constants on their construction/send side (receive-side case labels
// and comparisons are exempt — decoding what a peer sent is always
// legal). Class "cache" (level 4) likewise roots at DigestShape, the
// digest query and data-handle encoders and their wire constants.
// Class "mux" (version 2) covers the v2 framing primitives that carry
// the multiplexed header and the deadline/RetryAfter trailers:
// StampMux, WriteMuxFrame(Buf), WriteStampedFrames, ReadMuxFrameBuf.
//
// A use is dominated when it sits under a recognized gate: a call to a
// niladic Bulk() method, an identifier matching bulkOK, or a
// comparison against MuxVersionBulk / MuxVersion — including gate
// variables assigned from such expressions, && conjunctions, and the
// early-return form (if !gate { return }). Transparent-fallback
// wrappers are whitelisted by shape, one hop interprocedurally: a
// function whose own uses are ungated is discharged when it has
// in-package callers and every call site is dominated (the
// Client.digestShape pattern), and it is published as requiring a
// gate so out-of-package callers inherit the obligation via facts.
//
// Exemptions: the defining package of a root (the protocol encoders
// must build their own messages), the negotiated planes themselves for
// class "mux" (packages mux/server/protocol run entirely post-
// negotiation), and _test.go files.
var FeatGate = &Analyzer{
	Name: "featgate",
	Doc: "feature-gated message construction/send must be dominated by a " +
		"negotiated-level check (Bulk(), bulkOK, version >= MuxVersionBulk)",
	Run: runFeatGate,
}

// featRoots maps root function/constant names to their feature class.
var featRoots = map[string]string{
	"BulkShape":               "bulk",
	"EncodeCallRequestChunks": "bulk",
	"EncodeCallReplyChunks":   "bulk",
	"RawBulkMsg":              "bulk",
	"RoundtripBulk":           "bulk",
	"RoundtripRetract":        "bulk",
	"MsgBulkBegin":            "bulk",
	"MsgBulkChunk":            "bulk",
	"MsgBulkAbort":            "bulk",

	"StampMux":           "mux",
	"WriteMuxFrame":      "mux",
	"WriteMuxFrameBuf":   "mux",
	"WriteStampedFrames": "mux",
	"ReadMuxFrameBuf":    "mux",

	"DigestShape":                "cache",
	"EncodeCallRequestDigest":    "cache",
	"CallRequestDigests":         "cache",
	"EncodeDigestQueryBuf":       "cache",
	"EncodeDataHandleRequestBuf": "cache",
	"MsgCallDigest":              "cache",
	"MsgDigestStatus":            "cache",
	"MsgDataHandle":              "cache",
	"MsgDataHandleOK":            "cache",
}

// muxPlanePkgs are package names exempt from class "mux": they are the
// negotiated planes, entered only after a successful hello.
var muxPlanePkgs = map[string]bool{"mux": true, "server": true, "protocol": true}

// featUse is one occurrence of a gated root.
type featUse struct {
	pos   token.Pos
	class string
	name  string
}

// featFunc aggregates one function's gating picture.
type featFunc struct {
	fn        *types.Func
	ungated   []featUse       // uses not dominated within the body
	calls     map[string]bool // classes this fn's callers must provide
	callSites []featCallSite
}

// featCallSite is an in-package call of a tracked function and the
// gate classes active at that point.
type featCallSite struct {
	callee *types.Func
	gated  map[string]bool
}

func runFeatGate(pass *Pass) error {
	fns := make(map[*types.Func]*featFunc)
	var sites []featCallSite

	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			w := &featWalker{
				pass:     pass,
				gateVars: make(map[types.Object]map[string]bool),
				receive:  receiveSideUses(fd.Body),
			}
			w.stmts(fd.Body.List, nil)
			if len(w.ungated) > 0 && fn != nil {
				fns[fn] = &featFunc{fn: fn, ungated: w.ungated}
			}
			for i := range w.sites {
				sites = append(sites, w.sites[i])
			}
		}
	}

	// One-hop interprocedural discharge: a function with ungated uses
	// is clean when every in-package call site is dominated (and at
	// least one exists). Either way it is published as gate-requiring
	// so cross-package callers inherit the obligation.
	for fn, ff := range fns {
		classes := make(map[string]bool)
		for _, u := range ff.ungated {
			classes[u.class] = true
		}
		for class := range classes {
			pass.Facts.SetRequiresGate(funcKey(fn), class)
		}
		total, gated := 0, 0
		for _, cs := range sites {
			if cs.callee != fn {
				continue
			}
			total++
			ok := true
			for class := range classes {
				if !cs.gated[class] {
					ok = false
				}
			}
			if ok {
				gated++
			}
		}
		if total > 0 && gated == total {
			continue // transparent-fallback wrapper: gate lives one hop up
		}
		for _, u := range ff.ungated {
			pass.Reportf(u.pos,
				"%s requires negotiated feature level %q but no gate (Bulk()/bulkOK/version check) dominates this use",
				u.name, u.class)
		}
	}
	return nil
}

// receiveSideUses collects the positions of identifiers appearing in
// receive-side contexts — case-clause labels and ==/!= comparisons —
// where naming a wire constant classifies an incoming message rather
// than constructing one.
func receiveSideUses(body *ast.BlockStmt) map[token.Pos]bool {
	out := make(map[token.Pos]bool)
	mark := func(e ast.Expr) {
		ast.Inspect(e, func(n ast.Node) bool {
			switch id := n.(type) {
			case *ast.Ident:
				out[id.Pos()] = true
			case *ast.SelectorExpr:
				out[id.Sel.Pos()] = true
			}
			return true
		})
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CaseClause:
			for _, e := range x.List {
				mark(e)
			}
		case *ast.BinaryExpr:
			if x.Op == token.EQL || x.Op == token.NEQ {
				mark(x.X)
				mark(x.Y)
			}
		}
		return true
	})
	return out
}

// featWalker performs the structural domination walk over one function
// body, tracking which feature classes are gated at each point.
type featWalker struct {
	pass     *Pass
	gateVars map[types.Object]map[string]bool
	receive  map[token.Pos]bool
	ungated  []featUse
	sites    []featCallSite
}

// gateClassesOf returns the feature classes a condition guarantees
// when it evaluates true.
func (w *featWalker) gateClassesOf(cond ast.Expr) map[string]bool {
	switch e := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			// a && b true implies both: union.
			return unionGates(w.gateClassesOf(e.X), w.gateClassesOf(e.Y))
		case token.LOR:
			// a || b true implies only what both guarantee.
			return intersectGates(w.gateClassesOf(e.X), w.gateClassesOf(e.Y))
		case token.GEQ, token.GTR, token.EQL, token.LEQ, token.LSS:
			// version >= MuxVersionBulk (and friends). A comparison that
			// mentions the level constant is treated as a gate of its
			// class; the pass checks presence, not direction — the
			// convention in-repo is always `have >= needed`. Level 4
			// implies the lower levels, so a cache gate discharges bulk
			// and mux obligations too.
			if mentionsName(e, "MuxVersionCache") {
				return map[string]bool{"cache": true, "bulk": true, "mux": true}
			}
			if mentionsName(e, "MuxVersionBulk") {
				return map[string]bool{"bulk": true}
			}
			if mentionsName(e, "MuxVersion") {
				return map[string]bool{"mux": true}
			}
		}
	case *ast.CallExpr:
		// A niladic method or function named Bulk: the session's own
		// capability accessor.
		if len(e.Args) == 0 {
			switch fun := ast.Unparen(e.Fun).(type) {
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Bulk" {
					return map[string]bool{"bulk": true, "mux": true}
				}
				if fun.Sel.Name == "Cache" {
					return map[string]bool{"cache": true, "bulk": true, "mux": true}
				}
			case *ast.Ident:
				if fun.Name == "Bulk" {
					return map[string]bool{"bulk": true, "mux": true}
				}
				if fun.Name == "Cache" {
					return map[string]bool{"cache": true, "bulk": true, "mux": true}
				}
			}
		}
	case *ast.Ident:
		if obj := exprObj(w.pass.TypesInfo, e); obj != nil {
			if g := w.gateVars[obj]; len(g) > 0 {
				return g
			}
		}
		if strings.Contains(strings.ToLower(e.Name), "bulkok") {
			return map[string]bool{"bulk": true, "mux": true}
		}
		if strings.Contains(strings.ToLower(e.Name), "cacheok") {
			return map[string]bool{"cache": true, "bulk": true, "mux": true}
		}
	case *ast.SelectorExpr:
		if strings.Contains(strings.ToLower(e.Sel.Name), "bulkok") {
			return map[string]bool{"bulk": true, "mux": true}
		}
		if strings.Contains(strings.ToLower(e.Sel.Name), "cacheok") {
			return map[string]bool{"cache": true, "bulk": true, "mux": true}
		}
	}
	return nil
}

// negatedGates returns the classes guaranteed when !cond is the
// branch condition and the true branch terminates.
func (w *featWalker) negatedGates(cond ast.Expr) map[string]bool {
	ue, ok := ast.Unparen(cond).(*ast.UnaryExpr)
	if !ok || ue.Op != token.NOT {
		return nil
	}
	return w.gateClassesOf(ue.X)
}

func unionGates(a, b map[string]bool) map[string]bool {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}

func intersectGates(a, b map[string]bool) map[string]bool {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(map[string]bool)
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

func mentionsName(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch id := n.(type) {
		case *ast.Ident:
			if id.Name == name {
				found = true
			}
		case *ast.SelectorExpr:
			if id.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// stmts walks a statement list with the given active gate set,
// handling the early-return form: once `if !gate { ...return }`
// passes, the remainder of the list is gated.
func (w *featWalker) stmts(list []ast.Stmt, gated map[string]bool) {
	for _, stmt := range list {
		if ifs, ok := stmt.(*ast.IfStmt); ok {
			if neg := w.negatedGates(ifs.Cond); len(neg) > 0 && terminatesBlock(ifs.Body) && ifs.Else == nil {
				if ifs.Init != nil {
					w.stmt(ifs.Init, gated)
				}
				w.checkExpr(ifs.Cond, gated)
				w.stmts(ifs.Body.List, gated) // the ungated fallback path
				gated = unionGates(gated, neg)
				continue
			}
		}
		w.stmt(stmt, gated)
	}
}

func (w *featWalker) stmt(stmt ast.Stmt, gated map[string]bool) {
	switch s := stmt.(type) {
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, gated)
		}
		w.checkExpr(s.Cond, gated)
		w.stmts(s.Body.List, unionGates(gated, w.gateClassesOf(s.Cond)))
		if s.Else != nil {
			w.stmt(s.Else, gated)
		}
	case *ast.BlockStmt:
		w.stmts(s.List, gated)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, gated)
		}
		w.checkExpr(s.Cond, gated)
		if s.Post != nil {
			w.stmt(s.Post, gated)
		}
		w.stmts(s.Body.List, unionGates(gated, w.gateClassesOf(s.Cond)))
	case *ast.RangeStmt:
		w.checkExpr(s.X, gated)
		w.stmts(s.Body.List, gated)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, gated)
		}
		w.checkExpr(s.Tag, gated)
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, gated)
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, gated)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, gated)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					w.stmt(cc.Comm, gated)
				}
				w.stmts(cc.Body, gated)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, gated)
	case *ast.AssignStmt:
		// Gate variables: bulkOK := version >= MuxVersionBulk.
		for i, lhs := range s.Lhs {
			if i >= len(s.Rhs) {
				break
			}
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := exprObj(w.pass.TypesInfo, id); obj != nil {
					if g := w.gateClassesOf(s.Rhs[i]); len(g) > 0 {
						w.gateVars[obj] = g
					}
				}
			}
		}
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs, gated)
		}
		for _, lhs := range s.Lhs {
			w.checkExpr(lhs, gated)
		}
	case *ast.ExprStmt:
		w.checkExpr(s.X, gated)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, gated)
		}
	case *ast.DeferStmt:
		w.checkExpr(s.Call, gated)
	case *ast.GoStmt:
		w.checkExpr(s.Call, gated)
	case *ast.SendStmt:
		w.checkExpr(s.Chan, gated)
		w.checkExpr(s.Value, gated)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, gated)
					}
				}
			}
		}
	}
}

// checkExpr scans one expression for root uses and tracked call sites.
// Function literals share the enclosing gate context (they run where
// they are written in every data-plane use).
func (w *featWalker) checkExpr(e ast.Expr, gated map[string]bool) {
	if e == nil {
		return
	}
	info := w.pass.TypesInfo
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if fn := funcOf(info, x); fn != nil {
				// Root functions by name (cross-package only: the
				// defining package builds its own messages).
				if class, ok := featRoots[fn.Name()]; ok && w.rootApplies(fn, class) {
					if !gated[class] {
						w.ungated = append(w.ungated, featUse{pos: x.Pos(), class: class, name: fn.Name()})
					}
				}
				// Fact-published gate requirements from other packages.
				for _, class := range w.pass.Facts.RequiresGate(fn) {
					if fn.Pkg() != nil && fn.Pkg() != w.pass.Pkg && !gated[class] {
						w.ungated = append(w.ungated, featUse{pos: x.Pos(), class: class, name: fn.Name()})
					}
				}
				// In-package call sites, for the one-hop discharge.
				if fn.Pkg() == w.pass.Pkg {
					w.sites = append(w.sites, featCallSite{callee: fn, gated: gated})
				}
			}
		case *ast.Ident:
			w.checkConstUse(x, x.Pos(), gated)
		case *ast.SelectorExpr:
			w.checkConstUse(x.Sel, x.Sel.Pos(), gated)
			// Visit the base but not the Sel again.
			w.checkExpr(x.X, gated)
			return false
		}
		return true
	})
}

// checkConstUse flags construction-side uses of root wire constants.
func (w *featWalker) checkConstUse(id *ast.Ident, pos token.Pos, gated map[string]bool) {
	class, ok := featRoots[id.Name]
	if !ok || w.receive[pos] {
		return
	}
	obj := w.pass.TypesInfo.Uses[id]
	c, isConst := obj.(*types.Const)
	if !isConst || !w.constApplies(c, class) {
		return
	}
	if !gated[class] {
		w.ungated = append(w.ungated, featUse{pos: pos, class: class, name: id.Name})
	}
}

// rootApplies applies the exemptions to a function root use.
func (w *featWalker) rootApplies(fn *types.Func, class string) bool {
	if fn.Pkg() == w.pass.Pkg {
		return false // defining package builds its own messages
	}
	if class == "mux" && muxPlanePkgs[w.pass.Pkg.Name()] {
		return false // the negotiated planes run post-hello
	}
	return true
}

func (w *featWalker) constApplies(c *types.Const, class string) bool {
	if c.Pkg() == w.pass.Pkg {
		return false
	}
	if class == "mux" && muxPlanePkgs[w.pass.Pkg.Name()] {
		return false
	}
	return true
}
