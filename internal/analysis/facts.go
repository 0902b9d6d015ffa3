package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Cross-package function summaries ("facts"). PR 2's passes were
// strictly intra-function: a pooled buffer handed to a callee was
// assumed consumed, because nothing recorded what the callee actually
// does with it. The fact store generalizes releasecheck's ownership
// conventions into interprocedural summaries: while a driver analyzes
// packages in dependency order (RunAll), each package records what its
// functions do — this callee consumes its buffer argument, that one
// merely borrows it — and packages analyzed later consult those
// summaries at call sites.
// Summaries come from two sources: //ninflint: annotations on
// declarations, and inference over the callee's own body.
//
// Annotation vocabulary (placed in the doc comment of a declaration,
// conventionally as its last line; see docs/ninflint.md):
//
//	//ninflint:owner borrow — callers keep ownership of pooled args
//	//ninflint:owner consume — callee disposes of pooled args
//	//ninflint:hotpath — hotalloc flags per-iteration allocations here

// A ParamRole describes what a function does with an owned (pooled)
// pointer argument.
type ParamRole int

const (
	// RoleUnknown means no summary: callers assume the callee consumes
	// the value (the conservative PR 2 behavior).
	RoleUnknown ParamRole = iota
	// RoleConsume: the callee releases or transfers the argument on
	// every path; passing the value discharges the caller's obligation.
	RoleConsume
	// RoleBorrow: the callee uses the argument but the caller still
	// owns it afterwards and must release it.
	RoleBorrow
)

// A FuncFact is the recorded summary of one function.
type FuncFact struct {
	// Owner is the function's role toward pooled pointer arguments.
	Owner ParamRole
	// OwnerInferred marks an Owner derived from the body rather than
	// an annotation (diagnostics mention which).
	OwnerInferred bool
}

// A FactStore accumulates function summaries across one analysis run.
// It is safe for concurrent use: RunAll analyzes packages in
// dependency order, so a package's facts are complete before any
// dependent package reads them, but independent packages record facts
// in parallel.
type FactStore struct {
	mu    sync.Mutex
	funcs map[string]*FuncFact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{funcs: make(map[string]*FuncFact)}
}

// funcKey names a function uniquely across packages:
// "pkg/path.Func" or "(*pkg/path.Type).Method".
func funcKey(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	return fn.FullName()
}

// fact returns the (possibly empty) summary for key, creating it.
func (s *FactStore) fact(key string) *FuncFact {
	f := s.funcs[key]
	if f == nil {
		f = &FuncFact{}
		s.funcs[key] = f
	}
	return f
}

// SetOwner records an ownership role for a function.
func (s *FactStore) SetOwner(key string, role ParamRole, inferred bool) {
	if key == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.fact(key)
	// Annotations win over inference.
	if f.Owner != RoleUnknown && !f.OwnerInferred && inferred {
		return
	}
	f.Owner, f.OwnerInferred = role, inferred
}

// Owner returns the recorded ownership role of fn.
func (s *FactStore) Owner(fn *types.Func) ParamRole {
	if s == nil {
		return RoleUnknown
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.funcs[funcKey(fn)]; f != nil {
		return f.Owner
	}
	return RoleUnknown
}

// directivePrefix introduces a ninflint annotation comment. Unlike
// //lint:ninflint suppressions (which silence findings), annotations
// feed the fact store.
const directivePrefix = "//ninflint:"

// A directive is one parsed //ninflint:name args annotation.
type directive struct {
	name string // e.g. "owner", "hotpath"
	args string // e.g. "borrow"; em-dash/-- justification stripped
	pos  token.Pos
}

// parseDirective parses one comment into a directive, or ok=false.
func parseDirective(c *ast.Comment) (directive, bool) {
	text := c.Text
	if !strings.HasPrefix(text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(text, directivePrefix)
	name := rest
	args := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		name, args = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return directive{}, false
	}
	// Everything after an em dash or "--" is free-form justification.
	if i := strings.Index(args, "—"); i >= 0 {
		args = strings.TrimSpace(args[:i])
	}
	if i := strings.Index(args, "--"); i >= 0 {
		args = strings.TrimSpace(args[:i])
	}
	return directive{name: name, args: args, pos: c.Pos()}, true
}

// funcDirectives collects the //ninflint: annotations attached to each
// function declaration of a file: directives inside the doc comment,
// or in a comment group ending on the line directly above the
// declaration (or its doc comment).
func funcDirectives(fset *token.FileSet, f *ast.File) map[*ast.FuncDecl][]directive {
	// Comment-group end line -> parsed directives within the group.
	byEndLine := make(map[int][]directive)
	for _, cg := range f.Comments {
		var ds []directive
		for _, c := range cg.List {
			if d, ok := parseDirective(c); ok {
				ds = append(ds, d)
			}
		}
		if len(ds) > 0 {
			byEndLine[fset.Position(cg.End()).Line] = ds
		}
	}
	if len(byEndLine) == 0 {
		return nil
	}
	out := make(map[*ast.FuncDecl][]directive)
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		top := fd.Pos()
		if fd.Doc != nil {
			top = fd.Doc.Pos()
			if ds := byEndLine[fset.Position(fd.Doc.End()).Line]; len(ds) > 0 {
				out[fd] = append(out[fd], ds...)
			}
		}
		if ds := byEndLine[fset.Position(top).Line-1]; len(ds) > 0 {
			out[fd] = append(out[fd], ds...)
		}
	}
	return out
}

// isHotpath reports whether the declaration carries //ninflint:hotpath.
func isHotpath(ds []directive) bool {
	for _, d := range ds {
		if d.name == "hotpath" {
			return true
		}
	}
	return false
}

// ownerDirective returns the annotated ownership role, if any.
func ownerDirective(ds []directive) (ParamRole, bool) {
	for _, d := range ds {
		if d.name != "owner" {
			continue
		}
		switch d.args {
		case "borrow":
			return RoleBorrow, true
		case "consume":
			return RoleConsume, true
		}
	}
	return RoleUnknown, false
}

// computeFacts records the summaries of one package into the store:
// annotated ownership roles, and inferred consume roles for functions
// whose body demonstrably discharges every pooled parameter. It runs
// before the package's analyzers, so same-package call sites see the
// same facts later packages will.
func computeFacts(pkg *Package, facts *FactStore) {
	for _, f := range pkg.Files {
		dirs := funcDirectives(pkg.Fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name == nil {
				continue
			}
			fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if role, ok := ownerDirective(dirs[fd]); ok {
				facts.SetOwner(funcKey(fn), role, false)
				continue
			}
			if role, ok := inferOwner(pkg, facts, fd); ok {
				facts.SetOwner(funcKey(fn), role, true)
			}
		}
	}
}

// inferOwner derives an ownership summary from a function body: when
// every pooled pointer parameter is released or transferred on every
// path, the function consumes its arguments and callers' obligations
// discharge at the call. Functions with no pooled parameters, or whose
// body leaves a parameter live on some path, get no inferred summary
// (the latter are flagged by releasecheck itself unless annotated).
func inferOwner(pkg *Package, facts *FactStore, fd *ast.FuncDecl) (ParamRole, bool) {
	if fd.Body == nil || fd.Type.Params == nil {
		return RoleUnknown, false
	}
	pooled := 0
	for _, field := range fd.Type.Params.List {
		for _, pname := range field.Names {
			obj := pkg.TypesInfo.Defs[pname]
			if obj == nil || pname.Name == "_" || !isPooledType(obj.Type()) {
				continue
			}
			pooled++
			pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Pkg, TypesInfo: pkg.TypesInfo, Facts: facts}
			tr := newBufferTracker(pass, obj, nil, false)
			tr.silent = true
			out := tr.stmts(fd.Body.List, flowState{})
			// A leak on any path — fall-through, early return, continue,
			// or reassignment — disqualifies the consume summary.
			if (!out.terminated && !out.released) || tr.violations > 0 {
				return RoleUnknown, false
			}
		}
	}
	if pooled == 0 {
		return RoleUnknown, false
	}
	return RoleConsume, true
}
