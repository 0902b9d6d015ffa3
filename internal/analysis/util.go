package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// releaseMethodOf returns the Release (or unexported release) method a
// pointer-to-named-type carries, or nil. Types with such a method are
// treated as pooled resources whose ownership the releasecheck pass
// tracks.
func releaseMethodOf(t types.Type) *types.Func {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return nil
	}
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		if m.Name() == "Release" || m.Name() == "release" {
			sig := m.Type().(*types.Signature)
			if sig.Params().Len() == 0 {
				return m
			}
		}
	}
	return nil
}

// isPooledType reports whether t is a trackable pooled resource.
func isPooledType(t types.Type) bool { return releaseMethodOf(t) != nil }

// isNetConnType reports whether t is net.Conn, implements it, or is a
// type whose name is Conn in a package named net (so fixtures can
// model connections without dialing).
func isNetConnType(t types.Type) bool {
	if t == nil {
		return false
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Name() == "Conn" && obj.Pkg() != nil && obj.Pkg().Name() == "net" {
			return true
		}
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		return hasConnMethods(iface)
	}
	// Concrete types: look for the Conn shape in the method set.
	ms := types.NewMethodSet(t)
	found := 0
	for i := 0; i < ms.Len(); i++ {
		switch ms.At(i).Obj().Name() {
		case "Read", "Write", "SetReadDeadline", "RemoteAddr":
			found++
		}
	}
	return found == 4
}

// hasConnMethods reports whether an interface demands the net.Conn
// quartet used to recognize connection types structurally.
func hasConnMethods(iface *types.Interface) bool {
	found := 0
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Read", "Write", "SetReadDeadline", "RemoteAddr":
			found++
		}
	}
	return found == 4
}

// funcOf resolves the called function object of a call expression,
// looking through parentheses. It returns nil for builtins, type
// conversions, and calls of function-typed values.
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fn].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fn.Sel].(*types.Func)
		return f
	}
	return nil
}

// pkgPathOf returns the defining package path of a function, "" for
// nil or builtin.
func pkgPathOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// isTestFile reports whether the file is a _test.go file; the runtime
// invariants the protocol passes enforce do not bind test scaffolding
// (tests legitimately skip gates and compare errors directly to probe
// those paths).
func isTestFile(pass *Pass, f *ast.File) bool {
	return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// usesIdentOf reports whether the expression tree mentions the object.
func usesIdentOf(info *types.Info, n ast.Node, obj types.Object) bool {
	if n == nil || obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// exprObj returns the variable object an identifier expression denotes,
// or nil when the expression is not a plain identifier.
func exprObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := info.Uses[id]; obj != nil {
		return obj
	}
	return info.Defs[id]
}
