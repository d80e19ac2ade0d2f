package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// WalkStack traverses every node of every file, passing the enclosing-node
// stack (outermost first, NOT including n itself). Returning false skips
// the node's children.
func WalkStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if !fn(n, stack) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}

// PkgIs reports whether the package path denotes the project package with
// the given terminal name. It matches both the real import path
// ("genalg/internal/storage") and the flat paths fixture packages use in
// analyzer tests ("storage").
func PkgIs(path, name string) bool {
	return path == name || strings.HasSuffix(path, "/"+name)
}

// CalleeFunc resolves the *types.Func a call invokes (package function or
// method), or nil for indirect calls, conversions, and builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsMethodCall reports whether call invokes a method with the given name on
// a named type (or pointer to it) declared in a project package matching
// pkgName (see PkgIs), e.g. IsMethodCall(info, call, "storage",
// "BufferPool", "Pin").
func IsMethodCall(info *types.Info, call *ast.CallExpr, pkgName, typeName, method string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Name() != method {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named := NamedRecv(sig.Recv().Type())
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Name() != typeName || obj.Pkg() == nil {
		return false
	}
	return PkgIs(obj.Pkg().Path(), pkgName)
}

// IsPkgFuncCall reports whether call invokes the package-level function
// pkgName.funcName (project-suffix matching via PkgIs).
func IsPkgFuncCall(info *types.Info, call *ast.CallExpr, pkgName string, funcNames ...string) bool {
	fn := CalleeFunc(info, call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	if fn.Pkg() == nil || !PkgIs(fn.Pkg().Path(), pkgName) {
		return false
	}
	for _, name := range funcNames {
		if fn.Name() == name {
			return true
		}
	}
	return false
}

// NamedRecv unwraps pointers and aliases down to the receiver's named
// type, or nil.
func NamedRecv(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// LHSObj resolves the object an assignment target ident denotes (nil for
// `_` and non-ident targets).
func LHSObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if def, ok := info.Defs[id]; ok && def != nil {
		return def
	}
	return info.Uses[id]
}

// IdentIs reports whether e is an identifier that uses or defines obj
// (false for a nil obj).
func IdentIs(info *types.Info, e ast.Expr, obj types.Object) bool {
	if obj == nil {
		return false
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && (info.Uses[id] == obj || info.Defs[id] == obj)
}

// Mentions reports whether any identifier in n uses or defines obj
// (false for a nil obj).
func Mentions(info *types.Info, n ast.Node, obj types.Object) bool {
	if obj == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && (info.Uses[id] == obj || info.Defs[id] == obj) {
			found = true
		}
		return true
	})
	return found
}

// IsBlank reports whether e is the blank identifier.
func IsBlank(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "_"
}

// RecvName returns the bare name of fn's receiver type (looking through
// pointers), or "" for package-level functions.
func RecvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if n := NamedRecv(sig.Recv().Type()); n != nil {
		return n.Obj().Name()
	}
	return ""
}

// ConstString returns the compile-time constant string value of expr, if
// it has one.
func ConstString(info *types.Info, expr ast.Expr) (string, bool) {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return "", false
	}
	if tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, _ := types.Unalias(t).(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// EnclosingFunc returns the innermost function literal or declaration in
// stack (the stack as provided by WalkStack), or nil.
func EnclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// FuncParts splits a function node into its type and body.
func FuncParts(fn ast.Node) (*ast.FuncType, *ast.BlockStmt) {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Type, fn.Body
	case *ast.FuncLit:
		return fn.Type, fn.Body
	}
	return nil, nil
}
