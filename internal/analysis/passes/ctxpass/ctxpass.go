// Package ctxpass defines the genalgvet analyzer that enforces context
// threading. Traced entry points take the caller's context as their first
// parameter, so the compiler already makes callers supply one; the value
// of the tracing substrate then rests on functions actually passing it
// down. Two drift patterns break the chain and are caught here:
//
//  1. calling context.Background()/context.TODO() inside a function that
//     already has a context (by parameter or by Ctx-suffix convention),
//     which silently detaches cancellation, deadlines, and the active
//     trace span from everything below;
//  2. calling the plain variant of a callee that still has a Ctx variant
//     (the context-free conveniences kept for external callers, such as
//     sqlang's Engine.Exec beside ExecCtx and db's Table.GenomicLookup
//     beside GenomicLookupCtx), which drops the context even though a
//     threading path exists.
//
// The idiomatic nil-normalization `if ctx == nil { ctx =
// context.Background() }` is recognized and exempt.
package ctxpass

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"genalg/internal/analysis"
)

// Analyzer is the ctxpass check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxpass",
	Doc: "check that functions holding a context thread it: no context.Background()/TODO(), and no calling Foo when FooCtx exists\n\n" +
		"Applies inside any function that has a context.Context parameter or a Ctx-suffixed name " +
		"(closures inherit the property from their enclosing function). The nil-guard normalization " +
		"`if ctx == nil { ctx = context.Background() }` is allowed.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if !inCtxFunc(pass.TypesInfo, stack, n) {
			return true
		}
		if isBackgroundOrTODO(pass.TypesInfo, call) {
			if !nilGuardNormalization(pass.TypesInfo, call, stack) {
				name := "context.Background"
				if fn := analysis.CalleeFunc(pass.TypesInfo, call); fn != nil {
					name = "context." + fn.Name()
				}
				pass.Reportf(call.Pos(), "%s() inside a context-bearing function: thread the caller's ctx instead", name)
			}
			return true
		}
		checkCtxVariant(pass, call)
		return true
	})
	return nil
}

// inCtxFunc reports whether the innermost function declaration enclosing
// the node — or any function literal between it and the node — carries a
// context: a context.Context parameter or a Ctx-suffixed name.
func inCtxFunc(info *types.Info, stack []ast.Node, n ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			if hasCtxParam(info, fn.Type) {
				return true
			}
			// Otherwise keep climbing: a closure inside a Ctx function
			// still has the captured ctx in scope.
		case *ast.FuncDecl:
			if strings.HasSuffix(fn.Name.Name, "Ctx") || hasCtxParam(info, fn.Type) {
				return true
			}
			return false
		}
	}
	return false
}

func hasCtxParam(info *types.Info, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		if tv, ok := info.Types[field.Type]; ok && analysis.IsContextType(tv.Type) {
			return true
		}
	}
	return false
}

func isBackgroundOrTODO(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return false
	}
	return fn.Name() == "Background" || fn.Name() == "TODO"
}

// nilGuardNormalization recognizes
//
//	if x == nil { x = context.Background() }
//
// (including derived variables, as in retry loops): the call must be the
// RHS of an assignment to a context variable, inside an if whose
// condition nil-checks that same variable.
func nilGuardNormalization(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	// Find the assignment directly above the call (allowing parens).
	var lhsObj types.Object
	for i := len(stack) - 1; i >= 0; i-- {
		as, ok := stack[i].(*ast.AssignStmt)
		if !ok {
			continue
		}
		if len(as.Rhs) == 1 && ast.Unparen(as.Rhs[0]) == call && len(as.Lhs) == 1 {
			if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil {
					lhsObj = obj
				} else if obj := info.Defs[id]; obj != nil {
					lhsObj = obj
				}
			}
		}
		break
	}
	if lhsObj == nil || !analysis.IsContextType(lhsObj.Type()) {
		return false
	}
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		if cond, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr); ok && cond.Op == token.EQL {
			if isNilCheckOf(info, cond, lhsObj) {
				return true
			}
		}
	}
	return false
}

func isNilCheckOf(info *types.Info, cond *ast.BinaryExpr, obj types.Object) bool {
	isObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == obj
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && id.Name == "nil"
	}
	return (isObj(cond.X) && isNil(cond.Y)) || (isObj(cond.Y) && isNil(cond.X))
}

// checkCtxVariant flags calls to Foo where FooCtx exists (method set or
// package scope) with a leading context parameter.
func checkCtxVariant(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || strings.HasSuffix(fn.Name(), "Ctx") {
		return
	}
	// Already threading: a call whose arguments include a context is
	// context-aware regardless of naming.
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && analysis.IsContextType(tv.Type) {
			return
		}
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	variantName := fn.Name() + "Ctx"
	var variant *types.Func
	if recv := sig.Recv(); recv != nil {
		ms := types.NewMethodSet(recv.Type())
		if sel := ms.Lookup(fn.Pkg(), variantName); sel != nil {
			variant, _ = sel.Obj().(*types.Func)
		}
	} else if fn.Pkg() != nil {
		variant, _ = fn.Pkg().Scope().Lookup(variantName).(*types.Func)
	}
	if variant == nil || !variant.Exported() && variant.Pkg() != pass.Pkg {
		return
	}
	vsig, ok := variant.Type().(*types.Signature)
	if !ok || vsig.Params().Len() == 0 || !analysis.IsContextType(vsig.Params().At(0).Type()) {
		return
	}
	pass.Reportf(call.Pos(), "call to %s drops the context: use %s(ctx, ...) inside a context-bearing function", fn.Name(), variantName)
}
