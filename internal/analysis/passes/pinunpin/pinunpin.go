// Package pinunpin defines the genalgvet analyzer that enforces the
// buffer-pool pin discipline: every storage.BufferPool.Pin (and the pin
// implicit in Allocate) must be matched by an Unpin of the same page on
// every execution path. A page whose pin count never returns to zero can
// never be evicted, so a single missed error-path Unpin slowly wedges the
// pool until "all frames pinned" failures appear under load — the exact
// leak class PR 1's lock-granularity work and PR 3's Allocate fix removed
// by hand.
package pinunpin

import (
	"go/ast"
	"go/types"

	"genalg/internal/analysis"
	"genalg/internal/analysis/pathflow"
)

// Analyzer is the pinunpin check.
var Analyzer = &analysis.Analyzer{
	Name: "pinunpin",
	Doc: "check that every BufferPool.Pin/Allocate is matched by an Unpin of the same page on all paths\n\n" +
		"A pin leak permanently occupies a buffer-pool frame; enough of them exhaust the pool. " +
		"The release may be direct, deferred, performed by a spawned goroutine, or delegated to a " +
		"helper whose pathflow summary proves it calls Unpin(pool, id) on every path; paths where " +
		"the acquisition itself failed (guarded by `if err != nil` on the acquisition's error) are exempt; " +
		"returning or storing the pinned page hands ownership to the caller and discharges the check.",
	Run:   run,
	Facts: []*analysis.FactComputer{pathflow.Facts},
}

func run(pass *analysis.Pass) error {
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if name, is := pinCall(pass.TypesInfo, call); is {
					pass.Reportf(call.Pos(), "result of %s dropped: the page stays pinned with no way to Unpin it", name)
				}
			}
		case *ast.AssignStmt:
			checkAcquire(pass, s, stack)
		}
		return true
	})
	return nil
}

// pinCall reports whether call pins a page: BufferPool.Pin or
// BufferPool.Allocate.
func pinCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	if analysis.IsMethodCall(info, call, "storage", "BufferPool", "Pin") {
		return "BufferPool.Pin", true
	}
	if analysis.IsMethodCall(info, call, "storage", "BufferPool", "Allocate") {
		return "BufferPool.Allocate", true
	}
	return "", false
}

func checkAcquire(pass *analysis.Pass, s *ast.AssignStmt, stack []ast.Node) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, is := pinCall(pass.TypesInfo, call)
	if !is {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	recvStr := types.ExprString(sel.X)

	// Identify the page key the Unpin must name, the page variable, and
	// the acquisition's error variable.
	var keyStr string
	var pageObj, keyObj types.Object
	var errObj types.Object
	switch name {
	case "BufferPool.Pin": // pg, err := bp.Pin(id)
		if len(call.Args) != 1 || len(s.Lhs) != 2 {
			return
		}
		keyStr = types.ExprString(call.Args[0])
		pageObj = analysis.LHSObj(pass.TypesInfo, s.Lhs[0])
		errObj = analysis.LHSObj(pass.TypesInfo, s.Lhs[1])
	case "BufferPool.Allocate": // id, pg, err := bp.Allocate()
		if len(s.Lhs) != 3 {
			return
		}
		keyObj = analysis.LHSObj(pass.TypesInfo, s.Lhs[0])
		if keyObj == nil {
			// Allocating and discarding the new page's ID: nothing can
			// ever Unpin it.
			pass.Reportf(call.Pos(), "page ID from %s dropped: the new page stays pinned with no way to Unpin it", name)
			return
		}
		keyStr = keyObj.Name()
		pageObj = analysis.LHSObj(pass.TypesInfo, s.Lhs[1])
		errObj = analysis.LHSObj(pass.TypesInfo, s.Lhs[2])
	}

	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return
	}
	sums := pathflow.FromFacts(pass.Facts)
	ob := &pathflow.Obligation{
		Info: pass.TypesInfo,
		Releases: func(rel *ast.CallExpr) bool {
			if analysis.IsMethodCall(pass.TypesInfo, rel, "storage", "BufferPool", "Unpin") {
				rsel, ok := ast.Unparen(rel.Fun).(*ast.SelectorExpr)
				if !ok || len(rel.Args) < 1 {
					return false
				}
				return types.ExprString(rsel.X) == recvStr &&
					types.ExprString(rel.Args[0]) == keyStr
			}
			// A helper summarized as unpinning (pool, id) parameter pair
			// releases on the caller's behalf: releaseHelper(bp, id).
			if sum, ok := sums.LookupCall(pass.TypesInfo, rel); ok {
				for _, pr := range sum.Pins {
					if pr[0] < len(rel.Args) && pr[1] < len(rel.Args) &&
						types.ExprString(rel.Args[pr[0]]) == recvStr &&
						types.ExprString(rel.Args[pr[1]]) == keyStr {
						return true
					}
				}
			}
			return false
		},
		Escapes: func(n ast.Node) bool {
			return escapesThrough(pass.TypesInfo, n, pageObj, keyObj)
		},
		ErrVar: errObj,
	}
	leak, ok := ob.Check(fn, s)
	if !ok || leak == nil {
		return
	}
	line := pass.Fset.Position(leak.At.End()).Line
	pass.Reportf(call.Pos(), "%s(%s): pinned page is not released by %s.Unpin(%s, ...) on every path (%s, line %d)",
		name, keyStr, recvStr, keyStr, leak.Kind, line)
}

// escapesThrough reports whether the pinned page (or its ID, for
// Allocate) is handed off at node n: returned to the caller, passed as a
// call argument, stored into a structure, or aliased — after which the
// new owner carries the Unpin obligation.
func escapesThrough(info *types.Info, n ast.Node, pageObj, keyObj types.Object) bool {
	uses := func(e ast.Expr) bool {
		return analysis.IdentIs(info, e, pageObj) || (keyObj != nil && analysis.IdentIs(info, e, keyObj))
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if analysis.Mentions(info, r, pageObj) || (keyObj != nil && analysis.Mentions(info, r, keyObj)) {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		for i, r := range n.Rhs {
			// `_ = pg` is a use marker, not a handoff.
			if i < len(n.Lhs) && analysis.IsBlank(n.Lhs[i]) {
				continue
			}
			if uses(r) {
				return true // aliased: pg2 := pg / w.page = pg
			}
			if comp, ok := ast.Unparen(r).(*ast.CompositeLit); ok && analysis.Mentions(info, comp, pageObj) {
				return true
			}
		}
		return false
	case ast.Stmt:
		escaped := false
		ast.Inspect(n, func(m ast.Node) bool {
			if escaped {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				// Only the page pointer transfers ownership through a
				// call; page IDs ride through formatting and logging
				// calls all the time without doing so.
				if analysis.IdentIs(info, arg, pageObj) {
					escaped = true
				}
			}
			return true
		})
		return escaped
	}
	return false
}
