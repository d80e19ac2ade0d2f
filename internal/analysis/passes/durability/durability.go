// Package durability defines the genalgvet analyzer that enforces the
// ack-after-fsync contract around the WAL (PR 8):
//
//  1. An LSN returned by wal.Log.AppendTxn must reach WaitDurable (or a
//     helper whose pathflow summary proves it waits) on every path —
//     acknowledging a transaction whose frames are still in the OS page
//     cache is the exact bug kill -9 recovery exists to rule out.
//  2. Outside internal/db, table mutations must route through
//     DB.ApplyDML (the only path that logs, syncs, and checkpoints);
//     calling Table.Insert/Delete directly writes heap pages the WAL
//     knows nothing about, so a crash silently forgets them. Index DDL
//     likewise goes through DB.CreateBTreeIndexOn/CreateGenomicIndexOn:
//     Table.CreateBTreeIndex/CreateGenomicIndex build an index the log
//     never records, so it is gone after restart.
//  3. In genalgd, a wire response carrying a statement result must be
//     written inside the beginWork/endWork inflight window and never
//     from a spawned goroutine: drain waits on that window so every
//     acknowledged statement's ack reaches the wire before connections
//     close. Error/rejection responses (composite literals setting Error
//     or Draining) are exempt — they are refusals, not acks.
//
// Test files are exempt from all three: crash-injection tests
// deliberately append without syncing, and test setup seeds tables
// directly.
package durability

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"genalg/internal/analysis"
	"genalg/internal/analysis/pathflow"
)

// Analyzer is the durability check.
var Analyzer = &analysis.Analyzer{
	Name: "durability",
	Doc: "check ack-after-fsync: AppendTxn LSNs reach WaitDurable, mutations route through ApplyDML and index DDL through DB.Create…IndexOn, genalgd acks stay in the drain window\n\n" +
		"The WaitDurable obligation is path-sensitive and interprocedural (a helper summarized as waiting " +
		"discharges it); returning or storing the LSN hands the obligation to the new owner.",
	Run:   run,
	Facts: []*analysis.FactComputer{pathflow.Facts},
}

func run(pass *analysis.Pass) error {
	inDB := analysis.PkgIs(pass.Pkg.Path(), "db")
	inDaemon := analysis.PkgIs(pass.Pkg.Path(), "genalgd")
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		analysis.WalkStack([]*ast.File{file}, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAppendTxn(pass, n, stack)
			case *ast.ExprStmt:
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && isAppendTxn(pass.TypesInfo, call) {
					pass.Reportf(call.Pos(), "LSN from AppendTxn dropped: nothing can WaitDurable for this transaction")
				}
			case *ast.CallExpr:
				if !inDB {
					checkDirectMutation(pass, n)
				}
				if inDaemon {
					checkAckWindow(pass, n, stack)
				}
			}
			return true
		})
	}
	return nil
}

func isAppendTxn(info *types.Info, call *ast.CallExpr) bool {
	return analysis.IsMethodCall(info, call, "wal", "Log", "AppendTxn")
}

// checkAppendTxn enforces invariant 1 at `lsn, err := log.AppendTxn(...)`.
func checkAppendTxn(pass *analysis.Pass, s *ast.AssignStmt, stack []ast.Node) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok || !isAppendTxn(pass.TypesInfo, call) || len(s.Lhs) != 2 {
		return
	}
	lsnObj := analysis.LHSObj(pass.TypesInfo, s.Lhs[0])
	if lsnObj == nil {
		pass.Reportf(call.Pos(), "LSN from AppendTxn dropped: nothing can WaitDurable for this transaction")
		return
	}
	errObj := analysis.LHSObj(pass.TypesInfo, s.Lhs[1])
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return
	}
	sums := pathflow.FromFacts(pass.Facts)
	ob := &pathflow.Obligation{
		Info: pass.TypesInfo,
		Releases: func(rel *ast.CallExpr) bool {
			callee := analysis.CalleeFunc(pass.TypesInfo, rel)
			if callee != nil && callee.Name() == "WaitDurable" &&
				len(rel.Args) >= 1 && analysis.IdentIs(pass.TypesInfo, rel.Args[0], lsnObj) {
				return true
			}
			if sum, ok := sums.Lookup(callee); ok {
				for _, i := range sum.Waits {
					if i < len(rel.Args) && analysis.IdentIs(pass.TypesInfo, rel.Args[i], lsnObj) {
						return true
					}
				}
			}
			return false
		},
		// Returning/storing the LSN hands the wait obligation to the new
		// owner. Passing it to a call does NOT (an LSN riding through a
		// log line must not silence the check); helpers that genuinely
		// wait are credited through their pathflow summary instead.
		Escapes: func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					if analysis.Mentions(pass.TypesInfo, r, lsnObj) {
						return true
					}
				}
			case *ast.AssignStmt:
				for i, r := range n.Rhs {
					if i < len(n.Lhs) && analysis.IsBlank(n.Lhs[i]) {
						continue
					}
					if analysis.Mentions(pass.TypesInfo, r, lsnObj) {
						return true
					}
				}
			case *ast.SendStmt:
				return analysis.Mentions(pass.TypesInfo, n.Value, lsnObj)
			}
			return false
		},
		ErrVar: errObj,
	}
	leak, ok := ob.Check(fn, s)
	if !ok || leak == nil {
		return
	}
	line := pass.Fset.Position(leak.At.End()).Line
	pass.Reportf(call.Pos(), "LSN from AppendTxn does not reach WaitDurable on every path (%s, line %d): acknowledging before fsync breaks kill -9 durability",
		leak.Kind, line)
}

// checkDirectMutation enforces invariant 2: Table.Insert/Delete and
// Table.CreateBTreeIndex/CreateGenomicIndex outside internal/db.
func checkDirectMutation(pass *analysis.Pass, call *ast.CallExpr) {
	for _, method := range []string{"Insert", "Delete"} {
		if analysis.IsMethodCall(pass.TypesInfo, call, "db", "Table", method) {
			pass.Reportf(call.Pos(), "direct Table.%s bypasses the WAL: route the mutation through DB.ApplyDML so it is logged, fsynced, and checkpointed", method)
			return
		}
	}
	for _, method := range []string{"CreateBTreeIndex", "CreateGenomicIndex"} {
		if analysis.IsMethodCall(pass.TypesInfo, call, "db", "Table", method) {
			pass.Reportf(call.Pos(), "direct Table.%s is unlogged DDL: call DB.%sOn so the index survives restart", method, method)
			return
		}
	}
}

// checkAckWindow enforces invariant 3 at wire.WriteMessage calls in
// genalgd.
func checkAckWindow(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) {
	if !analysis.IsPkgFuncCall(pass.TypesInfo, call, "wire", "WriteMessage") || len(call.Args) < 2 {
		return
	}
	if isErrorResponse(ast.Unparen(call.Args[1])) {
		return
	}
	for _, n := range stack {
		if _, ok := n.(*ast.GoStmt); ok {
			pass.Reportf(call.Pos(), "wire response written from a spawned goroutine: the ack escapes the inflight window drain waits on")
			return
		}
	}
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return
	}
	_, body := analysis.FuncParts(fn)
	begin, end := workWindow(body)
	if !begin.IsValid() || call.Pos() < begin || (end.IsValid() && call.Pos() > end) {
		pass.Reportf(call.Pos(), "wire response written outside the beginWork/endWork inflight window: drain can close the connection before this ack reaches the wire")
	}
}

// isErrorResponse reports whether e constructs an error/refusal response:
// a (possibly &-ed) composite literal setting Error or Draining.
func isErrorResponse(e ast.Expr) bool {
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = ast.Unparen(u.X)
	}
	comp, ok := e.(*ast.CompositeLit)
	if !ok {
		return false
	}
	for _, elt := range comp.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "Error" || key.Name == "Draining") {
			return true
		}
	}
	return false
}

// workWindow finds the positions of the first beginWork and last endWork
// calls in body (token.NoPos when absent).
func workWindow(body *ast.BlockStmt) (begin, end token.Pos) {
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "beginWork":
				if !begin.IsValid() {
					begin = call.Pos()
				}
			case "endWork":
				if call.Pos() > end {
					end = call.Pos()
				}
			}
		}
		return true
	})
	return
}
