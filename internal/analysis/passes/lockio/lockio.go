// Package lockio defines the genalgvet analyzer that keeps blocking work
// out of critical sections. The buffer pool, warehouse, and ETL layers
// all guard in-memory maps with sync.Mutex; holding one of those locks
// across pager reads, OS file I/O, network dials, or a parallel.Map
// fan-out serializes the whole subsystem behind a single disk seek (and,
// for the worker pool, can deadlock if a mapped function needs the same
// lock). The analyzer tracks Lock/RLock..Unlock/RUnlock windows
// structurally within each function and reports blocking calls inside
// them. Sites that hold a lock across I/O deliberately (the buffer
// pool's miss path) carry //genalgvet:ignore suppressions that double as
// design documentation.
package lockio

import (
	"go/ast"
	"go/types"
	"strings"

	"genalg/internal/analysis"
)

// Analyzer is the lockio check.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: "check that no pager/disk/network I/O or parallel fan-out happens while a sync.Mutex or RWMutex is held\n\n" +
		"Blocking callees: storage.Pager methods, storage.BufferPool.{Pin,Allocate,FlushAll}, " +
		"os file I/O, package net/net-http calls, and parallel.{Map,MapAll,ForEach}.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Body != nil {
				scanStmts(pass, fd.Body.List, map[string]bool{})
			}
		}
	}
	return nil
}

// scanStmts walks a statement list tracking which mutexes are held.
// Nested blocks get a copy of the held set; FuncLit bodies are not
// descended into (a closure's body does not necessarily run under the
// lock that is held where it is defined).
func scanStmts(pass *analysis.Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, s := range stmts {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if key, acquired, ok := lockOp(pass.TypesInfo, st.X); ok {
				if acquired {
					held[key] = true
				} else {
					delete(held, key)
				}
				continue
			}
			checkExpr(pass, st.X, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to function end; a
			// deferred blocking call itself runs after any same-function
			// unlocks, so it is not checked against the current window.
			continue
		case *ast.GoStmt:
			// The goroutine body runs without this goroutine's locks.
			continue
		case *ast.BlockStmt:
			scanStmts(pass, st.List, copyHeld(held))
		case *ast.IfStmt:
			checkStmtExprs(pass, st.Init, held)
			checkExpr(pass, st.Cond, held)
			scanStmts(pass, st.Body.List, copyHeld(held))
			if st.Else != nil {
				scanStmts(pass, []ast.Stmt{st.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			checkStmtExprs(pass, st.Init, held)
			if st.Cond != nil {
				checkExpr(pass, st.Cond, held)
			}
			checkStmtExprs(pass, st.Post, held)
			scanStmts(pass, st.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			checkExpr(pass, st.X, held)
			scanStmts(pass, st.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			checkStmtExprs(pass, st.Init, held)
			if st.Tag != nil {
				checkExpr(pass, st.Tag, held)
			}
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					scanStmts(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					scanStmts(pass, cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			scanStmts(pass, []ast.Stmt{st.Stmt}, held)
		default:
			checkStmtExprs(pass, s, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// checkStmtExprs reports blocking calls in the expressions of a simple
// statement (assignments, returns, sends, ...).
func checkStmtExprs(pass *analysis.Pass, s ast.Stmt, held map[string]bool) {
	if s == nil || len(held) == 0 {
		return
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			reportBlocking(pass, n, held)
		}
		return true
	})
}

func checkExpr(pass *analysis.Pass, e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			reportBlocking(pass, n, held)
		}
		return true
	})
}

func reportBlocking(pass *analysis.Pass, call *ast.CallExpr, held map[string]bool) {
	desc, callee, ok := blockingCall(pass.TypesInfo, call)
	if !ok {
		return
	}
	locks := make([]string, 0, len(held))
	for k := range held {
		locks = append(locks, k)
	}
	// Deterministic message for the common single-lock case.
	lock := "a mutex"
	if len(locks) == 1 {
		lock = locks[0]
	}
	pass.Reportf(call.Pos(), "call to %s (%s) while %s is held: move the blocking work outside the critical section", callee, desc, lock)
}

// lockOp recognizes X.Lock()/RLock() (acquire) and X.Unlock()/RUnlock()
// (release) on sync.Mutex/RWMutex values, keyed by the receiver
// expression as written (e.g. "bp.mu").
func lockOp(info *types.Info, e ast.Expr) (key string, acquired, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, true
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

var osBlocking = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Remove": true, "RemoveAll": true, "Rename": true, "Mkdir": true,
	"MkdirAll": true, "Stat": true, "Lstat": true, "Truncate": true,
}

var osFileBlocking = map[string]bool{
	"Read": true, "ReadAt": true, "Write": true, "WriteAt": true,
	"Sync": true, "Seek": true, "Close": true, "Truncate": true,
}

var pagerMethods = map[string]bool{
	"Read": true, "Write": true, "Allocate": true,
}

var bufferPoolBlocking = map[string]bool{
	"Pin": true, "Allocate": true, "FlushAll": true,
}

var parallelFanout = map[string]bool{
	"Map": true, "MapAll": true, "ForEach": true,
}

// blockingCall classifies a call as blocking I/O or fan-out work that
// must not run under a lock. It returns a short kind description and the
// callee's display name.
func blockingCall(info *types.Info, call *ast.CallExpr) (desc, callee string, ok bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	recv := recvTypeName(fn)

	switch {
	case path == "os" && recv == "" && osBlocking[name]:
		return "file I/O", "os." + name, true
	case path == "os" && recv == "File" && osFileBlocking[name]:
		return "file I/O", "os.File." + name, true
	case path == "net" || path == "net/http" || strings.HasPrefix(path, "net/"):
		return "network I/O", lastSeg(path) + "." + withRecv(recv, name), true
	case analysis.PkgIs(path, "parallel") && recv == "" && parallelFanout[name]:
		return "worker-pool fan-out", "parallel." + name, true
	case analysis.PkgIs(path, "storage") && recv == "Pager" && pagerMethods[name]:
		return "pager I/O", "Pager." + name, true
	case analysis.PkgIs(path, "storage") && recv == "BufferPool" && bufferPoolBlocking[name]:
		return "buffer-pool I/O", "BufferPool." + name, true
	}
	return "", "", false
}

// recvTypeName returns the bare named type of fn's receiver ("" for
// package-level functions), looking through pointers.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func withRecv(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}

func lastSeg(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
