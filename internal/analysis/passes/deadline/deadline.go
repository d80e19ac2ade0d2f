// Package deadline defines the genalgvet analyzer that keeps network
// operations time-bounded. The wire protocol and daemon (PR 8) promise
// that a stalled or malicious peer cannot pin a goroutine forever; that
// only holds when every conn read/write runs under a deadline.
//
// Rules, applied outside _test.go files:
//
//   - net.Dial blocks without bound: use net.DialTimeout (or a
//     net.Dialer with Timeout).
//   - A read on a net.Conn or a framed *wire.Conn (Conn.Read, or
//     wire.ReadRequest/ReadFrame handed the conn) must be preceded —
//     lexically, within the enclosing declaration — by SetReadDeadline
//     or SetDeadline on the same expression. Writes (Conn.Write,
//     wire.WriteMessage/WriteFrame) need SetWriteDeadline or SetDeadline
//     likewise.
//   - An http.Server composite literal without ReadHeaderTimeout or
//     ReadTimeout, and the http.ListenAndServe shortcuts (which cannot
//     carry timeouts at all), are slowloris-vulnerable.
//
// The lexical approximation is deliberate: arming happens in the same
// function as the I/O everywhere in this codebase (the genalgd request
// loop re-arms per iteration), and a path-insensitive "deadline set
// somewhere above" rule stays explainable in a diagnostic.
package deadline

import (
	"go/ast"
	"go/types"
	"strings"

	"genalg/internal/analysis"
)

// Analyzer is the deadline check.
var Analyzer = &analysis.Analyzer{
	Name: "deadline",
	Doc: "check that dials, conn reads, and conn writes are bounded by deadlines\n\n" +
		"Reads need a prior SetReadDeadline/SetDeadline on the same conn expression, writes a " +
		"SetWriteDeadline/SetDeadline; net.Dial and timeout-less http servers are flagged directly.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				checkServerLit(pass, lit)
			}
			return true
		})
	}
	return nil
}

// checkFunc walks one declaration in source order, tracking which conn
// expressions have been armed with read/write deadlines.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	armedRead := map[string]bool{}
	armedWrite := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		checkCall(pass, call, armedRead, armedWrite)
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, armedRead, armedWrite map[string]bool) {
	info := pass.TypesInfo

	// Arming.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && isConn(info, sel.X) {
		expr := types.ExprString(sel.X)
		switch sel.Sel.Name {
		case "SetDeadline":
			armedRead[expr] = true
			armedWrite[expr] = true
			return
		case "SetReadDeadline":
			armedRead[expr] = true
			return
		case "SetWriteDeadline":
			armedWrite[expr] = true
			return
		case "Read":
			if !armedRead[expr] {
				pass.Reportf(call.Pos(), "read on %s without a read deadline: a silent peer pins this goroutine forever (SetReadDeadline first)", expr)
			}
			return
		case "Write":
			if !armedWrite[expr] {
				pass.Reportf(call.Pos(), "write on %s without a write deadline: a stalled peer pins this goroutine forever (SetWriteDeadline first)", expr)
			}
			return
		}
	}

	// wire framing helpers handed a raw conn.
	if len(call.Args) >= 1 && isConn(info, call.Args[0]) {
		expr := types.ExprString(ast.Unparen(call.Args[0]))
		if analysis.IsPkgFuncCall(info, call, "wire", "ReadRequest", "ReadFrame") && !armedRead[expr] {
			pass.Reportf(call.Pos(), "wire read from %s without a read deadline: a silent peer pins this goroutine forever (SetReadDeadline first)", expr)
			return
		}
		if analysis.IsPkgFuncCall(info, call, "wire", "WriteMessage", "WriteFrame") && !armedWrite[expr] {
			pass.Reportf(call.Pos(), "wire write to %s without a write deadline: a stalled peer pins this goroutine forever (SetWriteDeadline first)", expr)
			return
		}
	}

	// Unbounded dials and timeout-less HTTP servers.
	if fn := analysis.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil {
		switch {
		case fn.Pkg().Path() == "net" && fn.Name() == "Dial" && analysis.RecvName(fn) == "":
			pass.Reportf(call.Pos(), "net.Dial blocks without bound: use net.DialTimeout or a net.Dialer with Timeout")
		case fn.Pkg().Path() == "net/http" && (fn.Name() == "ListenAndServe" || fn.Name() == "ListenAndServeTLS") && analysis.RecvName(fn) == "":
			pass.Reportf(call.Pos(), "http.%s serves with no timeouts at all: construct an http.Server with ReadHeaderTimeout set", fn.Name())
		}
	}
}

// checkServerLit flags http.Server literals with neither ReadTimeout nor
// ReadHeaderTimeout.
func checkServerLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	n := analysis.NamedRecv(tv.Type)
	if n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "net/http" || n.Obj().Name() != "Server" {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && (key.Name == "ReadTimeout" || key.Name == "ReadHeaderTimeout") {
				return
			}
		}
	}
	pass.Reportf(lit.Pos(), "http.Server without ReadTimeout or ReadHeaderTimeout: a slowloris client holds its connection (and goroutine) open forever")
}

// isConn reports whether e's type is a net connection: the net.Conn
// interface or one of net's concrete conn types (possibly behind a
// pointer).
func isConn(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil {
		return false
	}
	n := analysis.NamedRecv(tv.Type)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	switch pkg := n.Obj().Pkg(); {
	case pkg.Name() == "wire":
		// wire.Conn wraps a net.Conn and carries its deadlines.
		return n.Obj().Name() == "Conn"
	case pkg.Path() != "net":
		return false
	}
	switch n.Obj().Name() {
	case "Conn", "TCPConn", "UDPConn", "UnixConn":
		return true
	}
	return false
}
