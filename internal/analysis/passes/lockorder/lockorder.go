// Package lockorder defines the genalgvet analyzer that builds a
// whole-program mutex acquisition graph and reports lock-order cycles,
// locks held across long blocking waits, and blocking I/O or fan-out
// inside a critical section.
//
// Each sync.Mutex/RWMutex use is abstracted to a lock CLASS: the named
// type owning the field ("db.DB.dmlMu"), a package-level variable
// ("wal.groupMu"), or a function-local variable ("loadgen.run.mu").
// Per-function facts record which classes a function acquires, which
// held→acquired edges it creates, and which blocking waits it can reach
// (WaitDurable, fsync, net.Conn reads/writes, wire framing I/O) — all
// transitively through the call graph via the facts side-channel. A
// cycle in the merged edge graph means two goroutines can take the same
// two locks in opposite orders and deadlock; a lock held across a
// durability wait or a stalled peer's write starves every competing
// acquirer for the full wait.
//
// Shorter blocking work is reported only where it is called under a
// lock: pager and buffer-pool I/O, OS file I/O, network calls, and a
// parallel.Map/MapAll/ForEach fan-out (which can also deadlock if a
// mapped function needs the same lock). Holding a lock across a disk
// seek serializes the whole subsystem behind it. These direct-only
// categories never enter the per-function facts, so a caller of a
// function that does I/O under its own lock is not reported. Sites that
// hold a lock across I/O deliberately (the buffer pool's miss path, the
// WAL's append mutex) carry //genalgvet:ignore suppressions that double
// as design documentation.
//
// Limits, by design: acquisition tracking is structural, goroutine and
// defer bodies run outside the current window, and two instances of the
// same class acquired back-to-back are only reported when the receiver
// expressions match textually (instance-ordering schemes cannot be
// proven here). RLock participates like Lock: read locks still deadlock
// against writers in a cycle.
package lockorder

import (
	"go/ast"
	"go/types"
	"reflect"
	"sort"
	"strings"

	"genalg/internal/analysis"
)

const domainName = "lockorder"

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check for lock-order cycles, locks held across durability waits, fsyncs, or peer network I/O, and blocking I/O under a lock\n\n" +
		"Acquisition edges and reachable blocking waits are summarized per function and merged across " +
		"packages through the facts side-channel, so a cycle split between db and genalgd is still a cycle. " +
		"Pager and buffer-pool I/O, os file I/O, net calls and parallel.{Map,MapAll,ForEach} are reported " +
		"at the call site only.",
	Run:   run,
	Facts: []*analysis.FactComputer{Facts},
}

// fnLocks is the per-function fact entry (transitive over callees).
type fnLocks struct {
	Acquires []string
	Blocks   []string
	Edges    [][2]string
}

// Facts computes the lockorder domain.
var Facts = &analysis.FactComputer{
	Domain: domainName,
	Compute: func(pkg *analysis.Package, imported *analysis.FactSet) map[string]any {
		return computeLocal(pkg.Files, pkg.TypesInfo, imported.Domain(domainName))
	},
}

// table resolves function keys to *fnLocks entries: local first, then
// imported, the imports' lockorder facts (read-only).
type table struct {
	local, imported map[string]any
}

func (t table) lookup(key string) *fnLocks {
	v, ok := t.local[key]
	if !ok {
		v = t.imported[key]
	}
	e, _ := v.(*fnLocks)
	return e
}

// computeLocal summarizes every FuncDecl in pkg, iterating to a fixpoint
// so same-package helper chains resolve in any declaration order.
func computeLocal(files []*ast.File, info *types.Info, imported map[string]any) map[string]any {
	type decl struct {
		fd  *ast.FuncDecl
		key string
	}
	var decls []decl
	for _, file := range files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, decl{fd, fn.FullName()})
		}
	}
	tbl := table{local: map[string]any{}, imported: imported}
	for iter := 0; iter < 10; iter++ {
		changed := false
		for _, d := range decls {
			e := summarizeFn(info, d.fd, tbl)
			if !reflect.DeepEqual(tbl.local[d.key], e) {
				tbl.local[d.key] = e
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return tbl.local
}

// summarizeFn collects fd's acquisitions, edges, and reachable blocking
// waits, inheriting from callees through table.
func summarizeFn(info *types.Info, fd *ast.FuncDecl, tbl table) *fnLocks {
	e := &fnLocks{}
	acquires := map[string]bool{}
	blocks := map[string]bool{}
	edges := map[[2]string]bool{}
	sc := &scanner{
		info:   info,
		fnName: fd.Name.Name,
		table:  tbl,
		acquire: func(call *ast.CallExpr, id, expr, via string, held []heldLock) {
			acquires[id] = true
			for _, h := range held {
				edges[[2]string{h.id, id}] = true
			}
		},
		blocked: func(call *ast.CallExpr, kind, callee string, held []heldLock) {
			blocks[strings.TrimPrefix(kind, "reaches ")] = true
		},
		inherit: func(sub *fnLocks) {
			for _, ed := range sub.Edges {
				edges[ed] = true
			}
		},
	}
	sc.stmts(fd.Body.List, nil)
	e.Acquires = sortedKeys(acquires)
	e.Blocks = sortedKeys(blocks)
	for ed := range edges {
		e.Edges = append(e.Edges, ed)
	}
	sort.Slice(e.Edges, func(i, j int) bool {
		if e.Edges[i][0] != e.Edges[j][0] {
			return e.Edges[i][0] < e.Edges[j][0]
		}
		return e.Edges[i][1] < e.Edges[j][1]
	})
	return e
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func run(pass *analysis.Pass) error {
	entries := pass.Facts.Domain(domainName)
	if len(entries) == 0 {
		// No facts channel (bare Run): degrade to package-local analysis.
		entries = computeLocal(pass.Files, pass.TypesInfo, nil)
	}
	graph := map[string]map[string]bool{}
	for _, v := range entries {
		for _, ed := range v.(*fnLocks).Edges {
			if graph[ed[0]] == nil {
				graph[ed[0]] = map[string]bool{}
			}
			graph[ed[0]][ed[1]] = true
		}
	}
	report := func(call *ast.CallExpr, kind, callee string, held []heldLock) {
		if len(held) == 0 {
			return
		}
		lock := "a mutex"
		if len(held) == 1 {
			lock = held[0].expr
		}
		pass.Reportf(call.Pos(), "call to %s (%s) while %s is held: every goroutine contending for the lock stalls behind the wait", callee, kind, lock)
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			sc := &scanner{
				info:   pass.TypesInfo,
				fnName: fd.Name.Name,
				table:  table{local: entries},
				acquire: func(call *ast.CallExpr, id, expr, via string, held []heldLock) {
					reportAcquire(pass, graph, call, id, expr, via, held)
				},
				blocked: report,
				io:      report,
			}
			sc.stmts(fd.Body.List, nil)
		}
	}
	return nil
}

// reportAcquire checks one acquisition (direct, or via a summarized
// callee) against the locks currently held.
func reportAcquire(pass *analysis.Pass, graph map[string]map[string]bool, call *ast.CallExpr, id, expr, via string, held []heldLock) {
	for _, h := range held {
		if h.id == id {
			switch {
			case via != "":
				pass.Reportf(call.Pos(), "call to %s acquires %s while it is already held: re-entrant locking deadlocks", via, id)
			case h.expr == expr:
				pass.Reportf(call.Pos(), "re-acquiring %s while it is already held: sync.Mutex is not re-entrant", expr)
			}
			// Same class, different receiver expression: instance
			// ordering is not provable here; stay silent.
			continue
		}
		if path := reach(graph, id, h.id); path != nil {
			cycle := append([]string{h.id}, path...)
			pass.Reportf(call.Pos(), "lock-order cycle: acquiring %s while holding %s, but elsewhere the order is reversed (%s): goroutines taking the locks in opposite orders deadlock",
				id, h.id, strings.Join(cycle, " -> "))
		}
	}
}

// reach returns a path id -> ... -> target in the edge graph (BFS), or
// nil when target is unreachable.
func reach(graph map[string]map[string]bool, id, target string) []string {
	parent := map[string]string{id: ""}
	queue := []string{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := range graph[cur] {
			if _, seen := parent[next]; seen {
				continue
			}
			parent[next] = cur
			if next == target {
				var path []string
				for n := target; n != ""; n = parent[n] {
					path = append([]string{n}, path...)
				}
				return path
			}
			queue = append(queue, next)
		}
	}
	return nil
}

// heldLock is one entry of the ordered held-locks list: the lock class
// and the receiver expression as written.
type heldLock struct{ id, expr string }

// scanner walks a function body tracking held locks, firing acquire,
// blocked and io events. The walk is structural: branch bodies get a
// copy of the held list, defer/go/FuncLit bodies are not descended into.
type scanner struct {
	info    *types.Info
	fnName  string
	table   table
	acquire func(call *ast.CallExpr, id, expr, via string, held []heldLock)
	blocked func(call *ast.CallExpr, kind, callee string, held []heldLock)
	// io receives direct-only blocking I/O; nil when summarizing.
	io func(call *ast.CallExpr, kind, callee string, held []heldLock)
	// inherit receives callee edges, for summarization; may be nil.
	inherit func(sub *fnLocks)
}

func (sc *scanner) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		switch st := s.(type) {
		case *ast.ExprStmt:
			if l, acquired, ok := sc.lockOp(st.X); ok {
				call := ast.Unparen(st.X).(*ast.CallExpr)
				if acquired {
					sc.acquire(call, l.id, l.expr, "", held)
					held = append(held, l)
				} else {
					held = release(held, l)
				}
				continue
			}
			sc.calls(st.X, held)
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to function end; the
			// deferred call itself runs outside the current window.
			continue
		case *ast.GoStmt:
			continue
		case *ast.BlockStmt:
			sc.stmts(st.List, copyHeld(held))
		case *ast.IfStmt:
			sc.calls(st.Init, held)
			sc.calls(st.Cond, held)
			sc.stmts(st.Body.List, copyHeld(held))
			if st.Else != nil {
				sc.stmts([]ast.Stmt{st.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			sc.calls(st.Init, held)
			sc.calls(st.Cond, held)
			sc.calls(st.Post, held)
			sc.stmts(st.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			sc.calls(st.X, held)
			sc.stmts(st.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			sc.calls(st.Init, held)
			sc.calls(st.Tag, held)
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					sc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					sc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.SelectStmt:
			for _, c := range st.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					sc.stmts(cc.Body, copyHeld(held))
				}
			}
		case *ast.LabeledStmt:
			held = sc.stmts([]ast.Stmt{st.Stmt}, held)
		default:
			sc.calls(s, held)
		}
	}
	return held
}

func copyHeld(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// release removes the most recent held entry matching l's class
// (preferring an exact expression match).
func release(held []heldLock, l heldLock) []heldLock {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].id == l.id && held[i].expr == l.expr {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].id == l.id {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// calls fires call events for every call in a simple statement or an
// expression (n may be nil), skipping function literal bodies.
func (sc *scanner) calls(n ast.Node, held []heldLock) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			sc.call(n, held)
		}
		return true
	})
}

// call classifies a non-lock-op call: direct blocking wait, direct
// blocking I/O (which may also be a summarized callee), or a summarized
// callee whose acquisitions and blocks are inherited.
func (sc *scanner) call(call *ast.CallExpr, held []heldLock) {
	if kind, callee, ok := blockingWait(sc.info, call); ok {
		sc.blocked(call, kind, callee, held)
		return
	}
	if sc.io != nil {
		if kind, callee, ok := blockingIO(sc.info, call); ok {
			sc.io(call, kind, callee, held)
		}
	}
	fn := analysis.CalleeFunc(sc.info, call)
	if fn == nil {
		return
	}
	sub := sc.table.lookup(fn.FullName())
	if sub == nil {
		return
	}
	display := displayName(fn)
	for _, kind := range sub.Blocks {
		// kind stays the base kind (facts never stack "reaches" prefixes
		// as summaries nest); the display names the first hop.
		sc.blocked(call, "reaches "+kind, display, held)
	}
	for _, id := range sub.Acquires {
		sc.acquire(call, id, "", display, held)
	}
	if sc.inherit != nil {
		sc.inherit(sub)
	}
}

// lockOp recognizes X.Lock()/RLock()/Unlock()/RUnlock() on sync types.
func (sc *scanner) lockOp(e ast.Expr) (l heldLock, acquired, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return heldLock{}, false, false
	}
	fn := analysis.CalleeFunc(sc.info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return heldLock{}, false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return heldLock{}, false, false
	}
	l = heldLock{id: sc.lockID(sel.X), expr: types.ExprString(sel.X)}
	switch fn.Name() {
	case "Lock", "RLock":
		return l, true, true
	case "Unlock", "RUnlock":
		return l, false, true
	}
	return heldLock{}, false, false
}

// lockID abstracts a mutex receiver expression to its lock class.
func (sc *scanner) lockID(e ast.Expr) string {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if selx := sc.info.Selections[x]; selx != nil {
			if n := analysis.NamedRecv(selx.Recv()); n != nil && n.Obj().Pkg() != nil {
				return qual(n.Obj().Pkg()) + "." + n.Obj().Name() + "." + x.Sel.Name
			}
		}
		if obj := sc.info.Uses[x.Sel]; obj != nil && obj.Pkg() != nil {
			return qual(obj.Pkg()) + "." + x.Sel.Name
		}
	case *ast.Ident:
		obj := sc.info.Uses[x]
		if obj == nil {
			obj = sc.info.Defs[x]
		}
		if obj == nil || obj.Pkg() == nil {
			break
		}
		// A named non-sync type embedding a mutex: the class is the type.
		if n := analysis.NamedRecv(obj.Type()); n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() != "sync" {
			return qual(n.Obj().Pkg()) + "." + n.Obj().Name()
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return qual(obj.Pkg()) + "." + obj.Name()
		}
		return qual(obj.Pkg()) + "." + sc.fnName + "." + obj.Name()
	}
	return types.ExprString(e)
}

func qual(p *types.Package) string {
	path := p.Path()
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

var wireIO = map[string]bool{
	"WriteMessage": true, "WriteFrame": true, "ReadFrame": true, "ReadRequest": true,
}

// blockingWait classifies direct calls that can block for a long,
// externally-controlled time: durability waits, fsyncs, and peer network
// reads/writes. These enter the facts, so callers inherit them.
func blockingWait(info *types.Info, call *ast.CallExpr) (kind, callee string, ok bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	recv := analysis.RecvName(fn)
	switch {
	case name == "WaitDurable" && recv != "":
		return "durability wait", recv + "." + name, true
	case name == "Sync" && ((path == "os" && recv == "File") || (analysis.PkgIs(path, "wal") && recv == "Log")):
		return "fsync", recv + "." + name, true
	case path == "net" && recv != "" && (name == "Read" || name == "Write"):
		return "peer network I/O", recv + "." + name, true
	case analysis.PkgIs(path, "wire") && recv == "" && wireIO[name]:
		return "wire framing I/O", "wire." + name, true
	}
	return "", "", false
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

var pagerMethods = map[string]bool{"Read": true, "Write": true, "Allocate": true}

var bufferPoolBlocking = map[string]bool{"Pin": true, "Allocate": true, "FlushAll": true}

var parallelFanout = map[string]bool{"Map": true, "MapAll": true, "ForEach": true}

// blockingIO classifies the direct calls that block on the disk, the
// network or the worker pool. They are reported at the call site only.
func blockingIO(info *types.Info, call *ast.CallExpr) (kind, callee string, ok bool) {
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return "", "", false
	}
	path := fn.Pkg().Path()
	name := fn.Name()
	recv := analysis.RecvName(fn)
	switch {
	case path == "os" && recv == "" && osBlocking[name]:
		return "file I/O", "os." + name, true
	case path == "os" && recv == "File" && osFileBlocking[name]:
		return "file I/O", "os.File." + name, true
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network I/O", qual(fn.Pkg()) + "." + displayName(fn), true
	case analysis.PkgIs(path, "parallel") && recv == "" && parallelFanout[name]:
		return "worker-pool fan-out", "parallel." + name, true
	case analysis.PkgIs(path, "storage") && recv == "Pager" && pagerMethods[name]:
		return "pager I/O", "Pager." + name, true
	case analysis.PkgIs(path, "storage") && recv == "BufferPool" && bufferPoolBlocking[name]:
		return "buffer-pool I/O", "BufferPool." + name, true
	}
	return "", "", false
}

func displayName(fn *types.Func) string {
	if recv := analysis.RecvName(fn); recv != "" {
		return recv + "." + fn.Name()
	}
	return fn.Name()
}
