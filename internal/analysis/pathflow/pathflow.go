// Package pathflow implements the conservative all-paths release check
// behind the pinunpin and spanend analyzers: given "resource acquired at
// statement S inside function F", it verifies that every execution path
// from S to an exit of F observes a release (directly, via defer, or by
// handing the resource off).
//
// The analysis is structural, not CFG-based: it walks the statement tree,
// threading a "discharged" bit through sequences and merging it across
// branches. That trades completeness for zero dependencies and very few
// false positives on idiomatic Go:
//
//   - defer release (including `defer func() { r.End(err) }()`) discharges
//     the rest of the function;
//   - an `if err != nil` branch on the acquisition's own error variable is
//     exempt (the resource was never acquired on that path), until err is
//     reassigned;
//   - loops are treated optimistically (a release inside a loop body counts
//     for the code after it), and an acquisition *inside* a loop body must
//     be discharged by the end of the iteration, since the next iteration
//     re-acquires;
//   - goto is rare enough here that a function containing one is skipped.
package pathflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"genalg/internal/analysis"
)

// Obligation configures one acquisition's release requirement.
type Obligation struct {
	Info *types.Info
	// Releases reports whether this call discharges the obligation.
	Releases func(call *ast.CallExpr) bool
	// Escapes reports whether the resource escapes at this statement or
	// return (stored, passed on, returned) — escaped resources are the
	// next owner's problem, not a leak here. May be nil.
	Escapes func(n ast.Node) bool
	// ErrVar is the error variable produced by the acquisition, if any:
	// branches taken only when ErrVar != nil are exempt from the
	// obligation. Cleared internally once ErrVar is reassigned.
	ErrVar types.Object

	errLive bool
}

// Leak describes the first path found that drops the resource.
type Leak struct {
	// At is the exiting node: a return statement, a branch statement, or
	// (for "function end") the whole function body whose closing brace is
	// reached undischarged. Use At.End() to name the exit line.
	At ast.Node
	// Kind is "return", "loop iteration end", "loop branch", or
	// "function end".
	Kind string
}

type state struct {
	discharged bool
}

type checker struct {
	o    *Obligation
	leak *Leak
}

// Check verifies the obligation for the acquisition statement acq inside
// function fn (*ast.FuncDecl or *ast.FuncLit). It returns the first leak
// found, or nil. ok=false means the function shape is outside the
// analysis (goto present, acquisition not found in a statement list) and
// no conclusion should be drawn.
func (o *Obligation) Check(fn ast.Node, acq ast.Stmt) (leak *Leak, ok bool) {
	_, body := analysis.FuncParts(fn)
	if body == nil {
		return nil, false
	}
	if containsGoto(body) {
		return nil, false
	}
	o.errLive = o.ErrVar != nil
	c := &checker{o: o}

	// spine: the chain of statement lists from the function body down to
	// the list that contains acq, with the index of the followed entry.
	type level struct {
		list       []ast.Stmt
		idx        int
		inLoop     bool // this list is (inside) a loop body enclosing acq
		isLoopBody bool // this list IS a loop body enclosing acq
		procEnd    bool // falling off this list ends the function
	}
	var spine []level
	var build func(list []ast.Stmt, inLoop, isLoopBody, procEnd bool) bool
	build = func(list []ast.Stmt, inLoop, isLoopBody, procEnd bool) bool {
		for i, s := range list {
			if s == acq {
				spine = append(spine, level{list, i, inLoop, isLoopBody, procEnd})
				return true
			}
			for _, sub := range subLists(s) {
				if build(sub.list, inLoop || sub.loop, sub.loop, false) {
					spine = append(spine, level{list, i, inLoop, isLoopBody, procEnd})
					return true
				}
			}
		}
		return false
	}
	if !build(body.List, false, false, true) {
		return nil, false
	}
	// spine is innermost-first; walk it outermost-last. Scan the
	// innermost list from just after acq; each enclosing list resumes
	// after the statement that contained the inner list.
	st := state{}
	for li := 0; li < len(spine); li++ {
		lv := spine[li]
		var term bool
		st, term = c.scanList(lv.list[lv.idx+1:], st, lv.inLoop)
		if c.leak != nil {
			return c.leak, true
		}
		if term || st.discharged {
			return nil, true
		}
		if lv.isLoopBody {
			// End of an enclosing loop iteration with the resource still
			// held: the next iteration re-acquires. Report at the last
			// statement of the iteration (or the acquisition itself).
			at := ast.Node(acq)
			if n := len(lv.list); n > 0 {
				at = lv.list[n-1]
			}
			return &Leak{At: at, Kind: "loop iteration end"}, true
		}
		if lv.procEnd {
			// Fell off the end of the function body undischarged. Only a
			// leak if the end of the body is reachable, which the
			// traversal just established.
			return &Leak{At: body, Kind: "function end"}, true
		}
	}
	return nil, true
}

// scanList walks stmts with incoming state st. It reports the state after
// the list falls through and whether every path through the list
// terminated (returned). iterExit marks a list whose fall-through leaves a
// loop iteration that re-acquires.
func (c *checker) scanList(stmts []ast.Stmt, st state, iterExit bool) (out state, terminated bool) {
	for _, s := range stmts {
		if c.leak != nil {
			return st, false
		}
		var term bool
		st, term = c.scanStmt(s, st, iterExit)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *checker) scanStmt(s ast.Stmt, st state, iterExit bool) (out state, terminated bool) {
	if c.o.errLive && assignsTo(c.o.Info, s, c.o.ErrVar) {
		// err reassigned: `if err != nil` no longer refers to the
		// acquisition's outcome. (Release calls often reuse err, so check
		// for the release first.)
		if !c.stmtReleases(s) {
			c.o.errLive = false
		}
	}
	switch s := s.(type) {
	case *ast.DeferStmt:
		if c.callTreeReleases(s.Call) {
			st.discharged = true
		}
		return st, false
	case *ast.ReturnStmt:
		// `return pool.Unpin(id, true)` both releases and exits.
		if !st.discharged && !c.stmtReleases(s) && !c.escapes(s) {
			c.leak = &Leak{At: s, Kind: "return"}
		}
		return st, true
	case *ast.BranchStmt:
		if s.Tok == token.GOTO {
			// Unreachable: Check refuses functions with goto.
			return st, true
		}
		if s.Tok == token.FALLTHROUGH {
			// The next case body is scanned with the same input state;
			// ending the clause here is the conservative reading.
			return st, true
		}
		// break/continue: leaving the iteration. If an enclosing loop
		// re-acquires and we are undischarged, that is a leak.
		if iterExit && !st.discharged {
			c.leak = &Leak{At: s, Kind: "loop branch"}
		}
		return st, true
	case *ast.BlockStmt:
		return c.scanList(s.List, st, iterExit)
	case *ast.LabeledStmt:
		return c.scanStmt(s.Stmt, st, iterExit)
	case *ast.IfStmt:
		return c.scanIf(s, st, iterExit)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.scanStmt(s.Init, st, iterExit)
		}
		body, _ := c.scanList(s.Body.List, st, false)
		if body.discharged {
			st.discharged = true
		}
		return st, false
	case *ast.RangeStmt:
		if c.stmtReleases(&ast.ExprStmt{X: s.X}) {
			st.discharged = true
		}
		body, _ := c.scanList(s.Body.List, st, false)
		if body.discharged {
			st.discharged = true
		}
		return st, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.scanCases(s, st, iterExit)
	case *ast.GoStmt:
		if c.callTreeReleases(s.Call) {
			// Released (eventually) by the spawned goroutine: ownership
			// handed off.
			st.discharged = true
		}
		return st, false
	default:
		// Expression, assignment, declaration, send, inc/dec...
		if c.stmtReleases(s) {
			st.discharged = true
		} else if !st.discharged && c.escapes(s) {
			st.discharged = true
		}
		return st, false
	}
}

func (c *checker) scanIf(s *ast.IfStmt, st state, iterExit bool) (out state, terminated bool) {
	if s.Init != nil {
		st, _ = c.scanStmt(s.Init, st, iterExit)
	}
	exemptThen, exemptElse := c.errBranch(s.Cond)

	thenIn := st
	if exemptThen {
		thenIn.discharged = true
	}
	thenOut, thenTerm := c.scanList(s.Body.List, thenIn, iterExit)
	if c.leak != nil {
		return st, false
	}

	elseIn := st
	if exemptElse {
		elseIn.discharged = true
	}
	var elseOut state
	var elseTerm bool
	switch e := s.Else.(type) {
	case nil:
		elseOut, elseTerm = elseIn, false
	case *ast.BlockStmt:
		elseOut, elseTerm = c.scanList(e.List, elseIn, iterExit)
	case *ast.IfStmt:
		elseOut, elseTerm = c.scanIf(e, elseIn, iterExit)
	}
	if c.leak != nil {
		return st, false
	}

	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	default:
		return state{discharged: thenOut.discharged && elseOut.discharged}, false
	}
}

func (c *checker) scanCases(s ast.Stmt, st state, iterExit bool) (out state, terminated bool) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.scanStmt(s.Init, st, iterExit)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.scanStmt(s.Init, st, iterExit)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	merged := state{discharged: true}
	anyFall := false
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cl := cl.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			body = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			}
			body = cl.Body
		}
		// NOTE: fallthrough between cases is folded into the per-clause
		// scan; a `fallthrough` statement simply ends the clause here,
		// which is conservative in the safe direction.
		clOut, clTerm := c.scanList(body, st, iterExit)
		if c.leak != nil {
			return st, false
		}
		if !clTerm {
			anyFall = true
			merged.discharged = merged.discharged && clOut.discharged
		}
	}
	if _, isSelect := s.(*ast.SelectStmt); !hasDefault && !isSelect {
		// No default: the zero-case path falls through untouched.
		anyFall = true
		merged.discharged = merged.discharged && st.discharged
	}
	if !anyFall && len(clauses) > 0 {
		return st, true
	}
	return merged, false
}

// errBranch classifies an if condition against the live acquisition error:
// (true, false) for `err != nil` (then-branch exempt), (false, true) for
// `err == nil` (else/fall-through exempt).
func (c *checker) errBranch(cond ast.Expr) (exemptThen, exemptElse bool) {
	if !c.o.errLive {
		return false, false
	}
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false, false
	}
	var other ast.Expr
	switch {
	case analysis.IdentIs(c.o.Info, be.X, c.o.ErrVar):
		other = be.Y
	case analysis.IdentIs(c.o.Info, be.Y, c.o.ErrVar):
		other = be.X
	default:
		return false, false
	}
	if id, ok := ast.Unparen(other).(*ast.Ident); !ok || id.Name != "nil" {
		return false, false
	}
	switch be.Op {
	case token.NEQ:
		return true, false
	case token.EQL:
		return false, true
	}
	return false, false
}

func (c *checker) stmtReleases(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && c.o.Releases(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) callTreeReleases(call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok && c.o.Releases(inner) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) escapes(n ast.Node) bool {
	return c.o.Escapes != nil && c.o.Escapes(n)
}

// assignsTo reports whether stmt (re)assigns obj anywhere in its tree.
func assignsTo(info *types.Info, stmt ast.Stmt, obj types.Object) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if analysis.IdentIs(info, lhs, obj) {
				found = true
			}
		}
		return true
	})
	return found
}

type sub struct {
	list []ast.Stmt
	loop bool
}

// subLists returns the nested statement lists of s through which an
// acquisition statement can be reached, tagging loop bodies.
func subLists(s ast.Stmt) []sub {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return []sub{{s.List, false}}
	case *ast.LabeledStmt:
		return subLists(s.Stmt)
	case *ast.IfStmt:
		out := []sub{{s.Body.List, false}}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			out = append(out, sub{e.List, false})
		case *ast.IfStmt:
			out = append(out, sub{[]ast.Stmt{e}, false})
		}
		return out
	case *ast.ForStmt:
		return []sub{{s.Body.List, true}}
	case *ast.RangeStmt:
		return []sub{{s.Body.List, true}}
	case *ast.SwitchStmt:
		return caseBodies(s.Body)
	case *ast.TypeSwitchStmt:
		return caseBodies(s.Body)
	case *ast.SelectStmt:
		return caseBodies(s.Body)
	}
	return nil
}

func caseBodies(body *ast.BlockStmt) []sub {
	var out []sub
	for _, cl := range body.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			out = append(out, sub{cl.Body, false})
		case *ast.CommClause:
			out = append(out, sub{cl.Body, false})
		}
	}
	return out
}

func containsGoto(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // separate function: its gotos are its own
		case *ast.BranchStmt:
			if n.Tok == token.GOTO {
				found = true
			}
		}
		return true
	})
	return found
}
