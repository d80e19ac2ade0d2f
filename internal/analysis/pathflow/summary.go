// Interprocedural summaries. A FuncSummary records, per declared
// function, which parameters the function releases on behalf of its
// caller: a helper that calls Unpin(pool, id) on every path discharges
// the caller's pin obligation; a helper that ends (or hands off) a span
// parameter discharges the span obligation; a helper that invokes a
// func-typed parameter discharges a stop-func obligation; a helper that
// passes an int64 parameter to WaitDurable is a durability wait point.
//
// Summaries are computed bottom-up: within one package, a fixpoint
// iteration lets helper chains resolve (A releases via B which releases
// directly); across packages, the driver feeds each package's summaries
// forward through the facts side-channel (see analysis.FactSet), so a
// cross-package helper discharges obligations exactly like a local one.
//
// The defaults are conservative: a function is summarized as releasing a
// parameter only when the release is proven on every path, and an
// unknown callee (no summary — external, indirect, or recursive without
// a base-case release) never discharges anything. Recursion is handled
// by the same rule: a function whose only "release" is the recursive
// call never reaches a fixpoint entry, so it is not credited.
package pathflow

import (
	"go/ast"
	"go/types"
	"slices"

	"genalg/internal/analysis"
)

// FuncSummary describes the caller-visible release behaviour of one
// function in terms of its parameter indices (0-based, receiver not
// counted).
type FuncSummary struct {
	// Pins lists {pool, id} parameter-index pairs for which the function
	// calls pool.Unpin(id, ...) (directly or via a summarized callee) on
	// every path.
	Pins [][2]int
	// Spans lists span/timer parameter indices ended on every path.
	Spans []int
	// SpanEscapes lists span parameter indices the function may hand
	// onward (stored, returned, sent, or passed to an unsummarized
	// callee): the new owner carries the obligation, so the caller's is
	// discharged, but the end is not proven here.
	SpanEscapes []int
	// Calls lists func-typed parameter indices invoked on every path
	// (stop funcs, callbacks).
	Calls []int
	// Waits lists int64 parameter indices passed to a WaitDurable call:
	// the function is a durability wait point for that LSN.
	Waits []int
}

func (s *FuncSummary) hasPin(pool, id int) bool {
	for _, p := range s.Pins {
		if p[0] == pool && p[1] == id {
			return true
		}
	}
	return false
}

// Summaries maps types.Func.FullName() keys to *FuncSummary entries.
// Every function declaration the analysis has seen gets an entry, even an
// empty one — presence distinguishes a known callee (proven to release
// nothing extra) from an unknown one (anything could happen; assume
// nothing).
type Summaries struct {
	// fns holds the entries summarized here; imported is a read-only view
	// of the imports' pathflow facts. Lookups try fns first.
	fns, imported map[string]any
}

// FuncKey is the summary key for fn: its fully qualified name.
func FuncKey(fn *types.Func) string { return fn.FullName() }

// Lookup returns the summary recorded for fn. Nil-safe: a nil receiver
// (no facts available) knows no functions.
func (s *Summaries) Lookup(fn *types.Func) (*FuncSummary, bool) {
	if s == nil || fn == nil {
		return nil, false
	}
	return s.get(FuncKey(fn))
}

func (s *Summaries) get(key string) (*FuncSummary, bool) {
	v, ok := s.fns[key]
	if !ok {
		v = s.imported[key]
	}
	sum, ok := v.(*FuncSummary)
	return sum, ok
}

// LookupCall resolves call's static callee and returns its summary.
func (s *Summaries) LookupCall(info *types.Info, call *ast.CallExpr) (*FuncSummary, bool) {
	return s.Lookup(analysis.CalleeFunc(info, call))
}

// CheckAllPaths verifies the obligation from the top of fn: every path
// from function entry to exit must release. This is the entry point the
// summarizer uses (the "acquisition" is taking the parameter).
func (o *Obligation) CheckAllPaths(fn ast.Node) (leak *Leak, ok bool) {
	_, body := analysis.FuncParts(fn)
	if body == nil || containsGoto(body) {
		return nil, false
	}
	o.errLive = o.ErrVar != nil
	c := &checker{o: o}
	st, term := c.scanList(body.List, state{}, false)
	if c.leak != nil {
		return c.leak, true
	}
	if term || st.discharged {
		return nil, true
	}
	return &Leak{At: body, Kind: "function end"}, true
}

// ComputeSummaries summarizes every function declared in files,
// iterating to a fixpoint so same-package helper chains resolve.
// imported carries the dependencies' pathflow fact entries (nil for
// none) and is only read; the returned set's own entries are the local
// ones, which callees in imported resolve against.
func ComputeSummaries(files []*ast.File, info *types.Info, imported map[string]any) *Summaries {
	out := &Summaries{fns: map[string]any{}, imported: imported}

	type decl struct {
		fd     *ast.FuncDecl
		sum    *FuncSummary
		params []types.Object // flattened in signature order; nil for unnamed
	}
	var decls []decl
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &FuncSummary{}
			out.fns[FuncKey(obj)] = sum
			decls = append(decls, decl{fd: fd, sum: sum, params: paramObjs(info, fd)})
		}
	}

	// All summary facts are monotone (sets only grow, bounded by the
	// parameter count), so iterate until a full round adds nothing.
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if summarizeFunc(d.fd, d.sum, d.params, info, out) {
				changed = true
			}
		}
	}
	return out
}

// paramObjs flattens fn's declared parameters to their objects.
func paramObjs(info *types.Info, fd *ast.FuncDecl) []types.Object {
	var out []types.Object
	if fd.Type.Params == nil {
		return out
	}
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// summarizeFunc re-derives fd's summary against the current summary set,
// reporting whether anything was added.
func summarizeFunc(fd *ast.FuncDecl, sum *FuncSummary, params []types.Object, info *types.Info, all *Summaries) bool {
	changed := false

	// Pin pairs: (pool, id) both released by Unpin on all paths.
	for pi, pool := range params {
		if pool == nil || !isBufferPool(pool.Type()) {
			continue
		}
		for ki, id := range params {
			if id == nil || !isPageID(id.Type()) || sum.hasPin(pi, ki) {
				continue
			}
			ob := &Obligation{Info: info, Releases: pinReleaser(info, all, pool, id)}
			if leak, ok := ob.CheckAllPaths(fd); ok && leak == nil {
				sum.Pins = append(sum.Pins, [2]int{pi, ki})
				changed = true
			}
		}
	}

	// Spans ended on all paths; otherwise, spans that escape.
	for si, sp := range params {
		if sp == nil || !isSpanish(sp.Type()) {
			continue
		}
		if !slices.Contains(sum.Spans, si) {
			ob := &Obligation{Info: info, Releases: spanReleaser(info, all, sp)}
			if leak, ok := ob.CheckAllPaths(fd); ok && leak == nil {
				sum.Spans = append(sum.Spans, si)
				changed = true
			}
		}
		if !slices.Contains(sum.Spans, si) && !slices.Contains(sum.SpanEscapes, si) && escapesAnywhere(fd.Body, info, all, sp) {
			sum.SpanEscapes = append(sum.SpanEscapes, si)
			changed = true
		}
	}

	// Func-typed parameters invoked on all paths (stop funcs, callbacks).
	for fi, fp := range params {
		if fp == nil || slices.Contains(sum.Calls, fi) {
			continue
		}
		if _, ok := fp.Type().Underlying().(*types.Signature); !ok {
			continue
		}
		ob := &Obligation{Info: info, Releases: callReleaser(info, all, fp)}
		if leak, ok := ob.CheckAllPaths(fd); ok && leak == nil {
			sum.Calls = append(sum.Calls, fi)
			changed = true
		}
	}

	// Durability wait points: an int64 parameter passed to WaitDurable
	// anywhere in the body. Deliberately exists-path, not all-paths: the
	// idiomatic helper guards on a nil WAL (nothing to wait for), and the
	// all-paths rigor lives at the AppendTxn acquisition site.
	for wi, wp := range params {
		if wp == nil || slices.Contains(sum.Waits, wi) || !isInt64(wp.Type()) {
			continue
		}
		if waitsAnywhere(fd.Body, info, all, wp) {
			sum.Waits = append(sum.Waits, wi)
			changed = true
		}
	}
	return changed
}

// pinReleaser matches bp.Unpin(id, ...) and summarized callees that do.
func pinReleaser(info *types.Info, all *Summaries, pool, id types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		if analysis.IsMethodCall(info, call, "storage", "BufferPool", "Unpin") {
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return ok && len(call.Args) >= 1 &&
				analysis.IdentIs(info, sel.X, pool) && analysis.IdentIs(info, call.Args[0], id)
		}
		if sum, ok := all.LookupCall(info, call); ok {
			for _, pr := range sum.Pins {
				if pr[0] < len(call.Args) && pr[1] < len(call.Args) &&
					analysis.IdentIs(info, call.Args[pr[0]], pool) && analysis.IdentIs(info, call.Args[pr[1]], id) {
					return true
				}
			}
		}
		return false
	}
}

// endMethods are the span methods that retire a span.
var endMethods = map[string]bool{"End": true, "EndOK": true, "EndSpan": true}

// spanReleaser matches sp.End()/EndOK/EndSpan, summarized callees that
// end or absorb the span, and summarized callees invoking a method value
// like sp.End passed as a callback.
func spanReleaser(info *types.Info, all *Summaries, sp types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		if IsEndMethodValue(info, call.Fun, sp) {
			return true
		}
		sum, ok := all.LookupCall(info, call)
		if !ok {
			return false
		}
		for i, arg := range call.Args {
			if analysis.IdentIs(info, arg, sp) && (slices.Contains(sum.Spans, i) || slices.Contains(sum.SpanEscapes, i)) {
				return true
			}
			if slices.Contains(sum.Calls, i) && IsEndMethodValue(info, arg, sp) {
				return true
			}
		}
		return false
	}
}

// callReleaser matches f() and summarized callees invoking f.
func callReleaser(info *types.Info, all *Summaries, fp types.Object) func(*ast.CallExpr) bool {
	return func(call *ast.CallExpr) bool {
		if analysis.IdentIs(info, call.Fun, fp) {
			return true
		}
		if sum, ok := all.LookupCall(info, call); ok {
			for _, i := range sum.Calls {
				if i < len(call.Args) && analysis.IdentIs(info, call.Args[i], fp) {
					return true
				}
			}
		}
		return false
	}
}

// IsEndMethodValue reports whether e selects End, EndOK or EndSpan on the
// span object sp: the callee of a direct call, or a method value passed
// on as a callback.
func IsEndMethodValue(info *types.Info, e ast.Expr, sp types.Object) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	return ok && endMethods[sel.Sel.Name] && analysis.IdentIs(info, sel.X, sp)
}

// escapesAnywhere reports whether obj is handed onward somewhere in body:
// returned, assigned (not to _), sent on a channel, placed in a composite
// literal, or passed to a callee with no summary (unknown — assume it
// keeps the value) or one summarized as ending/escaping that parameter.
func escapesAnywhere(body *ast.BlockStmt, info *types.Info, all *Summaries, obj types.Object) bool {
	escaped := false
	ast.Inspect(body, func(n ast.Node) bool {
		if escaped {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if analysis.Mentions(info, r, obj) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for i, r := range n.Rhs {
				if i < len(n.Lhs) && analysis.IsBlank(n.Lhs[i]) {
					continue
				}
				if analysis.Mentions(info, r, obj) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if analysis.Mentions(info, n.Value, obj) {
				escaped = true
			}
		case *ast.CompositeLit:
			if analysis.Mentions(info, n, obj) {
				escaped = true
			}
		case *ast.CallExpr:
			sum, known := all.LookupCall(info, n)
			for i, arg := range n.Args {
				if !analysis.IdentIs(info, arg, obj) {
					continue
				}
				if !known || slices.Contains(sum.Spans, i) || slices.Contains(sum.SpanEscapes, i) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

// waitsAnywhere reports whether obj reaches a WaitDurable call (or a
// summarized wait point) somewhere in body.
func waitsAnywhere(body *ast.BlockStmt, info *types.Info, all *Summaries, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn != nil && fn.Name() == "WaitDurable" &&
			len(call.Args) >= 1 && analysis.IdentIs(info, call.Args[0], obj) {
			found = true
			return false
		}
		if sum, ok := all.Lookup(fn); ok {
			for _, i := range sum.Waits {
				if i < len(call.Args) && analysis.IdentIs(info, call.Args[i], obj) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// --- type predicates ---

func isBufferPool(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	return namedIn(p.Elem(), "storage", "BufferPool")
}

func isPageID(t types.Type) bool { return namedIn(t, "storage", "PageID") }

// isSpanish matches the span-like types the spanend analyzer tracks:
// *trace.Span and the value type obs.Span.
func isSpanish(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return namedIn(p.Elem(), "trace", "Span")
	}
	return namedIn(t, "obs", "Span")
}

func isInt64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// namedIn reports whether t is the named type pkgName.typeName, with the
// package matched by path suffix (so fixture packages' flat paths work).
func namedIn(t types.Type, pkgName, typeName string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && analysis.PkgIs(obj.Pkg().Path(), pkgName)
}
