// Package spanend defines the genalgvet analyzer that enforces span
// termination: every span or timer the tracing/metrics substrate hands
// out must be ended on every execution path.
//
//   - trace.Start returns a *Span that must see EndSpan or EndOK;
//     an unended span never commits, so the whole trace (and its
//     errors+slow sampling decision) silently vanishes from the ring.
//   - obs.StartSpan returns an obs.Span whose End records the duration
//     histogram sample; a missed End on an error path biases latency
//     metrics toward the happy path.
//   - Registry.Timer returns a stop func with the same contract.
package spanend

import (
	"go/ast"
	"go/types"
	"slices"

	"genalg/internal/analysis"
	"genalg/internal/analysis/pathflow"
)

// Analyzer is the spanend check.
var Analyzer = &analysis.Analyzer{
	Name: "spanend",
	Doc: "check that trace.Start spans, obs.StartSpan spans, and Registry.Timer stop funcs are ended on all paths\n\n" +
		"A span left open never reaches the trace ring and skews duration metrics. Ending may be direct, " +
		"deferred (including `defer func() { sp.EndSpan(err) }()`), delegated to a helper whose pathflow " +
		"summary proves it ends or absorbs the span (including a method value like sp.End passed as a " +
		"callback), or discharged by returning/storing the span. Passing the span to a summarized callee " +
		"that neither ends nor keeps it does NOT discharge the obligation.",
	Run:   run,
	Facts: []*analysis.FactComputer{pathflow.Facts},
}

func run(pass *analysis.Pass) error {
	analysis.WalkStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
				if name, _, is := spanCall(pass.TypesInfo, call); is {
					pass.Reportf(call.Pos(), "result of %s dropped: the span can never be ended", name)
				}
			}
		case *ast.AssignStmt:
			checkAcquire(pass, s, stack)
		}
		return true
	})
	return nil
}

// spanCall classifies an acquisition call. resultIdx is the index of the
// span/stop-func value among the call's results.
func spanCall(info *types.Info, call *ast.CallExpr) (name string, resultIdx int, ok bool) {
	switch {
	case analysis.IsPkgFuncCall(info, call, "trace", "Start"):
		return "trace.Start", 1, true
	case analysis.IsPkgFuncCall(info, call, "obs", "StartSpan"):
		return "obs.StartSpan", 0, true
	case analysis.IsMethodCall(info, call, "obs", "Registry", "Timer"):
		return "Registry.Timer", 0, true
	}
	return "", 0, false
}

func checkAcquire(pass *analysis.Pass, s *ast.AssignStmt, stack []ast.Node) {
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	name, resultIdx, is := spanCall(pass.TypesInfo, call)
	if !is {
		return
	}
	if len(s.Lhs) <= resultIdx {
		return
	}
	spanObj := analysis.LHSObj(pass.TypesInfo, s.Lhs[resultIdx])
	if spanObj == nil {
		pass.Reportf(call.Pos(), "span from %s assigned to _: it can never be ended", name)
		return
	}
	fn := analysis.EnclosingFunc(stack)
	if fn == nil {
		return
	}

	isTimer := name == "Registry.Timer"
	sums := pathflow.FromFacts(pass.Facts)
	ob := &pathflow.Obligation{
		Info: pass.TypesInfo,
		Releases: func(rel *ast.CallExpr) bool {
			if isTimer {
				// done() — calling the stop func.
				if analysis.IdentIs(pass.TypesInfo, rel.Fun, spanObj) {
					return true
				}
			} else if pathflow.IsEndMethodValue(pass.TypesInfo, rel.Fun, spanObj) {
				return true
			}
			// Interprocedural: a callee summarized as ending/keeping the
			// span parameter, invoking the stop-func parameter, or calling
			// a method value like sp.End passed as a callback.
			sum, ok := sums.LookupCall(pass.TypesInfo, rel)
			if !ok {
				return false
			}
			for i, arg := range rel.Args {
				if analysis.IdentIs(pass.TypesInfo, arg, spanObj) {
					if isTimer && slices.Contains(sum.Calls, i) {
						return true
					}
					if !isTimer && (slices.Contains(sum.Spans, i) || slices.Contains(sum.SpanEscapes, i)) {
						return true
					}
				}
				if !isTimer && slices.Contains(sum.Calls, i) && pathflow.IsEndMethodValue(pass.TypesInfo, arg, spanObj) {
					return true
				}
			}
			return false
		},
		Escapes: func(n ast.Node) bool {
			return escapesThrough(pass.TypesInfo, sums, n, spanObj, isTimer)
		},
	}
	leak, ok := ob.Check(fn, s)
	if !ok || leak == nil {
		return
	}
	verb := "EndSpan/EndOK"
	switch name {
	case "obs.StartSpan":
		verb = "End"
	case "Registry.Timer":
		verb = "a call of the stop func"
	}
	line := pass.Fset.Position(leak.At.End()).Line
	pass.Reportf(call.Pos(), "span from %s is not ended by %s on every path (%s, line %d)",
		name, verb, leak.Kind, line)
}

// escapesThrough: returning, storing, or aliasing the span hands the End
// obligation onward, as does passing it to a callee the summaries know
// nothing about. A callee WITH a pathflow summary escapes the span only
// if the summary says it ends or keeps that parameter — a helper that
// merely reads the span (logs its name, say) leaves the obligation here.
func escapesThrough(info *types.Info, sums *pathflow.Summaries, n ast.Node, spanObj types.Object, isTimer bool) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if analysis.Mentions(info, r, spanObj) {
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
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, r := range m.Rhs {
					if i < len(m.Lhs) && analysis.IsBlank(m.Lhs[i]) {
						continue
					}
					if analysis.Mentions(info, r, spanObj) {
						escaped = true
					}
				}
			case *ast.CallExpr:
				if isTimer && analysis.IdentIs(info, m.Fun, spanObj) {
					return true // the release itself, not an escape
				}
				sum, known := sums.LookupCall(info, m)
				for i, arg := range m.Args {
					if !analysis.IdentIs(info, arg, spanObj) {
						continue
					}
					if !known {
						escaped = true
					} else if isTimer && slices.Contains(sum.Calls, i) {
						escaped = true
					} else if !isTimer && (slices.Contains(sum.Spans, i) || slices.Contains(sum.SpanEscapes, i)) {
						escaped = true
					}
				}
			}
			return true
		})
		return escaped
	}
	return false
}
