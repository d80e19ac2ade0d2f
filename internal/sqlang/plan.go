package sqlang

import (
	"fmt"
	"strings"
	"time"

	"genalg/internal/db"
	"genalg/internal/trace"
)

// filterInfo is one residual predicate with its cost-model numbers, in the
// order the executor evaluates them.
type filterInfo struct {
	expr Expr
	sel  float64
	cost float64
}

// joinInfo is one join step as rendered by EXPLAIN: the joined table, the
// chosen strategy, its equi-key condition (hash joins), any single-table
// predicates pushed into the build-side scan, and the estimated output
// cardinality of the step.
type joinInfo struct {
	table  string
	hash   bool
	keys   []Expr // the equi-predicates a hash join keys on
	pushed []filterInfo
	est    int
}

// pathDesc names an access path in plan text. It is formatted only when a
// plan is rendered; a genomic path prints the pattern literal's value.
type pathDesc struct {
	kind  accessCandKind
	table string
	col   string
	lit   *Lit // candGenomic: the pattern
}

// format renders the description, reading the pattern through pi so a
// cached plan prints its execution's value.
func (d pathDesc) format(pi *planInfo) string {
	switch d.kind {
	case candBTreeEq:
		return fmt.Sprintf("index eq %s.%s", d.table, d.col)
	case candGenomic:
		return fmt.Sprintf("genomic index %s.%s pattern=%q", d.table, d.col, litValue(d.lit, pi.vals))
	}
	return "scan " + d.table
}

// planInfo accumulates the plan tree for a SELECT: the chosen access path
// and predicate order always, plus — under EXPLAIN ANALYZE — actual row
// counts and per-operator wall time. Actual counters are written only by
// the executing goroutine (parallel scans aggregate worker-local counters
// before storing), so plain fields suffice.
type planInfo struct {
	analyze bool
	// timed turns on per-operator wall-clock collection: under EXPLAIN
	// ANALYZE (analyze) or when the statement runs inside an active trace
	// span. Both consumers read the same counters, so a trace tree and an
	// EXPLAIN ANALYZE of the same execution report identical timings.
	timed bool

	// vals holds a cached plan's literal values for this execution (see
	// plancache.go); the expressions and paths below print them in place
	// of the template's. Nil when the plan was made for this execution.
	vals []any

	access      pathDesc // chosen access path
	estAccess   int      // estimated driving rows
	actAccess   int64    // driving rows actually produced
	accessNanos int64

	parallelWorkers int // > 1 when the scan was partitioned

	filters     []filterInfo
	estFilter   int   // estimated rows surviving the residual filters
	actFilter   int64 // rows actually surviving
	filterNanos int64 // cumulative across workers under a parallel scan

	joins     []joinInfo // join steps, in execution order
	actJoined int64      // rows produced by the join stage
	joinNanos int64

	// planCost is the chosen plan's total cost; alts are the rejected
	// alternatives. render appends both.
	planCost float64
	alts     []planAlt

	aggregated bool
	aggGroups  int
	aggNanos   int64

	sortKeys  int
	sortNanos int64

	outRows    int
	totalNanos int64
}

func fmtNanos(n int64) string {
	return time.Duration(n).Round(time.Microsecond).String()
}

// annotate renders the estimate suffix for one operator line; ANALYZE adds
// the actual row count and wall time alongside.
func (pi *planInfo) annotate(est int, act int64, nanos int64) string {
	if pi.analyze {
		return fmt.Sprintf(" (est=%d act=%d time=%s)", est, act, fmtNanos(nanos))
	}
	return fmt.Sprintf(" (est=%d)", est)
}

// text prints an expression with this execution's literal values.
func (pi *planInfo) text(x Expr) string {
	return withLits(x, pi.vals).String()
}

// render produces the plan text. The line shapes predate ANALYZE and are
// load-bearing (tests and the CI smoke script grep them); annotations are
// only ever appended to a line, never restructure one.
func (pi *planInfo) render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "access: %s%s\n", pi.access.format(pi), pi.annotate(pi.estAccess, pi.actAccess, pi.accessNanos))
	if pi.parallelWorkers > 1 {
		fmt.Fprintf(&sb, "parallel scan: %d workers\n", pi.parallelWorkers)
	}
	if len(pi.filters) > 0 {
		fmt.Fprintf(&sb, "filters:")
		for _, f := range pi.filters {
			fmt.Fprintf(&sb, " [%s sel=%.3g cost=%.3g]", pi.text(f.expr), f.sel, f.cost)
		}
		fmt.Fprintf(&sb, "%s\n", pi.annotate(pi.estFilter, pi.actFilter, pi.filterNanos))
	}
	for i, j := range pi.joins {
		if j.hash {
			fmt.Fprintf(&sb, "hash join: %s on ", j.table)
			for k, c := range j.keys {
				if k > 0 {
					sb.WriteString(" AND ")
				}
				sb.WriteString(pi.text(c))
			}
		} else {
			fmt.Fprintf(&sb, "nested-loop join: %s", j.table)
		}
		for _, f := range j.pushed {
			fmt.Fprintf(&sb, " [push %s sel=%.3g cost=%.3g]", pi.text(f.expr), f.sel, f.cost)
		}
		fmt.Fprintf(&sb, " (est=%d)", j.est)
		if pi.analyze && i == len(pi.joins)-1 {
			fmt.Fprintf(&sb, " (act=%d time=%s)", pi.actJoined, fmtNanos(pi.joinNanos))
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "plan cost: %.4g\n", pi.planCost)
	for _, a := range pi.alts {
		desc := a.order
		if desc == "" {
			desc = a.path.format(pi)
		}
		fmt.Fprintf(&sb, "rejected plan: %s (cost=%.4g)\n", desc, a.cost)
	}
	if pi.analyze {
		if pi.aggregated {
			fmt.Fprintf(&sb, "aggregate: %d groups (time=%s)\n", pi.aggGroups, fmtNanos(pi.aggNanos))
		}
		if pi.sortKeys > 0 {
			fmt.Fprintf(&sb, "sort: %d keys (time=%s)\n", pi.sortKeys, fmtNanos(pi.sortNanos))
		}
		fmt.Fprintf(&sb, "rows: %d (total time=%s)\n", pi.outRows, fmtNanos(pi.totalNanos))
	}
	return sb.String()
}

// addOperatorSpans mirrors the executed operators into the statement's
// trace span as completed children, reusing the planInfo wall-clock
// counters verbatim — the trace tree and EXPLAIN ANALYZE therefore report
// the same per-operator durations for the same execution.
func (pi *planInfo) addOperatorSpans(sp *trace.Span) {
	if sp == nil {
		return
	}
	sp.AddTiming("access: "+pi.access.format(pi), time.Duration(pi.accessNanos))
	if len(pi.filters) > 0 {
		sp.AddTiming("filter", time.Duration(pi.filterNanos))
	}
	if len(pi.joins) > 0 {
		names := make([]string, len(pi.joins))
		for i, j := range pi.joins {
			names[i] = j.table
		}
		sp.AddTiming("join: "+strings.Join(names, ", "), time.Duration(pi.joinNanos))
	}
	if pi.aggregated {
		sp.AddTiming("aggregate", time.Duration(pi.aggNanos))
	}
	if pi.sortKeys > 0 {
		sp.AddTiming("sort", time.Duration(pi.sortNanos))
	}
}

// accessEstimate predicts how many driving rows the access path yields:
// full scans estimate the table's row count; index-equality paths consult
// ANALYZE statistics (rows / distinct values) when the driving table was
// analyzed, otherwise the lookup's own result size. Genomic-index paths use
// the candidate count. fromLookup reports an estimate taken from the
// lookup's result.
func (e *Engine) accessEstimate(path accessPath, tbl *db.Table, tableName string) (est int, fromLookup bool) {
	if path.rids == nil {
		return tbl.RowCount(), false
	}
	if b, ok := path.used.(*BinOp); ok && b.Op == "=" {
		if col, okc := asColRef(b.L, b.R); okc {
			if st, okt := e.stats.get(tableName); okt {
				if cs, okcol := st.Cols[col.Name]; okcol && cs.Distinct > 0 {
					est := st.Rows / cs.Distinct
					if est < 1 {
						est = 1
					}
					return est, false
				}
			}
		}
	}
	return len(path.rids), true
}
