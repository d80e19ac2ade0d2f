package regress

import (
	"context"
	"fmt"
	"strings"

	"genalg/internal/sqlang"
)

// Divergence is one statement on which two executor configurations
// disagreed.
type Divergence struct {
	SQL   string
	Ref   string // reference runner name (Runners()[0])
	Other string // first runner that disagreed
	// RefOut / OtherOut are the normalized outputs (or "error: ...").
	RefOut   string
	OtherOut string
}

func (d *Divergence) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "divergence on: %s\n", d.SQL)
	fmt.Fprintf(&sb, "--- %s\n%s", d.Ref, indent(d.RefOut))
	fmt.Fprintf(&sb, "--- %s\n%s", d.Other, indent(d.OtherOut))
	return sb.String()
}

func indent(s string) string {
	if s == "" {
		return "  (empty)\n"
	}
	var sb strings.Builder
	for _, l := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Fprintf(&sb, "  %s\n", l)
	}
	return sb.String()
}

// RunDifferential executes sql on every runner and compares each
// result against the first (reference) runner's, at full float
// precision over sorted row multisets. The reference plans every
// statement afresh (Parse + ExecStmtSQLCtx); the other runners execute
// the text through Exec, so a SELECT reuses their plan caches whenever
// an earlier statement had the same shape, and cold and warm plans are
// compared on every statement. The comparison is semantics-based, not
// plan-based:
//
//   - Rows are compared as a sorted multiset unless the statement has
//     an ORDER BY — SQL leaves unordered output order unspecified, so
//     a parallel scan interleaving rows is not a bug.
//   - If BOTH sides error, they are equal regardless of message: which
//     row first trips a runtime error is plan-dependent (predicate
//     evaluation order is unspecified), so error identity cannot be
//     compared. One side erring while the other returns rows IS a
//     divergence.
//
// The returned Outcome describes the reference execution (for
// generator feedback). A nil Divergence means all runners agreed.
func RunDifferential(runners []Runner, sql string) (*Divergence, Outcome) {
	ordered := false
	if stmt, err := sqlang.Parse(sql); err == nil {
		if sel, ok := stmt.(*sqlang.SelectStmt); ok {
			ordered = len(sel.OrderBy) > 0
		}
	}
	outs := make([]string, len(runners))
	errs := make([]bool, len(runners))
	var out Outcome
	for i, r := range runners {
		var res *sqlang.Result
		var err error
		if i == 0 {
			res, err = execCold(r.Eng, sql)
		} else {
			res, err = r.Eng.Exec(sql)
		}
		if err != nil {
			outs[i] = "error: " + err.Error()
			errs[i] = true
		} else {
			outs[i] = NormalizeResult(res, ordered, FullPrec)
		}
		if i == 0 {
			out.Err = errs[0]
			if !errs[0] {
				out.Rows = len(res.Rows)
			}
		}
	}
	for i := 1; i < len(runners); i++ {
		if errs[0] && errs[i] {
			continue
		}
		if outs[i] != outs[0] {
			out.Diverged = true
			return &Divergence{
				SQL:      sql,
				Ref:      runners[0].Name,
				Other:    runners[i].Name,
				RefOut:   outs[0],
				OtherOut: outs[i],
			}, out
		}
	}
	return nil, out
}

// execCold runs sql on the engine's uncached path.
func execCold(e *sqlang.Engine, sql string) (*sqlang.Result, error) {
	stmt, err := sqlang.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtSQLCtx(context.Background(), stmt, sql)
}

// PlanCacheHits totals the plan-cache hits of every runner.
func PlanCacheHits(runners []Runner) int64 {
	var n int64
	for _, r := range runners {
		if r.Eng.Obs != nil {
			n += r.Eng.Obs.Counter("sqlang.plan_cache.hits").Value()
		}
	}
	return n
}
