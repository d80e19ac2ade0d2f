package sqlang

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"genalg/internal/db"
	"genalg/internal/obs"
	"genalg/internal/parallel"
	"genalg/internal/storage"
	"genalg/internal/trace"
)

// Result is the outcome of executing a statement.
type Result struct {
	// Cols names the output columns (empty for DDL/DML).
	Cols []string
	// Rows holds the output tuples.
	Rows []db.Row
	// Affected counts rows written/deleted for DML.
	Affected int
	// plan is the execution's plan record (SELECT and EXPLAIN); Plan
	// renders it.
	plan *planInfo
}

// Plan renders the plan the statement ran under: the chosen access path,
// predicate order, joins and costs, as EXPLAIN prints them ("" for a
// statement other than SELECT). Executing a SELECT does not format its
// plan; this does, on each call.
func (r *Result) Plan() string {
	if r.plan == nil {
		return ""
	}
	return r.plan.render()
}

// parallelScanThreshold is the driving-table row count above which a
// full-table filter scan is partitioned across workers. Below it the
// fan-out overhead outweighs the win.
const parallelScanThreshold = 256

// Engine executes SQL statements against a db.DB. It keeps the ANALYZE
// statistics the planner consults.
//
// Concurrency: one Engine may be shared by concurrent sessions (genalgd
// runs every connection against a single Engine). The exported
// configuration fields are construction-time only — set them before the
// Engine is shared and never write them afterwards; they are read without
// synchronization. All internal mutable state (ANALYZE statistics, the
// slow-query log) is synchronized, statement execution against the
// underlying tables is guarded by the db layer's locks, and DML
// statements are serialized by the engine's writer lock (db.DB.ApplyDML).
type Engine struct {
	DB    *db.DB
	stats statsStore
	// Workers bounds the scan parallelism of this engine: 0 selects the
	// default (GENALG_WORKERS or GOMAXPROCS, see package parallel), 1
	// forces serial execution. Set at construction time; not synchronized.
	Workers int
	// Obs receives the engine's metrics (statement counts, latency
	// histogram, slow-query count); nil selects obs.Default. Set at
	// construction time; not synchronized.
	Obs *obs.Registry
	// SlowQueryThreshold enables the slow-query log: statements at least
	// this slow are recorded (retrievable via SlowQueries). 0 disables.
	SlowQueryThreshold time.Duration
	// BatchSize is the executor's rows-per-batch: 0 selects the default
	// (defaultBatchSize); 1 degenerates to row-at-a-time execution, which
	// the differential tests use as the baseline. Results are identical at
	// any size. Set at construction time; not synchronized.
	BatchSize int
	// ParallelScanMinRows is the driving-table row count above which a
	// single-table filter scan partitions across workers: 0 selects
	// parallelScanThreshold. Set at construction time; not synchronized.
	ParallelScanMinRows int
	// CostIndexSeek overrides the planner's fixed index-descent charge
	// (costIndexSeek) when > 0. The regression harness's self-tests
	// (internal/sqlang/regress) perturb it to prove that cost-model drift
	// surfaces as a plan-baseline diff; deployments leave it zero. Set at
	// construction time; not synchronized.
	CostIndexSeek float64
	// UnsafeBreakJoinKeys is a fault-injection hook for the regression
	// harness: it disables int/float unification when encoding hash-join
	// keys, so an int64 column equi-joined against a float64 column stops
	// matching under hash joins while nested-loop comparison still
	// matches — a deliberate executor bug the differential fuzzer must
	// catch. Never set outside harness self-tests. Set at construction
	// time; not synchronized.
	UnsafeBreakJoinKeys bool
	slow                slowLog
	plans               planCache
}

// NewEngine wraps an engine instance.
func NewEngine(d *db.DB) *Engine { return &Engine{DB: d} }

// registry resolves the engine's metrics registry.
func (e *Engine) registry() *obs.Registry {
	if e.Obs != nil {
		return e.Obs
	}
	return obs.Default
}

// workerBound resolves the engine's effective worker count.
func (e *Engine) workerBound() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return parallel.Workers()
}

// Exec parses and executes one statement.
func (e *Engine) Exec(sql string) (*Result, error) {
	return e.ExecCtx(context.Background(), sql)
}

// ExecCtx parses and executes one statement under the caller's context,
// participating in any trace carried by it (a "sqlang.statement" span with
// one child per executed operator). A SELECT goes through the engine's
// plan cache (see plancache.go): a statement differing from a cached one
// only in its literal values reuses that plan.
func (e *Engine) ExecCtx(ctx context.Context, sql string) (*Result, error) {
	key, vals, ok := templateKey(sql)
	if ok {
		t, cache := e.plans.lookup(e, key)
		if t != nil {
			return e.observe(ctx, sql, func(ctx context.Context) (*Result, error) {
				return e.execTemplate(ctx, t, sql, vals)
			})
		}
		ok = cache
	}
	stmt, lits, err := parse(sql)
	if err != nil {
		e.registry().Counter("sqlang.parse_errors").Inc()
		return nil, err
	}
	if s, isSel := stmt.(*SelectStmt); ok && isSel && !s.Explain && litsMatch(lits, vals) {
		return e.observe(ctx, sql, func(ctx context.Context) (*Result, error) {
			return e.execCaching(ctx, key, s)
		})
	}
	return e.ExecStmtSQLCtx(ctx, stmt, sql)
}

// ExecStmtSQLCtx executes a parsed statement while retaining its SQL text
// for the slow-query log (an empty sql logs a statement-type summary) and
// records the engine's statement metrics. When the context carries an
// enabled tracer (or an active parent span), the statement runs inside a
// "sqlang.statement" span and the slow-query log entry is stamped with the
// trace ID so the two views link up. It plans every statement afresh,
// bypassing the plan cache.
func (e *Engine) ExecStmtSQLCtx(ctx context.Context, stmt Stmt, sql string) (*Result, error) {
	text := sql
	if text == "" {
		text = strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*sqlang.")
	}
	return e.observe(ctx, text, func(ctx context.Context) (*Result, error) {
		return e.execStmt(ctx, stmt)
	})
}

// observe runs one statement inside its "sqlang.statement" span, records
// the statement metrics and feeds the slow-query log.
func (e *Engine) observe(ctx context.Context, text string, run func(context.Context) (*Result, error)) (*Result, error) {
	reg := e.registry()
	ctx, sp := trace.Start(ctx, "sqlang.statement")
	sp.SetAttr("sql", text)
	start := time.Now()
	res, err := run(ctx)
	d := time.Since(start)
	reg.Counter("sqlang.statements").Inc()
	reg.Histogram("sqlang.query.seconds").Observe(d.Seconds())
	if err != nil {
		reg.Counter("sqlang.errors").Inc()
		sp.EndSpan(err)
		return nil, err
	}
	if thr := e.SlowQueryThreshold; thr > 0 && d >= thr {
		reg.Counter("sqlang.slow_queries").Inc()
		e.slow.add(SlowQuery{SQL: text, Duration: d, Plan: res.Plan(), At: time.Now(), TraceID: sp.TraceID()})
	}
	sp.EndOK()
	return res, nil
}

func (e *Engine) execStmt(ctx context.Context, stmt Stmt) (*Result, error) {
	switch s := stmt.(type) {
	case *SelectStmt:
		return e.execSelect(ctx, s)
	case *InsertStmt:
		return e.execInsert(s)
	case *CreateTableStmt:
		// CreateTable logs the DDL on WAL-backed engines.
		if _, err := e.DB.CreateTable(s.Schema); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		if s.Genomic {
			k := s.K
			if k == 0 {
				k = 8
			}
			return &Result{}, e.DB.CreateGenomicIndexOn(s.Table, s.Col, k)
		}
		return &Result{}, e.DB.CreateBTreeIndexOn(s.Table, s.Col)
	case *DeleteStmt:
		return e.execDelete(s)
	case *UpdateStmt:
		return e.execUpdate(s)
	case *AnalyzeStmt:
		return e.execAnalyze(s)
	}
	return nil, fmt.Errorf("sqlang: unsupported statement %T", stmt)
}

func (e *Engine) execUpdate(s *UpdateStmt) (*Result, error) {
	tbl, ok := e.DB.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqlang: unknown table %q", s.Table)
	}
	schema := tbl.Schema()
	setPos := make([]int, len(s.Sets))
	for i, set := range s.Sets {
		ci := schema.ColIndex(set.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sqlang: table %s has no column %q", s.Table, set.Col)
		}
		setPos[i] = ci
	}
	sc := newScope()
	sc.add(s.Table, schema)
	b := newBinder(sc, e.DB.Funcs)
	where := b.bind(s.Where)
	sets := make([]Expr, len(s.Sets))
	for i, set := range s.Sets {
		sets[i] = b.bind(set.Expr)
	}
	if b.err != nil {
		return nil, b.err
	}
	ctx := &evalCtx{}
	// Collect matching rows first: updating while scanning would revisit
	// moved rows.
	type pending struct {
		rid storage.RID
		row db.Row
	}
	var targets []pending
	var evalErr error
	err := tbl.Scan(nil, func(rid storage.RID, row db.Row) bool {
		if where != nil {
			ctx.row = row
			v, err := eval(ctx, where)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		targets = append(targets, pending{rid: rid, row: row})
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return nil, err
	}
	// Evaluate every replacement row before touching the table, then apply
	// the whole statement as one atomic batch: an evaluation error on any
	// row leaves the table untouched, and a mid-apply failure is undone.
	muts := make([]db.Mutation, 0, 2*len(targets))
	for _, t := range targets {
		newRow := make(db.Row, len(t.row))
		copy(newRow, t.row)
		ctx.row = t.row // SET expressions see the pre-update values
		for i, set := range sets {
			v, err := eval(ctx, set)
			if err != nil {
				return nil, err
			}
			if iv, ok := v.(int64); ok && schema.Columns[setPos[i]].Type == db.TFloat {
				v = float64(iv)
			}
			newRow[setPos[i]] = v
		}
		muts = append(muts,
			db.Mutation{Kind: db.MutDelete, RID: t.rid},
			db.Mutation{Kind: db.MutInsert, Row: newRow})
	}
	if err := e.DB.ApplyDML(s.Table, muts); err != nil {
		return nil, err
	}
	return &Result{Affected: len(targets)}, nil
}

func (e *Engine) execInsert(s *InsertStmt) (*Result, error) {
	tbl, ok := e.DB.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqlang: unknown table %q", s.Table)
	}
	schema := tbl.Schema()
	colPos := make([]int, 0, len(s.Cols))
	if len(s.Cols) == 0 {
		for i := range schema.Columns {
			colPos = append(colPos, i)
		}
	} else {
		for _, c := range s.Cols {
			i := schema.ColIndex(c)
			if i < 0 {
				return nil, fmt.Errorf("sqlang: table %s has no column %q", s.Table, c)
			}
			colPos = append(colPos, i)
		}
	}
	// VALUES expressions bind against an empty scope: a column reference
	// there fails as an unknown column when evaluated.
	b := newBinder(newScope(), e.DB.Funcs)
	ctx := &evalCtx{}
	// Evaluate every VALUES row before inserting any, then apply the
	// statement as one atomic batch: a bad row anywhere in the list leaves
	// the table untouched.
	muts := make([]db.Mutation, 0, len(s.Rows))
	for _, exprRow := range s.Rows {
		if len(exprRow) != len(colPos) {
			return nil, fmt.Errorf("sqlang: INSERT row has %d values, expected %d", len(exprRow), len(colPos))
		}
		row := make(db.Row, len(schema.Columns))
		for j, ex := range exprRow {
			v, err := eval(ctx, b.bind(ex))
			if err != nil {
				return nil, err
			}
			// Integer literals feeding float columns coerce.
			if iv, ok := v.(int64); ok && schema.Columns[colPos[j]].Type == db.TFloat {
				v = float64(iv)
			}
			row[colPos[j]] = v
		}
		muts = append(muts, db.Mutation{Kind: db.MutInsert, Row: row})
	}
	if err := e.DB.ApplyDML(s.Table, muts); err != nil {
		return nil, err
	}
	return &Result{Affected: len(muts)}, nil
}

func (e *Engine) execDelete(s *DeleteStmt) (*Result, error) {
	tbl, ok := e.DB.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqlang: unknown table %q", s.Table)
	}
	sc := newScope()
	sc.add(s.Table, tbl.Schema())
	b := newBinder(sc, e.DB.Funcs)
	where := b.bind(s.Where)
	if b.err != nil {
		return nil, b.err
	}
	ctx := &evalCtx{}
	var doomed []storage.RID
	var evalErr error
	err := tbl.Scan(nil, func(rid storage.RID, row db.Row) bool {
		if where != nil {
			ctx.row = row
			v, err := eval(ctx, where)
			if err != nil {
				evalErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		doomed = append(doomed, rid)
		return true
	})
	if evalErr != nil {
		return nil, evalErr
	}
	if err != nil {
		return nil, err
	}
	muts := make([]db.Mutation, 0, len(doomed))
	for _, rid := range doomed {
		muts = append(muts, db.Mutation{Kind: db.MutDelete, RID: rid})
	}
	if err := e.DB.ApplyDML(s.Table, muts); err != nil {
		return nil, err
	}
	return &Result{Affected: len(doomed)}, nil
}

// conjuncts flattens an AND tree.
func conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// predicate cost model (paper Section 6.5): rank = cost / (1 - selectivity);
// evaluating cheap, highly selective predicates first minimizes expected
// work.
func (e *Engine) predicateStats(x Expr) (selectivity, cost float64) {
	switch p := x.(type) {
	case *FuncCall:
		if fn, ok := e.DB.Funcs.Get(p.Name); ok {
			sel := fn.Selectivity
			if sel == 0 {
				sel = 0.5
			}
			c := fn.Cost
			if c == 0 {
				c = 1
			}
			return sel, c
		}
		return 0.5, 1
	case *BinOp:
		opCost := e.exprCost(p.L) + e.exprCost(p.R)
		switch p.Op {
		case "=":
			if sel, ok := e.statsSelectivity("=", p.L, p.R); ok {
				return sel, 0.1 + opCost
			}
			return 0.05, 0.1 + opCost
		case "<", ">", "<=", ">=":
			return 0.3, 0.1 + opCost
		case "<>":
			if sel, ok := e.statsSelectivity("<>", p.L, p.R); ok {
				return sel, 0.1 + opCost
			}
			return 0.9, 0.1 + opCost
		}
	case *IsNull:
		return 0.1, 0.1 + e.exprCost(p.E)
	case *UnOp:
		if p.Op == "NOT" {
			s, c := e.predicateStats(p.E)
			return 1 - s, c
		}
	}
	return 0.5, 0.5
}

// exprCost estimates the evaluation cost of an operand expression; external
// function calls dominate.
func (e *Engine) exprCost(x Expr) float64 {
	switch p := x.(type) {
	case *FuncCall:
		c := 1.0
		if fn, ok := e.DB.Funcs.Get(p.Name); ok && fn.Cost > 0 {
			c = fn.Cost
		}
		for _, a := range p.Args {
			c += e.exprCost(a)
		}
		return c
	case *BinOp:
		return e.exprCost(p.L) + e.exprCost(p.R)
	case *UnOp:
		return e.exprCost(p.E)
	case *IsNull:
		return e.exprCost(p.E)
	}
	return 0
}

func (e *Engine) orderPredicates(preds []Expr) []Expr {
	type ranked struct {
		ex   Expr
		rank float64
	}
	rs := make([]ranked, len(preds))
	for i, p := range preds {
		sel, cost := e.predicateStats(p)
		denom := 1 - sel
		if denom < 0.01 {
			denom = 0.01
		}
		rs[i] = ranked{ex: p, rank: cost / denom}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].rank < rs[j].rank })
	out := make([]Expr, len(rs))
	for i, r := range rs {
		out[i] = r.ex
	}
	return out
}

// accessPath describes the chosen way to produce the driving table's rows.
type accessPath struct {
	path pathDesc
	// rids is non-nil for index paths; nil means full scan.
	rids []storage.RID
	// used marks the conjunct consumed by the path (removed from filters).
	used Expr
}

// boundSelect is a planned SELECT ready to run: the plan, the bound
// expressions the executor evaluates, and the output column names.
type boundSelect struct {
	stmt      *SelectStmt
	pl        *selectPlan
	items     []SelectItem
	cols      []string
	groupBy   []Expr
	having    Expr
	orderKeys []Expr
	// kept holds a cached template's slots for its join steps' build
	// sides, shared by every fork (see keptBuild); nil when not cached.
	kept []*keptBuild
}

func (e *Engine) execSelect(qctx context.Context, s *SelectStmt) (*Result, error) {
	start := time.Now()
	sp := trace.FromContext(qctx)
	// Plan: bind tables, choose access paths and join order by estimated
	// cost (see cost.go), then execute batch-at-a-time (see batch.go).
	pl, err := e.planSelect(qctx, s, s.Analyze || sp != nil)
	if err != nil {
		return nil, err
	}
	if s.Explain && !s.Analyze {
		return explainResult(pl.pi), nil
	}
	bs, err := e.bindSelect(pl)
	if err != nil {
		return nil, err
	}
	return e.runSelect(qctx, bs, start)
}

// explainResult returns a plan as EXPLAIN's one-row result.
func explainResult(pi *planInfo) *Result {
	return &Result{Cols: []string{"plan"}, Rows: []db.Row{{pi.render()}}, plan: pi}
}

// bindSelect binds a planned SELECT once, before execution: every
// expression the executor evaluates reads row positions and holds its
// external function. The columns the binder resolved are all the
// statement reads, so every table access then decodes only those, into
// narrow working rows.
func (e *Engine) bindSelect(pl *selectPlan) (*boundSelect, error) {
	s := pl.stmt
	b := newBinder(pl.sc, e.DB.Funcs)
	b.bindPlan(pl)
	items, cols := expandItems(s, pl.sc)
	for i := range items {
		items[i].Expr = b.bind(items[i].Expr)
	}
	bs := &boundSelect{stmt: s, pl: pl, items: items, cols: cols,
		groupBy: b.bindAll(s.GroupBy), having: b.bind(s.Having)}
	bs.orderKeys = make([]Expr, len(s.OrderBy))
	for i, ok := range s.OrderBy {
		bs.orderKeys[i] = b.bind(ok.Expr)
	}
	if b.err != nil {
		return nil, b.err
	}
	pl.narrow(b.cols)
	return bs, nil
}

// runSelect executes a bound SELECT; start is when the statement began,
// for EXPLAIN ANALYZE's total.
func (e *Engine) runSelect(qctx context.Context, bs *boundSelect, start time.Time) (*Result, error) {
	s, pl, items := bs.stmt, bs.pl, bs.items
	pi := pl.pi
	ctx := &evalCtx{breakJoinKeys: e.UnsafeBreakJoinKeys}
	working, err := e.runPlan(qctx, pl, bs.kept, ctx)
	if err != nil {
		return nil, err
	}

	// Aggregation?
	hasAgg := false
	for _, it := range items {
		if _, ok := it.Expr.(*Aggregate); ok {
			hasAgg = true
		}
	}
	var out []db.Row
	if hasAgg || len(s.GroupBy) > 0 {
		var tAgg time.Time
		if pi.timed {
			tAgg = time.Now()
		}
		out, err = e.aggregate(ctx, items, bs.groupBy, bs.having, working)
		if err != nil {
			return nil, err
		}
		if pi.timed {
			pi.aggregated = true
			pi.aggGroups = len(out)
			pi.aggNanos = time.Since(tAgg).Nanoseconds()
		}
	} else {
		for _, row := range working {
			ctx.row = row
			projected := make(db.Row, len(items))
			for i, it := range items {
				v, err := eval(ctx, it.Expr)
				if err != nil {
					return nil, err
				}
				projected[i] = v
			}
			out = append(out, projected)
		}
	}

	// ORDER BY: evaluated against the output row when the key matches an
	// output alias, otherwise against the pre-projection row (only valid
	// without aggregation).
	if len(s.OrderBy) > 0 {
		var tSort time.Time
		if pi.timed {
			tSort = time.Now()
		}
		if err := e.orderRows(ctx, s, bs.orderKeys, items, bs.cols, working, out, hasAgg); err != nil {
			return nil, err
		}
		if pi.timed {
			pi.sortKeys = len(s.OrderBy)
			pi.sortNanos = time.Since(tSort).Nanoseconds()
		}
	}
	if s.Distinct {
		out = distinctRows(ctx, out)
	}
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	pi.addOperatorSpans(trace.FromContext(qctx))
	if s.Analyze {
		pi.outRows = len(out)
		pi.totalNanos = time.Since(start).Nanoseconds()
		return explainResult(pi), nil
	}
	return &Result{Cols: bs.cols, Rows: out, plan: pi}, nil
}

// distinctRows removes duplicate output tuples, keeping first occurrences.
// Rows key by their typed tuple encoding (appendGroupKey).
func distinctRows(ctx *evalCtx, rows []db.Row) []db.Row {
	seen := map[string]bool{}
	out := rows[:0]
	for _, row := range rows {
		kb := ctx.key[:0]
		for _, v := range row {
			kb = appendGroupKey(kb, v)
		}
		ctx.key = kb
		if !seen[string(kb)] {
			seen[string(kb)] = true
			out = append(out, row)
		}
	}
	return out
}

// rewriteAggregates replaces Aggregate nodes in an expression by literal
// constants computed over the group's rows, so HAVING expressions mixing
// aggregates and group keys evaluate with the ordinary evaluator.
func (e *Engine) rewriteAggregates(ctx *evalCtx, x Expr, rows []db.Row) (Expr, error) {
	switch p := x.(type) {
	case *Aggregate:
		v, err := e.computeAgg(ctx, p, rows)
		if err != nil {
			return nil, err
		}
		return &Lit{Val: v}, nil
	case *BinOp:
		l, err := e.rewriteAggregates(ctx, p.L, rows)
		if err != nil {
			return nil, err
		}
		r, err := e.rewriteAggregates(ctx, p.R, rows)
		if err != nil {
			return nil, err
		}
		return &BinOp{Op: p.Op, L: l, R: r}, nil
	case *UnOp:
		inner, err := e.rewriteAggregates(ctx, p.E, rows)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: p.Op, E: inner}, nil
	case *IsNull:
		inner, err := e.rewriteAggregates(ctx, p.E, rows)
		if err != nil {
			return nil, err
		}
		return &IsNull{E: inner, Negate: p.Negate}, nil
	}
	return x, nil
}

// expandItems resolves SELECT * and computes output column names.
func expandItems(s *SelectStmt, sc *scope) ([]SelectItem, []string) {
	var items []SelectItem
	var cols []string
	for _, it := range s.Items {
		if it.Star {
			for i, qual := range sc.cols {
				items = append(items, SelectItem{Expr: &ColRef{
					Table: strings.SplitN(qual, ".", 2)[0],
					Name:  sc.bare[i].name,
				}})
				cols = append(cols, sc.bare[i].name)
			}
			continue
		}
		items = append(items, it)
		switch {
		case it.Alias != "":
			cols = append(cols, it.Alias)
		default:
			cols = append(cols, it.Expr.String())
		}
	}
	return items, cols
}

// orderRows sorts the output rows by the ORDER BY keys; keys holds the
// bound key expressions, evaluated when a key names no output column.
func (e *Engine) orderRows(ctx *evalCtx, s *SelectStmt, keys []Expr, items []SelectItem, cols []string, working, out []db.Row, hasAgg bool) error {
	type keyed struct {
		keys []any
		row  db.Row
	}
	rows := make([]keyed, len(out))
	for i := range out {
		rows[i].row = out[i]
		rows[i].keys = make([]any, len(s.OrderBy))
		for ki, ok := range s.OrderBy {
			// Alias, output-column, or output-expression reference?
			want := ok.Expr.String()
			if cr, isCol := ok.Expr.(*ColRef); isCol && cr.Table == "" {
				want = cr.Name
			}
			found := -1
			for ci, cn := range cols {
				if strings.EqualFold(cn, want) {
					found = ci
					break
				}
			}
			if found < 0 {
				// Also match against the select expressions themselves
				// (e.g. ORDER BY COUNT(*) when the item is unaliased).
				for ci, it := range items {
					if it.Expr != nil && strings.EqualFold(it.Expr.String(), want) {
						found = ci
						break
					}
				}
			}
			if found >= 0 {
				rows[i].keys[ki] = out[i][found]
				continue
			}
			if hasAgg {
				return fmt.Errorf("sqlang: ORDER BY key %s must reference an output column under aggregation", ok.Expr)
			}
			ctx.row = working[i]
			v, err := eval(ctx, keys[ki])
			if err != nil {
				return err
			}
			rows[i].keys[ki] = v
		}
	}
	var sortErr error
	sort.SliceStable(rows, func(a, b int) bool {
		for ki, okey := range s.OrderBy {
			ka, kb := rows[a].keys[ki], rows[b].keys[ki]
			if ka == nil && kb == nil {
				continue
			}
			if ka == nil {
				return !okey.Desc
			}
			if kb == nil {
				return okey.Desc
			}
			c, err := compareVals(ka, kb)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if okey.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range rows {
		out[i] = rows[i].row
	}
	return nil
}

// aggregate groups working rows, filters groups by the HAVING expression,
// and computes aggregate select items.
func (e *Engine) aggregate(ctx *evalCtx, items []SelectItem, groupBy []Expr, having Expr, working []db.Row) ([]db.Row, error) {
	type group struct {
		rows []db.Row
	}
	groups := map[string]*group{}
	var order []*group
	for _, row := range working {
		ctx.row = row
		kb := ctx.key[:0]
		for _, gx := range groupBy {
			v, err := eval(ctx, gx)
			if err != nil {
				return nil, err
			}
			kb = appendGroupKey(kb, v)
		}
		ctx.key = kb
		g := groups[string(kb)]
		if g == nil {
			g = &group{}
			groups[string(kb)] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, row)
	}
	if len(groupBy) == 0 && len(groups) == 0 {
		// Aggregates over an empty set produce one row.
		order = append(order, &group{})
	}

	var out []db.Row
	for _, g := range order {
		if having != nil {
			rewritten, err := e.rewriteAggregates(ctx, having, g.rows)
			if err != nil {
				return nil, err
			}
			if len(g.rows) > 0 {
				ctx.row = g.rows[0]
			}
			v, err := eval(ctx, rewritten)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		row := make(db.Row, len(items))
		for i, it := range items {
			agg, isAgg := it.Expr.(*Aggregate)
			if !isAgg {
				// Must be a group-by expression; evaluate on first row.
				if len(g.rows) > 0 {
					ctx.row = g.rows[0]
					v, err := eval(ctx, it.Expr)
					if err != nil {
						return nil, err
					}
					row[i] = v
				}
				continue
			}
			v, err := e.computeAgg(ctx, agg, g.rows)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out = append(out, row)
	}
	return out, nil
}

func (e *Engine) computeAgg(ctx *evalCtx, agg *Aggregate, rows []db.Row) (any, error) {
	if agg.Fn == "COUNT" && agg.Arg == nil {
		return int64(len(rows)), nil
	}
	var count int64
	var sum float64
	allInt := true
	var minV, maxV any
	for _, r := range rows {
		ctx.row = r
		v, err := eval(ctx, agg.Arg)
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		count++
		switch agg.Fn {
		case "SUM", "AVG":
			f, err := toFloat(v)
			if err != nil {
				return nil, err
			}
			if _, isInt := v.(int64); !isInt {
				allInt = false
			}
			sum += f
		case "MIN":
			if minV == nil {
				minV = v
			} else if c, err := compareVals(v, minV); err != nil {
				return nil, err
			} else if c < 0 {
				minV = v
			}
		case "MAX":
			if maxV == nil {
				maxV = v
			} else if c, err := compareVals(v, maxV); err != nil {
				return nil, err
			} else if c > 0 {
				maxV = v
			}
		}
	}
	switch agg.Fn {
	case "COUNT":
		return count, nil
	case "SUM":
		if count == 0 {
			return nil, nil
		}
		if allInt {
			return int64(sum), nil
		}
		return sum, nil
	case "AVG":
		if count == 0 {
			return nil, nil
		}
		return sum / float64(count), nil
	case "MIN":
		return minV, nil
	case "MAX":
		return maxV, nil
	}
	return nil, fmt.Errorf("sqlang: unknown aggregate %q", agg.Fn)
}
