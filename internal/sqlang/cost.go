package sqlang

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"genalg/internal/db"
	"genalg/internal/kmeridx"
)

// Cost model constants. Units are abstract "row visits": decoding and
// dispatching one heap row costs costScanRow, and predicate evaluation adds
// the predicate's own cost (external functions dominate, see
// db.ExternalFunc.Cost). Index seeks pay a fixed descent charge on top of
// the rows they produce. The constants are calibrated against the measured
// E4/E16 shapes, not against wall time directly; what matters is their
// ratios, which decide scan-vs-index and join order.
const (
	// costScanRow is the charge for producing one row from the heap.
	costScanRow = 1.0
	// costIndexSeek is the fixed charge for a B-tree descent or k-mer
	// posting merge.
	costIndexSeek = 4.0
	// costHashBuild / costHashProbe are the per-row charges for the two
	// sides of a hash join. They are deliberately equal: in this executor
	// both sides do the same work per row (key evaluation, one map
	// operation, one row copy), so a two-table hash join prices the same
	// under either order and the planner's smaller-intermediate-cardinality
	// rule acts as the tiebreak. An asymmetric pair would make the model
	// contradict the greedy order and EXPLAIN would report rejected
	// alternatives cheaper than the chosen plan.
	costHashBuild = 0.5
	// costHashProbe is the per-row charge for probing the hash table.
	costHashProbe = 0.5
	// defaultIndexEqFrac estimates the fraction of rows an index equality
	// returns when the table has not been ANALYZEd.
	defaultIndexEqFrac = 0.1
	// defaultEqJoinSel is the per-key equi-join selectivity when neither
	// join column has ANALYZE distinct counts.
	defaultEqJoinSel = 0.1
)

// indexSeekCost resolves the fixed index-descent charge: the
// Engine.CostIndexSeek override when set (the regression harness perturbs
// it in self-tests), else the calibrated constant.
func (e *Engine) indexSeekCost() float64 {
	if e.CostIndexSeek > 0 {
		return e.CostIndexSeek
	}
	return costIndexSeek
}

// tableSlot binds one FROM/JOIN table to its column segment in the working
// row. The working-row layout always follows the declared table order, so
// scope resolution and output columns are independent of the join order the
// planner picks. Planning sees every column; selectPlan.narrow then shrinks
// each segment to the columns the statement reads.
type tableSlot struct {
	ref    TableRef
	tbl    *db.Table
	offset int // first column position in the working row
	width  int // number of columns this table contributes
	// cols is the column map every access to the table decodes under
	// (see db.DecodeRow): schema column → position in the segment, -1
	// when the statement never reads it. Set by narrow.
	cols []int
}

// planAlt is one plan alternative the planner costed and rejected; EXPLAIN
// renders these so plan choices are auditable.
type planAlt struct {
	desc string
	cost float64
}

// joinStep is one planned join: which slot joins next, the strategy, and
// the predicates consumed at or evaluated after this step.
type joinStep struct {
	slot int
	// hash selects a hash join on the equi-key expressions below; false
	// is a nested loop over the materialized build table.
	hash bool
	// probeKey/buildKey are the equi-join key expressions: probeKey reads
	// already-joined columns, buildKey reads the new table's columns.
	probeKey []Expr
	buildKey []Expr
	keyDesc  string
	// pushed holds single-table predicates evaluated on the build table's
	// rows while they stream into the join, before any output row exists.
	pushed []Expr
	// after holds multi-table predicates that become evaluable once this
	// step's table is joined.
	after []Expr
	// est is the estimated output cardinality after this step (including
	// its after-predicates).
	est float64
}

// selectPlan is the executable plan for one SELECT.
type selectPlan struct {
	stmt   *SelectStmt
	tables []tableSlot
	sc     *scope
	width  int
	driver int // slot index of the driving table
	access accessPath
	// driverFilters are evaluated on driving rows as they stream out of
	// the access path (for single-table queries: every residual predicate,
	// in rank order — identical to the pre-batch executor).
	driverFilters []Expr
	joins         []joinStep
	// residual predicates run after the final join: multi-table conjuncts
	// the planner could not place earlier plus any predicate whose columns
	// failed to resolve (those must error — or not — exactly as the
	// row-at-a-time evaluator would).
	residual []Expr
	parallel int // >1: the driver scan is partitioned across this many workers
	cost     float64
	pi       *planInfo
}

// predMask computes the set of slots (bit i = tables[i]) an expression
// references. ok=false when any column fails to resolve (unknown or
// ambiguous); such predicates stay residual so execution surfaces the same
// error row-at-a-time evaluation would — or no error at all when no row
// reaches them.
func predMask(sc *scope, slots []tableSlot, x Expr) (mask uint64, ok bool) {
	switch p := x.(type) {
	case nil:
		return 0, true
	case *Lit:
		return 0, true
	case *ColRef:
		i, err := sc.resolve(p)
		if err != nil {
			return 0, false
		}
		for si, sl := range slots {
			if i >= sl.offset && i < sl.offset+sl.width {
				return 1 << uint(si), true
			}
		}
		return 0, false
	case *BinOp:
		l, okl := predMask(sc, slots, p.L)
		r, okr := predMask(sc, slots, p.R)
		return l | r, okl && okr
	case *UnOp:
		return predMask(sc, slots, p.E)
	case *IsNull:
		return predMask(sc, slots, p.E)
	case *FuncCall:
		var m uint64
		for _, a := range p.Args {
			am, aok := predMask(sc, slots, a)
			if !aok {
				return 0, false
			}
			m |= am
		}
		return m, true
	}
	// Aggregates (and anything else) are not placeable; leave residual so
	// the evaluator rejects them the way it always has.
	return 0, false
}

// accessCandKind enumerates the access-path families the planner costs.
type accessCandKind int

const (
	candScan accessCandKind = iota
	candBTreeEq
	candGenomic
)

// accessCand is one costed access-path candidate for a driving table.
type accessCand struct {
	kind accessCandKind
	desc string
	used Expr // conjunct the path would consume
	col  string
	val  any    // equality literal (candBTreeEq)
	pat  string // pattern literal (candGenomic)
	est  float64
	cost float64
}

// slotColOf returns the column name when x is a ColRef naming a column of
// the given table (unqualified or qualified with its effective name).
func slotColOf(schema db.Schema, tableName string, x Expr) (string, bool) {
	c, ok := x.(*ColRef)
	if !ok {
		return "", false
	}
	if c.Table != "" && !strings.EqualFold(c.Table, tableName) {
		return "", false
	}
	if schema.ColIndex(c.Name) < 0 {
		return "", false
	}
	return c.Name, true
}

// litValOf unwraps a literal operand.
func litValOf(x Expr) (any, bool) {
	l, ok := x.(*Lit)
	if !ok {
		return nil, false
	}
	return l.Val, true
}

// predCostSum totals the evaluation cost of a predicate list, skipping one
// consumed predicate.
func (e *Engine) predCostSum(preds []Expr, skip Expr) float64 {
	var sum float64
	for _, p := range preds {
		if p == skip {
			continue
		}
		_, c := e.predicateStats(p)
		sum += c
	}
	return sum
}

// selProduct multiplies the estimated selectivities of a predicate list,
// skipping one consumed predicate.
func (e *Engine) selProduct(preds []Expr, skip Expr) float64 {
	sel := 1.0
	for _, p := range preds {
		if p == skip {
			continue
		}
		s, _ := e.predicateStats(p)
		sel *= s
	}
	return sel
}

// enumerateAccess costs every access path available to slot as the driving
// table: the full scan plus one candidate per indexable single-table
// conjunct. Estimates come from ANALYZE statistics when present; no index
// lookup is executed here — the chosen path is materialized afterwards.
func (e *Engine) enumerateAccess(slot tableSlot, singles []Expr) []accessCand {
	name := slot.ref.EffectiveName()
	schema := slot.tbl.Schema()
	rows := float64(slot.tbl.RowCount())
	cands := []accessCand{{
		kind: candScan,
		desc: fmt.Sprintf("scan %s", name),
		est:  rows,
		cost: rows*costScanRow + rows*e.predCostSum(singles, nil),
	}}
	eqCand := func(p Expr, col string, val any) {
		est := rows * defaultIndexEqFrac
		if st, ok := e.stats.get(slot.ref.Name); ok {
			if cs, okc := st.Cols[col]; okc && cs.Distinct > 0 {
				est = float64(st.Rows) / float64(cs.Distinct)
			}
		}
		if est < 1 && rows > 0 {
			est = 1
		}
		cands = append(cands, accessCand{
			kind: candBTreeEq,
			desc: fmt.Sprintf("index eq %s.%s", name, col),
			used: p, col: col, val: val,
			est:  est,
			cost: e.indexSeekCost() + est*(costScanRow+e.predCostSum(singles, p)),
		})
	}
	for _, p := range singles {
		if b, ok := p.(*BinOp); ok && b.Op == "=" {
			if col, okc := slotColOf(schema, name, b.L); okc && slot.tbl.HasBTreeIndex(col) {
				if v, okv := litValOf(b.R); okv {
					eqCand(p, col, v)
					continue
				}
			}
			if col, okc := slotColOf(schema, name, b.R); okc && slot.tbl.HasBTreeIndex(col) {
				if v, okv := litValOf(b.L); okv {
					eqCand(p, col, v)
					continue
				}
			}
		}
		if fc, ok := p.(*FuncCall); ok && len(fc.Args) == 2 {
			fn, known := e.DB.Funcs.Get(fc.Name)
			if !known || fn.IndexHint != "kmer" {
				continue
			}
			col, okc := slotColOf(schema, name, fc.Args[0])
			pat, okp := litValOf(fc.Args[1])
			pstr, oks := pat.(string)
			if !okc || !okp || !oks || !slot.tbl.HasGenomicIndex(col) {
				continue
			}
			sel := fn.Selectivity
			if sel == 0 {
				sel = 0.5
			}
			fnCost := fn.Cost
			if fnCost == 0 {
				fnCost = 1
			}
			est := rows * sel
			if est < 1 && rows > 0 {
				est = 1
			}
			cands = append(cands, accessCand{
				kind: candGenomic,
				desc: fmt.Sprintf("genomic index %s.%s pattern=%q", name, col, pstr),
				used: p, col: col, pat: pstr,
				est:  est,
				cost: e.indexSeekCost() + est*(costScanRow+fnCost+e.predCostSum(singles, p)),
			})
		}
	}
	return cands
}

// bestAccess picks the cheapest candidate (ties to the earliest, which
// keeps the scan first and index order deterministic).
func bestAccess(cands []accessCand) (best accessCand, rest []accessCand) {
	bi := 0
	for i, c := range cands {
		if c.cost < cands[bi].cost {
			bi = i
		}
	}
	for i, c := range cands {
		if i != bi {
			rest = append(rest, c)
		}
	}
	return cands[bi], rest
}

// materializeAccess executes the chosen candidate's index lookup. ok=false
// reports a genomic pattern shorter than the index word: the caller falls
// back to the scan candidate.
func (e *Engine) materializeAccess(ctx context.Context, slot tableSlot, cand accessCand) (accessPath, bool, error) {
	switch cand.kind {
	case candScan:
		return accessPath{desc: cand.desc}, true, nil
	case candBTreeEq:
		rids, err := slot.tbl.IndexLookup(cand.col, cand.val)
		if err != nil {
			return accessPath{}, false, err
		}
		return accessPath{desc: cand.desc, rids: rids, used: cand.used}, true, nil
	case candGenomic:
		rids, err := slot.tbl.GenomicLookupCtx(ctx, cand.col, cand.pat)
		if err != nil {
			var short *kmeridx.ErrPatternTooShort
			if errors.As(err, &short) {
				return accessPath{}, false, nil
			}
			return accessPath{}, false, err
		}
		return accessPath{desc: cand.desc, rids: rids, used: cand.used}, true, nil
	}
	return accessPath{}, false, fmt.Errorf("sqlang: unknown access candidate kind %d", cand.kind)
}

// keyDistinct resolves an equi-join key expression to its ANALYZE distinct
// count when the expression is a plain column reference.
func (e *Engine) keyDistinct(sc *scope, slots []tableSlot, x Expr) int {
	c, ok := x.(*ColRef)
	if !ok {
		return 0
	}
	i, err := sc.resolve(c)
	if err != nil {
		return 0
	}
	for _, sl := range slots {
		if i >= sl.offset && i < sl.offset+sl.width {
			schema := sl.tbl.Schema()
			return e.distinctFor(sl.ref.Name, schema.Columns[i-sl.offset].Name)
		}
	}
	return 0
}

// eqJoinSelectivity estimates one equi-key's selectivity: 1/max(d_left,
// d_right) when ANALYZE distinct counts exist on either side (the standard
// System R formula), else the static default.
func (e *Engine) eqJoinSelectivity(sc *scope, slots []tableSlot, probe, build Expr) float64 {
	d := e.keyDistinct(sc, slots, probe)
	if bd := e.keyDistinct(sc, slots, build); bd > d {
		d = bd
	}
	if d > 0 {
		return 1 / float64(d)
	}
	return defaultEqJoinSel
}

// plannedPred tracks one WHERE conjunct through planning.
type plannedPred struct {
	ex       Expr
	mask     uint64
	resolved bool
	done     bool
}

// costedStep is a joinStep plus its planning-time cost.
type costedStep struct {
	joinStep
	cost float64
}

// costJoinStep plans joining cand onto the already-joined set: it collects
// the equi-keys and placeable predicates, chooses hash-vs-nested-loop, and
// estimates output cardinality and cost. It does not mark predicates done.
func (e *Engine) costJoinStep(pl *selectPlan, preds []*plannedPred, set uint64, cur float64, cand int) costedStep {
	slot := pl.tables[cand]
	candBit := uint64(1) << uint(cand)
	rows := float64(slot.tbl.RowCount())

	var pushed []Expr
	candSel := 1.0
	for _, p := range preds {
		if p.done || !p.resolved || p.mask != candBit {
			continue
		}
		pushed = append(pushed, p.ex)
		s, _ := e.predicateStats(p.ex)
		candSel *= s
	}
	candEst := rows * candSel

	var probeKey, buildKey []Expr
	var keyParts []string
	var after []Expr
	eqSel := 1.0
	afterSel := 1.0
	for _, p := range preds {
		if p.done || !p.resolved || p.mask&candBit == 0 || p.mask&^(set|candBit) != 0 || p.mask == candBit {
			continue
		}
		if b, ok := p.ex.(*BinOp); ok && b.Op == "=" {
			lm, okl := predMask(pl.sc, pl.tables, b.L)
			rm, okr := predMask(pl.sc, pl.tables, b.R)
			if okl && okr {
				if lm != 0 && lm&candBit == 0 && rm == candBit {
					probeKey = append(probeKey, b.L)
					buildKey = append(buildKey, b.R)
					keyParts = append(keyParts, b.String())
					eqSel *= e.eqJoinSelectivity(pl.sc, pl.tables, b.L, b.R)
					continue
				}
				if rm != 0 && rm&candBit == 0 && lm == candBit {
					probeKey = append(probeKey, b.R)
					buildKey = append(buildKey, b.L)
					keyParts = append(keyParts, b.String())
					eqSel *= e.eqJoinSelectivity(pl.sc, pl.tables, b.R, b.L)
					continue
				}
			}
		}
		after = append(after, p.ex)
		s, _ := e.predicateStats(p.ex)
		afterSel *= s
	}

	st := costedStep{joinStep: joinStep{slot: cand, pushed: pushed, after: after}}
	buildCost := rows*costScanRow + rows*e.predCostSum(pushed, nil)
	if len(buildKey) > 0 {
		st.hash = true
		st.probeKey, st.buildKey = probeKey, buildKey
		st.keyDesc = strings.Join(keyParts, " AND ")
		st.est = cur * candEst * eqSel
		st.cost = buildCost + candEst*costHashBuild + cur*costHashProbe + st.est*costScanRow
	} else {
		st.est = cur * candEst
		st.cost = buildCost + cur*candEst*costScanRow
	}
	st.est *= afterSel
	if st.est < 0 {
		st.est = 0
	}
	return st
}

// planSelect builds the cost-based plan for a SELECT: bind tables, choose
// the driving table's access path by estimated cost, order the joins
// greedily by estimated cardinality, pick hash joins for equi-predicates,
// and record the rejected alternatives for EXPLAIN.
func (e *Engine) planSelect(qctx context.Context, s *SelectStmt, timed bool) (*selectPlan, error) {
	pl := &selectPlan{stmt: s}
	where := s.Where
	bind := func(tr TableRef) error {
		tbl, ok := e.DB.Table(tr.Name)
		if !ok {
			return fmt.Errorf("sqlang: unknown table %q", tr.Name)
		}
		w := len(tbl.Schema().Columns)
		pl.tables = append(pl.tables, tableSlot{ref: tr, tbl: tbl, offset: pl.width, width: w})
		pl.width += w
		return nil
	}
	for _, tr := range s.From {
		if err := bind(tr); err != nil {
			return nil, err
		}
	}
	for _, j := range s.Joins {
		if err := bind(j.Table); err != nil {
			return nil, err
		}
		// Fold ON conditions into WHERE (inner joins only).
		if where == nil {
			where = j.On
		} else {
			where = &BinOp{Op: "AND", L: where, R: j.On}
		}
	}
	pl.sc = newScope()
	for _, sl := range pl.tables {
		pl.sc.add(sl.ref.EffectiveName(), sl.tbl.Schema())
	}
	ordered := e.orderPredicates(conjuncts(where))
	pl.pi = &planInfo{analyze: s.Analyze, timed: timed}

	preds := make([]*plannedPred, len(ordered))
	for i, p := range ordered {
		m, ok := predMask(pl.sc, pl.tables, p)
		preds[i] = &plannedPred{ex: p, mask: m, resolved: ok}
	}

	// Driving table: the slot with the smallest estimated filtered
	// cardinality under its best access path (ties to declared order).
	singlesOf := func(si int) []Expr {
		bit := uint64(1) << uint(si)
		var out []Expr
		for _, p := range preds {
			if p.resolved && p.mask == bit {
				out = append(out, p.ex)
			}
		}
		return out
	}
	driver, driverEst := 0, 0.0
	var driverCands []accessCand
	for si := range pl.tables {
		cands := e.enumerateAccess(pl.tables[si], singlesOf(si))
		best, _ := bestAccess(cands)
		est := best.est * e.selProduct(singlesOf(si), best.used)
		if si == 0 || est < driverEst {
			driver, driverEst, driverCands = si, est, cands
		}
	}
	pl.driver = driver

	// Materialize the chosen access path; a too-short genomic pattern falls
	// back to the scan candidate.
	chosen, rejected := bestAccess(driverCands)
	path, ok, err := e.materializeAccess(qctx, pl.tables[driver], chosen)
	if err != nil {
		return nil, err
	}
	if !ok {
		for i, c := range rejected {
			if c.kind == candScan {
				chosen = c
				rejected = append(rejected[:i:i], rejected[i+1:]...)
				break
			}
		}
		path = accessPath{desc: chosen.desc}
	}
	pl.access = path
	pl.cost = chosen.cost
	for _, c := range rejected {
		pl.pi.alts = append(pl.pi.alts, planAlt{desc: c.desc, cost: c.cost})
	}
	for _, p := range preds {
		if p.ex == path.used {
			p.done = true
		}
	}

	// Driver filters: for a single-table query every remaining conjunct (in
	// rank order, resolved or not) runs on the driving rows — identical to
	// the pre-batch executor. With joins, only the driver's own
	// single-table predicates run here.
	driverBit := uint64(1) << uint(driver)
	for _, p := range preds {
		if p.done {
			continue
		}
		if len(pl.tables) == 1 || (p.resolved && p.mask&^driverBit == 0) {
			pl.driverFilters = append(pl.driverFilters, p.ex)
			p.done = true
		}
	}

	// Refined driving estimate (stats- or lookup-based), then the greedy
	// join order: always join the table minimizing the estimated
	// intermediate cardinality next.
	pl.pi.estAccess = e.accessEstimate(path, pl.tables[driver].tbl, pl.tables[driver].ref.Name)
	cur := float64(pl.pi.estAccess) * e.selProduct(pl.driverFilters, nil)
	set := driverBit
	var remaining []int
	for si := range pl.tables {
		if si != driver {
			remaining = append(remaining, si)
		}
	}
	for len(remaining) > 0 {
		bi := -1
		var bestStep costedStep
		for i, cand := range remaining {
			st := e.costJoinStep(pl, preds, set, cur, cand)
			if bi < 0 || st.est < bestStep.est || (st.est == bestStep.est && cand < remaining[bi]) {
				bi, bestStep = i, st
			}
		}
		markDone := func(exprs []Expr) {
			for _, x := range exprs {
				for _, p := range preds {
					if p.ex == x {
						p.done = true
					}
				}
			}
		}
		markDone(bestStep.pushed)
		markDone(bestStep.after)
		for i := range bestStep.probeKey {
			for _, p := range preds {
				if b, ok := p.ex.(*BinOp); ok && !p.done &&
					((b.L == bestStep.probeKey[i] && b.R == bestStep.buildKey[i]) ||
						(b.R == bestStep.probeKey[i] && b.L == bestStep.buildKey[i])) {
					p.done = true
				}
			}
		}
		pl.joins = append(pl.joins, bestStep.joinStep)
		pl.cost += bestStep.cost
		cur = bestStep.est
		set |= 1 << uint(bestStep.slot)
		remaining = append(remaining[:bi], remaining[bi+1:]...)
	}

	// Whatever is left (unresolvable references, aggregates in WHERE) runs
	// after the final join, exactly as the heuristic executor ran every
	// residual filter.
	for _, p := range preds {
		if !p.done {
			pl.residual = append(pl.residual, p.ex)
			s, _ := e.predicateStats(p.ex)
			cur *= s
		}
	}

	// Rejected join order: when the greedy order deviates from the declared
	// one, cost the declared order too so EXPLAIN shows what reordering
	// bought.
	execOrder := []int{pl.driver}
	for _, st := range pl.joins {
		execOrder = append(execOrder, st.slot)
	}
	declared := true
	for i, si := range execOrder {
		if si != i {
			declared = false
			break
		}
	}
	if !declared {
		names := make([]string, len(pl.tables))
		for i, sl := range pl.tables {
			names[i] = sl.ref.EffectiveName()
		}
		pl.pi.alts = append(pl.pi.alts, planAlt{
			desc: "join order " + strings.Join(names, ", "),
			cost: e.declaredOrderCost(pl, ordered),
		})
		e.registry().Counter("sqlang.plan.reordered").Inc()
	}

	e.finishPlanInfo(pl, cur)
	return pl, nil
}

// declaredOrderCost prices the un-reordered plan (declared driver, declared
// join sequence) with the same cost model, for the EXPLAIN alternatives
// list.
func (e *Engine) declaredOrderCost(pl *selectPlan, ordered []Expr) float64 {
	preds := make([]*plannedPred, len(ordered))
	for i, p := range ordered {
		m, ok := predMask(pl.sc, pl.tables, p)
		preds[i] = &plannedPred{ex: p, mask: m, resolved: ok}
	}
	var singles []Expr
	for _, p := range preds {
		if p.resolved && p.mask == 1 {
			singles = append(singles, p.ex)
		}
	}
	cands := e.enumerateAccess(pl.tables[0], singles)
	best, _ := bestAccess(cands)
	for _, p := range preds {
		if p.ex == best.used || (p.resolved && p.mask == 1) {
			p.done = true
		}
	}
	total := best.cost
	cur := best.est * e.selProduct(singles, best.used)
	set := uint64(1)
	for cand := 1; cand < len(pl.tables); cand++ {
		st := e.costJoinStep(pl, preds, set, cur, cand)
		for _, p := range preds {
			if p.mask != 0 && p.mask&^(set|1<<uint(cand)) == 0 {
				p.done = true
			}
		}
		total += st.cost
		cur = st.est
		set |= 1 << uint(cand)
	}
	return total
}

// finishPlanInfo decides scan parallelism and copies the plan into the
// rendering/accounting planInfo.
func (e *Engine) finishPlanInfo(pl *selectPlan, finalEst float64) {
	// A large unindexed single-table scan is partitioned across workers;
	// results stay in heap order, identical to the serial scan.
	if scanWorkers := e.workerBound(); pl.access.rids == nil && len(pl.tables) == 1 &&
		scanWorkers > 1 && pl.tables[pl.driver].tbl.RowCount() >= e.parScanMinRows() {
		pl.parallel = scanWorkers
		pl.pi.parallelWorkers = scanWorkers
	}
	pi := pl.pi
	pi.access = pl.access.desc
	addFilters := func(preds []Expr) {
		for _, f := range preds {
			sel, cost := e.predicateStats(f)
			pi.filters = append(pi.filters, filterInfo{expr: f, sel: sel, cost: cost})
		}
	}
	addFilters(pl.driverFilters)
	for _, st := range pl.joins {
		ji := joinInfo{table: pl.tables[st.slot].ref.EffectiveName(), hash: st.hash, cond: st.keyDesc, est: int(st.est + 0.5)}
		for _, p := range st.pushed {
			sel, cost := e.predicateStats(p)
			ji.pushed = append(ji.pushed, filterInfo{expr: p, sel: sel, cost: cost})
		}
		pi.joins = append(pi.joins, ji)
		addFilters(st.after)
	}
	addFilters(pl.residual)
	pi.estFilter = int(finalEst + 0.5)
	pi.planCost = pl.cost
	var nHash int64
	for _, st := range pl.joins {
		if st.hash {
			nHash++
		}
	}
	reg := e.registry()
	reg.Counter("sqlang.plan.cbo").Inc()
	if nHash > 0 {
		reg.Counter("sqlang.plan.hash_joins").Add(nHash)
	}
}
