package regress

import (
	"fmt"
	"math/rand"
	"strings"

	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/storage"
)

// colInfo is the generator's view of one column.
type colInfo struct {
	table   string
	name    string
	typ     db.ColType
	udt     string
	btree   bool
	genomic bool
	// samples holds distinct literal values observed in the column
	// (scalar columns only), so generated predicates and join keys
	// actually hit rows.
	samples []any
}

func (c colInfo) ref() string { return c.table + "." + c.name }

// tableInfo is the generator's view of one table.
type tableInfo struct {
	name string
	cols []colInfo
	rows int
	// letters holds raw sequences sampled from dna columns; contains()
	// patterns are cut from them so genomic predicates are selective but
	// not vacuous.
	letters []string
}

// joinPair is one type-compatible (left, right) column pair across two
// different tables — an equi-join candidate.
type joinPair struct {
	l, r colInfo
}

// Outcome summarizes one generated statement's execution for adaptive
// template weighting.
type Outcome struct {
	Err      bool
	Rows     int
	Diverged bool
}

// Generator produces random type-correct SELECT statements over a live
// catalog (shiro-style): templates are sampled by adaptive weights,
// literals come from values actually present in the data, and all
// randomness flows from one seed so a run is reproducible.
type Generator struct {
	Seed   int64
	rnd    *rand.Rand
	tables []tableInfo
	pairs  []joinPair

	templates []template
	weights   []float64
	last      int // template index of the last generated statement
}

// template is one statement shape. gen returns "" when the catalog
// cannot support the shape (e.g. no genomic column).
type template struct {
	name string
	gen  func(g *Generator) string
}

// maxSamplesPerCol bounds per-column literal sampling.
const maxSamplesPerCol = 12

// NewGenerator snapshots the catalog of d (tables, columns, indexes,
// sampled values) and seeds the statement stream. Table order is
// lexical and sampling order is heap order, so the snapshot — and hence
// the whole statement stream — is deterministic for a given database
// state and seed.
func NewGenerator(d *db.DB, seed int64) (*Generator, error) {
	g := &Generator{Seed: seed, rnd: rand.New(rand.NewSource(seed))}
	for _, name := range d.Tables() {
		tbl, _ := d.Table(name)
		schema := tbl.Schema()
		ti := tableInfo{name: name, rows: tbl.RowCount()}
		for _, c := range schema.Columns {
			ci := colInfo{
				table: name, name: c.Name, typ: c.Type, udt: c.UDTName,
				btree:   tbl.HasBTreeIndex(c.Name),
				genomic: tbl.HasGenomicIndex(c.Name),
			}
			ti.cols = append(ti.cols, ci)
		}
		scanned := 0
		seen := make([]map[string]bool, len(ti.cols))
		for i := range seen {
			seen[i] = map[string]bool{}
		}
		err := tbl.Scan(nil, func(_ storage.RID, row db.Row) bool {
			scanned++
			for i := range ti.cols {
				v := row[i]
				if v == nil {
					continue
				}
				switch ti.cols[i].typ {
				case db.TInt, db.TFloat, db.TString, db.TBool:
					if len(ti.cols[i].samples) < maxSamplesPerCol {
						k := fmt.Sprintf("%v", v)
						if !seen[i][k] {
							seen[i][k] = true
							ti.cols[i].samples = append(ti.cols[i].samples, v)
						}
					}
				case db.TOpaque:
					if dv, ok := v.(gdt.DNA); ok && len(ti.letters) < 8 {
						ti.letters = append(ti.letters, dv.Seq.String())
					}
				}
			}
			return scanned < 200
		})
		if err != nil {
			return nil, err
		}
		g.tables = append(g.tables, ti)
	}
	// Equi-join candidates: scalar columns of compatible types in
	// different tables (int and float are compatible — the executor
	// unifies them in join keys).
	numeric := func(t db.ColType) bool { return t == db.TInt || t == db.TFloat }
	for ti := range g.tables {
		for tj := ti + 1; tj < len(g.tables); tj++ {
			for _, lc := range g.tables[ti].cols {
				for _, rc := range g.tables[tj].cols {
					if lc.typ == rc.typ && lc.typ != db.TOpaque && lc.typ != db.TBytes ||
						numeric(lc.typ) && numeric(rc.typ) {
						g.pairs = append(g.pairs, joinPair{l: lc, r: rc})
					}
				}
			}
		}
	}
	g.templates = []template{
		{"point", (*Generator).genPoint},
		{"filter", (*Generator).genFilter},
		{"join2", (*Generator).genJoin2},
		{"join3", (*Generator).genJoin3},
		{"agg", (*Generator).genAgg},
		{"distinct", (*Generator).genDistinct},
		{"orderlimit", (*Generator).genOrderLimit},
		{"genomic", (*Generator).genGenomic},
		{"exprproj", (*Generator).genExprProj},
	}
	g.weights = make([]float64, len(g.templates))
	for i := range g.weights {
		g.weights[i] = 1
	}
	return g, nil
}

// Next produces the next statement. It never returns "" as long as the
// catalog has at least one table.
func (g *Generator) Next() string {
	for attempt := 0; attempt < 10; attempt++ {
		i := g.pickTemplate()
		if sql := g.templates[i].gen(g); sql != "" {
			g.last = i
			return sql
		}
	}
	// Degenerate catalog: fall back to a full scan.
	g.last = 1
	return "SELECT * FROM " + g.tables[g.rnd.Intn(len(g.tables))].name
}

// LastTemplate names the template that produced the last statement.
func (g *Generator) LastTemplate() string { return g.templates[g.last].name }

// Feedback adapts template weights from an execution outcome: templates
// that keep producing invalid statements are sampled less, templates
// that produce non-empty results slightly more, and templates that
// found a divergence are boosted hard — the fuzzer leans into whatever
// shape is currently finding bugs.
func (g *Generator) Feedback(o Outcome) {
	w := &g.weights[g.last]
	switch {
	case o.Diverged:
		*w *= 2
	case o.Err:
		*w *= 0.85
	case o.Rows > 0:
		*w *= 1.08
	default:
		*w *= 0.97
	}
	if *w < 0.05 {
		*w = 0.05
	}
	if *w > 8 {
		*w = 8
	}
}

// Weights reports the current per-template weights (for logs and E17).
func (g *Generator) Weights() map[string]float64 {
	out := make(map[string]float64, len(g.templates))
	for i, t := range g.templates {
		out[t.name] = g.weights[i]
	}
	return out
}

func (g *Generator) pickTemplate() int {
	total := 0.0
	for _, w := range g.weights {
		total += w
	}
	x := g.rnd.Float64() * total
	for i, w := range g.weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(g.weights) - 1
}

// --- catalog pickers -------------------------------------------------

func (g *Generator) pickTable() *tableInfo { return &g.tables[g.rnd.Intn(len(g.tables))] }

// scalarCols returns the table's directly comparable columns.
func (t *tableInfo) scalarCols() []colInfo {
	var out []colInfo
	for _, c := range t.cols {
		switch c.typ {
		case db.TInt, db.TFloat, db.TString, db.TBool:
			out = append(out, c)
		}
	}
	return out
}

func (t *tableInfo) dnaCols() []colInfo {
	var out []colInfo
	for _, c := range t.cols {
		if c.typ == db.TOpaque && c.udt == "dna" {
			out = append(out, c)
		}
	}
	return out
}

func (g *Generator) tableByName(name string) *tableInfo {
	for i := range g.tables {
		if g.tables[i].name == name {
			return &g.tables[i]
		}
	}
	return nil
}

// pick chooses one element of a non-empty slice.
func pick[T any](g *Generator, xs []T) T { return xs[g.rnd.Intn(len(xs))] }

// --- literal rendering -----------------------------------------------

// litSQL renders a sampled value as a SQL literal.
func litSQL(v any) string {
	switch x := v.(type) {
	case string:
		return "'" + strings.ReplaceAll(x, "'", "''") + "'"
	case float64:
		return fmt.Sprintf("%g", x)
	case bool:
		if x {
			return "TRUE"
		}
		return "FALSE"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// literalFor produces a type-correct literal for a column: a sampled
// value, sometimes perturbed so predicates also miss.
func (g *Generator) literalFor(c colInfo) string {
	if len(c.samples) == 0 {
		switch c.typ {
		case db.TInt:
			return fmt.Sprintf("%d", g.rnd.Intn(100))
		case db.TFloat:
			return fmt.Sprintf("%0.2f", g.rnd.Float64()*10)
		case db.TBool:
			return "TRUE"
		default:
			return "'zz'"
		}
	}
	v := pick(g, c.samples)
	if g.rnd.Intn(4) == 0 { // perturb 25%
		switch x := v.(type) {
		case int64:
			return fmt.Sprintf("%d", x+int64(g.rnd.Intn(5))-2)
		case float64:
			return fmt.Sprintf("%g", x*(0.5+g.rnd.Float64()))
		}
	}
	return litSQL(v)
}

var cmpOps = []string{"=", "<>", "<", "<=", ">", ">="}

// predicate builds one type-correct predicate over the given tables'
// columns. Division is never generated (plan-dependent evaluation order
// would make divide-by-zero a false differential positive).
func (g *Generator) predicate(tables []*tableInfo) string {
	t := pick(g, tables)
	if dna := t.dnaCols(); len(dna) > 0 && g.rnd.Intn(6) == 0 {
		c := pick(g, dna)
		switch g.rnd.Intn(3) {
		case 0:
			return fmt.Sprintf("contains(%s, '%s')", c.ref(), g.pattern(t))
		case 1:
			return fmt.Sprintf("gccontent(%s) > %0.2f", c.ref(), 0.3+g.rnd.Float64()*0.3)
		default:
			return fmt.Sprintf("length(%s) >= %d", c.ref(), 60+g.rnd.Intn(60))
		}
	}
	cols := t.scalarCols()
	if len(cols) == 0 {
		return "1 = 1"
	}
	c := pick(g, cols)
	if g.rnd.Intn(10) == 0 {
		if g.rnd.Intn(2) == 0 {
			return fmt.Sprintf("%s IS NULL", c.ref())
		}
		return fmt.Sprintf("%s IS NOT NULL", c.ref())
	}
	op := pick(g, cmpOps)
	if c.typ == db.TBool {
		op = pick(g, []string{"=", "<>"})
	}
	return fmt.Sprintf("%s %s %s", c.ref(), op, g.literalFor(c))
}

// wherePreds combines 1..n predicates with AND/OR.
func (g *Generator) wherePreds(tables []*tableInfo, n int) string {
	parts := make([]string, 0, n)
	for i := 0; i < n; i++ {
		parts = append(parts, g.predicate(tables))
	}
	out := parts[0]
	for _, p := range parts[1:] {
		if g.rnd.Intn(3) == 0 {
			out = fmt.Sprintf("(%s OR %s)", out, p)
		} else {
			out = fmt.Sprintf("%s AND %s", out, p)
		}
	}
	return out
}

// pattern cuts a contains() pattern from sampled sequence letters
// (hitting real fragments) or fabricates one.
func (g *Generator) pattern(t *tableInfo) string {
	n := 4 + g.rnd.Intn(11) // 4..14: below and above the k=8 index word
	if len(t.letters) > 0 {
		s := pick(g, t.letters)
		if len(s) > n {
			off := g.rnd.Intn(len(s) - n)
			return s[off : off+n]
		}
	}
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteByte("ACGT"[g.rnd.Intn(4)])
	}
	return sb.String()
}

// projection picks 1..3 scalar columns across the given tables;
// star=true may yield "*".
func (g *Generator) projection(tables []*tableInfo, star bool) string {
	if star && g.rnd.Intn(5) == 0 {
		return "*"
	}
	var cols []colInfo
	for _, t := range tables {
		cols = append(cols, t.scalarCols()...)
	}
	if len(cols) == 0 {
		return "*"
	}
	n := 1 + g.rnd.Intn(3)
	seen := map[string]bool{}
	var parts []string
	for i := 0; i < n; i++ {
		c := pick(g, cols)
		if seen[c.ref()] {
			continue
		}
		seen[c.ref()] = true
		parts = append(parts, c.ref())
	}
	return strings.Join(parts, ", ")
}

// --- templates -------------------------------------------------------

func (g *Generator) genPoint() string {
	var cands []colInfo
	for _, t := range g.tables {
		for _, c := range t.cols {
			if c.btree && len(c.samples) > 0 {
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		return ""
	}
	c := pick(g, cands)
	t := g.tableByName(c.table)
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s = %s",
		g.projection([]*tableInfo{t}, true), c.table, c.ref(), g.literalFor(c))
}

func (g *Generator) genFilter() string {
	t := g.pickTable()
	ts := []*tableInfo{t}
	return fmt.Sprintf("SELECT %s FROM %s WHERE %s",
		g.projection(ts, true), t.name, g.wherePreds(ts, 1+g.rnd.Intn(3)))
}

func (g *Generator) genJoin2() string {
	if len(g.pairs) == 0 {
		return ""
	}
	p := pick(g, g.pairs)
	lt, rt := g.tableByName(p.l.table), g.tableByName(p.r.table)
	ts := []*tableInfo{lt, rt}
	sql := fmt.Sprintf("SELECT %s FROM %s JOIN %s ON %s = %s",
		g.projection(ts, true), lt.name, rt.name, p.l.ref(), p.r.ref())
	if g.rnd.Intn(2) == 0 {
		sql += " WHERE " + g.wherePreds(ts, 1+g.rnd.Intn(2))
	}
	return sql
}

func (g *Generator) genJoin3() string {
	// Chain: A join B on p1, join C on p2 where p2 connects C to A or B.
	for attempt := 0; attempt < 8; attempt++ {
		if len(g.pairs) == 0 {
			return ""
		}
		p1 := pick(g, g.pairs)
		p2 := pick(g, g.pairs)
		names := map[string]bool{p1.l.table: true, p1.r.table: true}
		var third string
		switch {
		case !names[p2.l.table] && names[p2.r.table]:
			third = p2.l.table
		case names[p2.l.table] && !names[p2.r.table]:
			third = p2.r.table
		default:
			continue
		}
		ts := []*tableInfo{g.tableByName(p1.l.table), g.tableByName(p1.r.table), g.tableByName(third)}
		sql := fmt.Sprintf("SELECT %s FROM %s JOIN %s ON %s = %s JOIN %s ON %s = %s",
			g.projection(ts, false),
			p1.l.table, p1.r.table, p1.l.ref(), p1.r.ref(),
			third, p2.l.ref(), p2.r.ref())
		if g.rnd.Intn(2) == 0 {
			sql += " WHERE " + g.predicate(ts)
		}
		return sql
	}
	return ""
}

var aggFns = []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

func (g *Generator) genAgg() string {
	t := g.pickTable()
	ts := []*tableInfo{t}
	cols := t.scalarCols()
	if len(cols) == 0 {
		return ""
	}
	key := pick(g, cols)
	var numeric []colInfo
	for _, c := range cols {
		if c.typ == db.TInt || c.typ == db.TFloat {
			numeric = append(numeric, c)
		}
	}
	agg := "COUNT(*)"
	if len(numeric) > 0 && g.rnd.Intn(3) > 0 {
		agg = fmt.Sprintf("%s(%s)", pick(g, aggFns), pick(g, numeric).ref())
	}
	sql := fmt.Sprintf("SELECT %s, %s FROM %s", key.ref(), agg, t.name)
	if g.rnd.Intn(2) == 0 {
		sql += " WHERE " + g.predicate(ts)
	}
	sql += " GROUP BY " + key.ref()
	if g.rnd.Intn(3) == 0 {
		sql += fmt.Sprintf(" HAVING COUNT(*) >= %d", 1+g.rnd.Intn(3))
	}
	return sql
}

func (g *Generator) genDistinct() string {
	t := g.pickTable()
	cols := t.scalarCols()
	if len(cols) == 0 {
		return ""
	}
	proj := pick(g, cols).ref()
	if g.rnd.Intn(2) == 0 && len(cols) > 1 {
		proj += ", " + pick(g, cols).ref()
	}
	sql := fmt.Sprintf("SELECT DISTINCT %s FROM %s", proj, t.name)
	if g.rnd.Intn(2) == 0 {
		sql += " WHERE " + g.predicate([]*tableInfo{t})
	}
	return sql
}

// genOrderLimit orders by every projected column (a total order over
// the output tuple), which is the only shape where LIMIT is
// deterministic across executors: any ties the sort leaves are between
// identical tuples, so every plan's top-N is the same multiset.
func (g *Generator) genOrderLimit() string {
	t := g.pickTable()
	cols := t.scalarCols()
	if len(cols) == 0 {
		return ""
	}
	n := 1 + g.rnd.Intn(min(3, len(cols)))
	seen := map[string]bool{}
	var proj []string
	for len(proj) < n {
		c := pick(g, cols)
		if seen[c.ref()] {
			n--
			continue
		}
		seen[c.ref()] = true
		proj = append(proj, c.ref())
	}
	keys := make([]string, len(proj))
	for i, p := range proj {
		keys[i] = p
		if g.rnd.Intn(3) == 0 {
			keys[i] += " DESC"
		}
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(proj, ", "), t.name)
	if g.rnd.Intn(2) == 0 {
		sql += " WHERE " + g.predicate([]*tableInfo{t})
	}
	sql += " ORDER BY " + strings.Join(keys, ", ")
	if g.rnd.Intn(2) == 0 {
		sql += fmt.Sprintf(" LIMIT %d", 1+g.rnd.Intn(20))
	}
	return sql
}

func (g *Generator) genGenomic() string {
	var cands []*tableInfo
	for i := range g.tables {
		if len(g.tables[i].dnaCols()) > 0 {
			cands = append(cands, &g.tables[i])
		}
	}
	if len(cands) == 0 {
		return ""
	}
	t := pick(g, cands)
	c := pick(g, t.dnaCols())
	sql := fmt.Sprintf("SELECT %s FROM %s WHERE contains(%s, '%s')",
		g.projection([]*tableInfo{t}, false), t.name, c.ref(), g.pattern(t))
	if g.rnd.Intn(3) == 0 {
		sql += " AND " + g.predicate([]*tableInfo{t})
	}
	return sql
}

func (g *Generator) genExprProj() string {
	t := g.pickTable()
	var numeric []colInfo
	for _, c := range t.scalarCols() {
		if c.typ == db.TInt || c.typ == db.TFloat {
			numeric = append(numeric, c)
		}
	}
	var parts []string
	if len(numeric) > 0 {
		a := pick(g, numeric)
		switch g.rnd.Intn(3) {
		case 0:
			parts = append(parts, fmt.Sprintf("%s * 2 + 1 AS e1", a.ref()))
		case 1:
			parts = append(parts, fmt.Sprintf("%s - %s AS e1", a.ref(), pick(g, numeric).ref()))
		default:
			parts = append(parts, fmt.Sprintf("-%s AS e1", a.ref()))
		}
	}
	if dna := t.dnaCols(); len(dna) > 0 && g.rnd.Intn(2) == 0 {
		c := pick(g, dna)
		if g.rnd.Intn(2) == 0 {
			parts = append(parts, fmt.Sprintf("gccontent(%s) AS gc", c.ref()))
		} else {
			parts = append(parts, fmt.Sprintf("length(%s) AS n", c.ref()))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	sql := fmt.Sprintf("SELECT %s FROM %s", strings.Join(parts, ", "), t.name)
	if g.rnd.Intn(2) == 0 {
		sql += " WHERE " + g.predicate([]*tableInfo{t})
	}
	return sql
}
