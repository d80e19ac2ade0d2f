package sqlang

import (
	"container/list"
	"context"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genalg/internal/db"
	"genalg/internal/trace"
)

// planCacheSize is the number of SELECT templates an engine keeps planned;
// the least recently used one is evicted past it.
const planCacheSize = 256

// The plan cache lets a SELECT that differs from an earlier one only in
// its literal values skip parsing, planning and binding.
//
// Its key is the statement text with every expression literal (number or
// string) replaced by a marker naming the literal's kind, built in one
// pass over the lexer's token scanner (templateKey). TRUE, FALSE, NULL and
// LIMIT's count stay in the key as written. A template is the parsed,
// planned, bound and narrowed statement whose literals are numbered
// (Lit.param). An execution supplies the values in key order, and redoes
// only what depends on them: the index-key conversion of each equality
// literal (eqKey), the driver's index lookup, and the access estimate.
// Expressions that evaluate a literal get per-execution copies
// (withLits), and the plan text reads the values when it is rendered.
//
// A template is reused only while every planner input it read is
// unchanged: the table each name resolved to and its change counter,
// the engine's ANALYZE version, the function registry's version and the
// worker bound. A warm plan is therefore the plan a cold planning would
// make. Where a literal's value alone changes the plan's shape (an
// equality literal that stops or starts converting to a key, a genomic
// pattern shorter than the index word) the execution is planned cold. Not
// cached at all: EXPLAIN, statements other than SELECT, plans that fell
// back from a too-short pattern, multi-table plans whose join order was
// costed from a lookup's row count, and statements longer than
// maxTemplateText. Any write to a table a template read makes it stale,
// so the cache serves repeated SELECT shapes on tables that are not
// written between executions; planCache.lookup keeps a table written
// between every read from paying for templates no read reuses.
//
// ExecStmtSQLCtx never consults the cache; it is the cold reference path.

// Literal kinds in a template key.
const (
	litInt    = 'i'
	litFloat  = 'f'
	litString = 's'
)

// maxTemplateText bounds the statement text the cache keeps a template
// for; a longer SELECT is planned afresh each time, so no client can pin
// large keys or parse trees in the cache.
const maxTemplateText = 4 << 10

// templateKey reads a SELECT through the lexer's scanToken and returns its
// cache key and its literal values in source order. ok is false for
// anything but a SELECT, for text longer than maxTemplateText, and for
// text the lexer or the parser would reject at the token level (an
// unknown character, an unterminated string, an out-of-range number);
// such statements take the uncached path. The marker "?" cannot occur
// outside a comment or string in a statement that lexes, so two texts
// share a key exactly when they tokenize alike apart from literal values
// of the same kinds.
func templateKey(sql string) (key []byte, vals []any, ok bool) {
	if len(sql) > maxTemplateText {
		return nil, nil, false
	}
	kb := make([]byte, 0, len(sql))
	prev := ""
	for i := 0; ; {
		kind, start, end, err := scanToken(sql, i)
		if err != nil {
			return nil, nil, false
		}
		// Whitespace and comments stay in the key as written.
		kb = append(kb, sql[i:start]...)
		text := sql[start:end]
		switch {
		case kind == tokEOF:
			return kb, vals, prev != ""
		case prev == "":
			// The first token must be the SELECT keyword.
			if kind != tokIdent || !strings.EqualFold(text, "SELECT") {
				return nil, nil, false
			}
			kb = append(kb, text...)
		case kind == tokString:
			vals = append(vals, stringValue(text))
			kb = append(kb, '?', litString)
		case kind == tokNumber && !strings.EqualFold(prev, "LIMIT"):
			v, err := numberValue(text)
			if err != nil {
				return nil, nil, false
			}
			vals = append(vals, v)
			if _, isInt := v.(int64); isInt {
				kb = append(kb, '?', litInt)
			} else {
				kb = append(kb, '?', litFloat)
			}
		default:
			kb = append(kb, text...)
		}
		prev, i = text, end
	}
}

// litsMatch reports whether the parser's numbered literals are exactly
// the ones templateKey read, so a template's Lit.param indexes the values
// of later executions.
func litsMatch(lits []*Lit, vals []any) bool {
	if len(lits) != len(vals) {
		return false
	}
	for i, l := range lits {
		if l.Val != vals[i] {
			return false
		}
	}
	return true
}

// litValue returns l's value in an execution with literal values vals
// (nil: the parsed ones).
func litValue(l *Lit, vals []any) any {
	if vals != nil && l.param > 0 {
		return vals[l.param-1]
	}
	return l.Val
}

// withLits returns x with each numbered literal replaced by its value in
// vals, copying only the nodes above a replaced literal; x itself when
// vals is nil or x holds no numbered literal.
func withLits(x Expr, vals []any) Expr {
	if vals == nil {
		return x
	}
	switch p := x.(type) {
	case *Lit:
		if p.param > 0 {
			return &Lit{Val: litValue(p, vals), param: p.param}
		}
	case *BinOp:
		l, r := withLits(p.L, vals), withLits(p.R, vals)
		if l != p.L || r != p.R {
			return &BinOp{Op: p.Op, L: l, R: r}
		}
	case *UnOp:
		if in := withLits(p.E, vals); in != p.E {
			return &UnOp{Op: p.Op, E: in}
		}
	case *IsNull:
		if in := withLits(p.E, vals); in != p.E {
			return &IsNull{E: in, Negate: p.Negate}
		}
	case *Aggregate:
		if p.Arg != nil {
			if in := withLits(p.Arg, vals); in != p.Arg {
				return &Aggregate{Fn: p.Fn, Arg: in}
			}
		}
	case *FuncCall:
		if args, changed := withLitsAll(p.Args, vals); changed {
			return &FuncCall{Name: p.Name, Args: args}
		}
	case *boundFunc:
		if args, changed := withLitsAll(p.args, vals); changed {
			return &boundFunc{src: withLits(p.src, vals).(*FuncCall), fn: p.fn, args: args}
		}
	case *unbound:
		if src := withLits(p.src, vals); src != p.src {
			return &unbound{src: src, err: p.err}
		}
	}
	return x
}

// withLitsAll applies withLits to a list, copying it only when an element
// changed.
func withLitsAll(xs []Expr, vals []any) (out []Expr, changed bool) {
	out = xs
	for i, x := range xs {
		if y := withLits(x, vals); y != x {
			if !changed {
				out, changed = slices.Clone(xs), true
			}
			out[i] = y
		}
	}
	return out, changed
}

// selectTemplate is one cached SELECT: its bound plan, which no execution
// runs or writes (each runs a fork), and what the plan read. A template
// with a nil plan is a churn marker (see planCache.lookup).
type selectTemplate struct {
	key string
	bs  *boundSelect
	// evalLits is set when some evaluated expression or output name holds
	// a numbered literal, so executions copy them with their values.
	evalLits bool
	// used is set by the template's first hit.
	used atomic.Bool

	deps     []tableDep
	statsVer uint64
	funcsVer uint64
	workers  int
}

// tableDep is one table a template planned against, with its change
// counter at planning time.
type tableDep struct {
	name    string
	tbl     *db.Table
	changes uint64
}

// planInputs reads the versions a plan of s depends on. It runs before
// planning, so a change racing the planner leaves the template stale.
func (e *Engine) planInputs(s *SelectStmt) *selectTemplate {
	t := &selectTemplate{
		statsVer: e.stats.ver.Load(),
		funcsVer: e.DB.Funcs.Version(),
		workers:  e.workerBound(),
	}
	add := func(name string) {
		tbl, ok := e.DB.Table(name)
		if ok {
			t.deps = append(t.deps, tableDep{name: name, tbl: tbl, changes: tbl.Changes()})
		}
	}
	for _, tr := range s.From {
		add(tr.Name)
	}
	for _, j := range s.Joins {
		add(j.Table.Name)
	}
	return t
}

// current reports whether every input the template read is unchanged.
func (t *selectTemplate) current(e *Engine) bool {
	if e.stats.ver.Load() != t.statsVer || e.DB.Funcs.Version() != t.funcsVer || e.workerBound() != t.workers {
		return false
	}
	for _, d := range t.deps {
		tbl, ok := e.DB.Table(d.name)
		if !ok || tbl != d.tbl || tbl.Changes() != d.changes {
			return false
		}
	}
	return true
}

// execCaching plans, binds and runs a cacheable SELECT, entering its
// template into the cache when its shape does not depend on the literal
// values.
func (e *Engine) execCaching(qctx context.Context, key []byte, s *SelectStmt) (*Result, error) {
	start := time.Now()
	t := e.planInputs(s)
	pl, err := e.planSelect(qctx, s, trace.FromContext(qctx) != nil)
	if err != nil {
		return nil, err
	}
	bs, err := e.bindSelect(pl)
	if err != nil {
		return nil, err
	}
	if t.adopt(key, bs) {
		e.plans.put(e, t)
		// The template stays pristine; this execution runs a fork of it,
		// with the lookup the planner already made.
		bs = bs.fork()
	}
	return e.runSelect(qctx, bs, start)
}

// adopt makes bs the template's plan, reporting whether it may be cached.
func (t *selectTemplate) adopt(key []byte, bs *boundSelect) bool {
	pl := bs.pl
	if pl.fellBack || pl.estFromLookup && len(pl.tables) > 1 || len(t.deps) != len(pl.tables) {
		return false
	}
	for i, sl := range pl.tables {
		if t.deps[i].tbl != sl.tbl {
			return false
		}
	}
	t.key, t.bs = string(key), bs
	t.evalLits = bs.holdsLits()
	return true
}

// holdsLits reports whether any expression the executor evaluates, or any
// output name, holds a numbered literal.
func (bs *boundSelect) holdsLits() bool {
	pl := bs.pl
	lists := [][]Expr{pl.driverFilters, pl.residual, bs.groupBy, {bs.having}, bs.orderKeys}
	for _, st := range pl.joins {
		lists = append(lists, st.pushed, st.after, st.probeKey, st.buildKey)
	}
	for _, it := range bs.items {
		lists = append(lists, []Expr{it.Expr})
	}
	for _, k := range bs.stmt.OrderBy {
		lists = append(lists, []Expr{k.Expr})
	}
	for _, xs := range lists {
		if slices.ContainsFunc(xs, holdsLit) {
			return true
		}
	}
	return false
}

// holdsLit reports whether x holds a numbered literal.
func holdsLit(x Expr) bool {
	switch p := x.(type) {
	case *Lit:
		return p.param > 0
	case *BinOp:
		return holdsLit(p.L) || holdsLit(p.R)
	case *UnOp:
		return holdsLit(p.E)
	case *IsNull:
		return holdsLit(p.E)
	case *Aggregate:
		return holdsLit(p.Arg)
	case *FuncCall:
		return slices.ContainsFunc(p.Args, holdsLit)
	case *boundFunc:
		return holdsLit(p.src)
	case *unbound:
		return holdsLit(p.src)
	}
	return false
}

// execTemplate runs a cached template with this execution's literal
// values, planning cold when the values change the plan's shape.
func (e *Engine) execTemplate(qctx context.Context, t *selectTemplate, sql string, vals []any) (*Result, error) {
	start := time.Now()
	bs, ok, err := e.instantiate(qctx, t, vals)
	if err != nil {
		return nil, err
	}
	if !ok {
		e.registry().Counter("sqlang.plan_cache.misses").Inc()
		stmt, err := Parse(sql)
		if err != nil {
			return nil, err
		}
		return e.execStmt(qctx, stmt)
	}
	e.registry().Counter("sqlang.plan_cache.hits").Inc()
	return e.runSelect(qctx, bs, start)
}

// instantiate forks the template for one execution with the given
// literal values: it redoes the key conversions and the driver's lookup,
// re-estimates the access, and copies the evaluated expressions that read
// a literal. ok is false when the values would change the plan's shape.
func (e *Engine) instantiate(qctx context.Context, t *selectTemplate, vals []any) (*boundSelect, bool, error) {
	tpl := t.bs.pl
	for _, kc := range tpl.keyChecks {
		if _, ok := eqKey(kc.typ, vals[kc.param-1]); ok != kc.ok {
			return nil, false, nil
		}
	}
	driver := tpl.tables[tpl.driver]
	path, ok, err := e.materializeAccess(qctx, driver, tpl.chosen, vals)
	if err != nil || !ok {
		return nil, false, err
	}
	bs := t.bs.fork()
	pl, pi := bs.pl, bs.pl.pi
	pl.access = path
	pi.vals = vals
	pi.timed = trace.FromContext(qctx) != nil
	pi.estAccess, _ = e.accessEstimate(path, driver.tbl, driver.ref.Name)
	if len(pl.tables) == 1 {
		// A single-table plan has no joins: its filter estimate is the
		// access estimate scaled as planSelect scaled it. (A multi-table
		// plan is cached only when its access estimate does not come
		// from the lookup, so its estimates stand.)
		est := float64(pi.estAccess)
		for _, s := range pl.filterSels {
			est *= s
		}
		pi.estFilter = int(est + 0.5)
	}
	if t.evalLits {
		bs.withLits(vals)
	}
	return bs, true, nil
}

// fork copies what one execution writes or replaces: the boundSelect, its
// plan and its plan record. Everything else is shared read-only.
func (bs *boundSelect) fork() *boundSelect {
	c := *bs
	pl := *bs.pl
	pi := *bs.pl.pi
	pl.pi = &pi
	c.pl = &pl
	c.cols = slices.Clone(bs.cols)
	return &c
}

// withLits gives a fork this execution's literal values in every
// evaluated expression and output name that reads one.
func (bs *boundSelect) withLits(vals []any) {
	pl := bs.pl
	pl.driverFilters, _ = withLitsAll(pl.driverFilters, vals)
	pl.residual, _ = withLitsAll(pl.residual, vals)
	pl.joins = slices.Clone(pl.joins)
	for i := range pl.joins {
		st := &pl.joins[i]
		st.pushed, _ = withLitsAll(st.pushed, vals)
		st.after, _ = withLitsAll(st.after, vals)
		st.probeKey, _ = withLitsAll(st.probeKey, vals)
		st.buildKey, _ = withLitsAll(st.buildKey, vals)
	}
	bs.groupBy, _ = withLitsAll(bs.groupBy, vals)
	bs.having = withLits(bs.having, vals)
	bs.orderKeys, _ = withLitsAll(bs.orderKeys, vals)
	items := slices.Clone(bs.items)
	for i := range items {
		x := withLits(items[i].Expr, vals)
		if x == items[i].Expr {
			continue
		}
		items[i].Expr = x
		if items[i].Alias == "" {
			// Bound expressions print as their source, so this is the
			// name expandItems gives the cold statement.
			bs.cols[i] = x.String()
		}
	}
	bs.items = items
	// orderRows matches ORDER BY keys to output columns by their text.
	order := slices.Clone(bs.stmt.OrderBy)
	for i := range order {
		order[i].Expr = withLits(order[i].Expr, vals)
	}
	s := *bs.stmt
	s.OrderBy = order
	bs.stmt = &s
}

// planCache is an engine's fixed-capacity LRU of SELECT templates. Its
// lock covers only the map, the list and the entries' values: planning
// and execution run outside it.
//
// A template that goes stale before its first hit (its table was written
// between the read that planned it and the next read of its key) leaves
// a churn marker in its place: a template without a plan, holding its
// inputs' versions as of that read. While they keep moving between reads
// of the key, those reads are planned cold and nothing is cached, so a
// table written between every read does not pay for templates no read
// reuses. A read that finds the marker current plans into a new template.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // key → element holding *selectTemplate
	lru     list.List                // front is most recently used
}

// lookup returns the current template for key, or nil and whether this
// execution should plan its statement into a new template. Dropping a
// stale template counts an invalidation, and a nil return a miss.
func (c *planCache) lookup(e *Engine, key []byte) (t *selectTemplate, cache bool) {
	c.mu.Lock()
	el := c.entries[string(key)]
	if el != nil {
		c.lru.MoveToFront(el)
		t = el.Value.(*selectTemplate)
	}
	c.mu.Unlock()
	if t != nil && t.bs != nil && t.current(e) {
		if !t.used.Load() {
			t.used.Store(true)
		}
		return t, false
	}
	reg := e.registry()
	reg.Counter("sqlang.plan_cache.misses").Inc()
	if t == nil || t.bs == nil && t.current(e) {
		// No entry, or a marker whose key's tables stopped changing.
		return nil, true
	}
	var marker *selectTemplate
	if t.bs != nil {
		reg.Counter("sqlang.plan_cache.invalidations").Inc()
	}
	if t.bs == nil || !t.used.Load() {
		marker = t.marker(e)
	}
	c.mu.Lock()
	if c.entries[t.key] == el {
		if marker != nil {
			el.Value = marker
		} else {
			delete(c.entries, t.key)
			c.lru.Remove(el)
		}
	}
	c.mu.Unlock()
	return nil, marker == nil
}

// marker returns a churn marker for t's key holding its inputs' current
// versions; nil when a table t read is gone or was replaced.
func (t *selectTemplate) marker(e *Engine) *selectTemplate {
	m := &selectTemplate{
		key:      t.key,
		deps:     make([]tableDep, len(t.deps)),
		statsVer: e.stats.ver.Load(),
		funcsVer: e.DB.Funcs.Version(),
		workers:  e.workerBound(),
	}
	for i, d := range t.deps {
		tbl, ok := e.DB.Table(d.name)
		if !ok || tbl != d.tbl {
			return nil
		}
		m.deps[i] = tableDep{name: d.name, tbl: tbl, changes: tbl.Changes()}
	}
	return m
}

// put enters a template, replacing any under the same key and evicting
// the least recently used one past planCacheSize.
func (c *planCache) put(e *Engine, t *selectTemplate) {
	evicted := false
	c.mu.Lock()
	if c.entries == nil {
		c.entries = make(map[string]*list.Element)
	}
	if el := c.entries[t.key]; el != nil {
		el.Value = t
		c.lru.MoveToFront(el)
	} else {
		c.entries[t.key] = c.lru.PushFront(t)
		if c.lru.Len() > planCacheSize {
			last := c.lru.Back()
			c.lru.Remove(last)
			delete(c.entries, last.Value.(*selectTemplate).key)
			evicted = true
		}
	}
	c.mu.Unlock()
	if evicted {
		e.registry().Counter("sqlang.plan_cache.evictions").Inc()
	}
}
