package sqlang

import (
	"fmt"
	"strings"

	"genalg/internal/db"
)

// scope maps qualified and unqualified column names to positions in the
// working row. Only planning (predMask, keyDistinct) and the binder
// resolve names; evaluation reads bound positions.
type scope struct {
	// cols[i] is the fully qualified name "table.col"; bare[i] the bare
	// name with the declared type the binder checks.
	cols []string
	bare []scopeCol
}

type scopeCol struct {
	name string
	typ  db.ColType
}

func newScope() *scope { return &scope{} }

func (s *scope) add(table string, schema db.Schema) {
	for _, c := range schema.Columns {
		s.cols = append(s.cols, table+"."+c.Name)
		s.bare = append(s.bare, scopeCol{c.Name, c.Type})
	}
}

// resolve returns the row position of a column reference.
func (s *scope) resolve(ref *ColRef) (int, error) {
	if ref.Table != "" {
		want := ref.Table + "." + ref.Name
		for i, c := range s.cols {
			if strings.EqualFold(c, want) {
				return i, nil
			}
		}
		return -1, fmt.Errorf("sqlang: unknown column %s", want)
	}
	found := -1
	for i, b := range s.bare {
		if strings.EqualFold(b.name, ref.Name) {
			if found >= 0 {
				return -1, fmt.Errorf("sqlang: ambiguous column %q (qualify with table name)", ref.Name)
			}
			found = i
		}
	}
	if found < 0 {
		return -1, fmt.Errorf("sqlang: unknown column %q", ref.Name)
	}
	return found, nil
}

// boundCol is a column reference resolved to its position in the working
// row. It prints as its source reference, so plan text is unchanged.
type boundCol struct {
	src *ColRef
	pos int
}

// String implements Expr.
func (c *boundCol) String() string { return c.src.String() }

// boundFunc is a function call holding its looked-up external function and
// bound arguments.
type boundFunc struct {
	src  *FuncCall
	fn   db.ExternalFunc
	args []Expr
}

// String implements Expr.
func (f *boundFunc) String() string { return f.src.String() }

// unbound stands in for a column or function call that failed to bind.
// Evaluating it returns the binding error, so a statement fails exactly
// when (and only when) a row reaches the reference: a bad name over an
// empty input is not an error.
type unbound struct {
	src Expr
	err error
}

// String implements Expr.
func (u *unbound) String() string { return u.src.String() }

// binder resolves a statement's expressions once, before execution: column
// references become row positions and function calls carry their external
// function. It never writes into the parsed AST (a prepared Stmt is shared
// by every execution); it returns bound copies instead.
//
// Binding runs after planning, so the planner's pointer-identity matching
// (the consumed access-path conjunct, hash-join key pairs) compares source
// nodes and never sees a bound one; nothing after binding compares nodes
// by identity, so no original→bound map is kept.
//
// The binder records every column it resolves: those are exactly the
// columns the statement reads, and selectPlan.narrow decodes only them.
//
// The binder also type-checks comparisons whose operand types are known
// before execution (see checkComparable); err holds the first failure.
type binder struct {
	sc    *scope
	funcs *db.FuncRegistry
	// cols holds every boundCol produced, each exactly once.
	cols []*boundCol
	err  error
}

func newBinder(sc *scope, funcs *db.FuncRegistry) *binder {
	return &binder{sc: sc, funcs: funcs}
}

// bind returns the bound copy of x (nil for nil).
func (b *binder) bind(x Expr) Expr {
	switch p := x.(type) {
	case *ColRef:
		i, err := b.sc.resolve(p)
		if err != nil {
			return &unbound{src: p, err: err}
		}
		c := &boundCol{src: p, pos: i}
		b.cols = append(b.cols, c)
		return c
	case *FuncCall:
		fn, ok := b.funcs.Get(p.Name)
		switch {
		case !ok:
			return &unbound{src: p, err: fmt.Errorf("sqlang: unknown function %q (registered: %s)", p.Name, strings.Join(b.funcs.Names(), ", "))}
		case fn.NArgs > 0 && len(p.Args) != fn.NArgs:
			return &unbound{src: p, err: fmt.Errorf("sqlang: function %s expects %d arguments, got %d", p.Name, fn.NArgs, len(p.Args))}
		}
		return &boundFunc{src: p, fn: fn, args: b.bindAll(p.Args)}
	case *BinOp:
		l, r := b.bind(p.L), b.bind(p.R)
		if isComparison(p.Op) {
			b.checkComparable(l, r)
		}
		return &BinOp{Op: p.Op, L: l, R: r}
	case *UnOp:
		return &UnOp{Op: p.Op, E: b.bind(p.E)}
	case *IsNull:
		return &IsNull{E: b.bind(p.E), Negate: p.Negate}
	case *Aggregate:
		return &Aggregate{Fn: p.Fn, Arg: b.bind(p.Arg)}
	}
	return x // nil and literals carry no names
}

// bindAll binds a list, returning nil for an empty one.
func (b *binder) bindAll(xs []Expr) []Expr {
	if len(xs) == 0 {
		return nil
	}
	out := make([]Expr, len(xs))
	for i, x := range xs {
		out[i] = b.bind(x)
	}
	return out
}

// bindPlan replaces every expression list the executor evaluates — driver,
// pushed, after and residual filters, and hash-join probe and build keys —
// with its bound copy. Planning (and the EXPLAIN text it records) has
// already run on the source expressions.
//
// Hash-join key pairs, the comparisons the planner took apart, are
// type-checked here, so a statement fails or runs alike under every plan
// shape. (An index path never consumes an ill-typed conjunct: see
// eqKeyOf.)
func (b *binder) bindPlan(pl *selectPlan) {
	pl.driverFilters = b.bindAll(pl.driverFilters)
	for i := range pl.joins {
		st := &pl.joins[i]
		st.pushed = b.bindAll(st.pushed)
		st.after = b.bindAll(st.after)
		st.probeKey = b.bindAll(st.probeKey)
		st.buildKey = b.bindAll(st.buildKey)
		for k := range st.probeKey {
			b.checkComparable(st.probeKey[k], st.buildKey[k])
		}
	}
	pl.residual = b.bindAll(pl.residual)
}

func isComparison(op string) bool {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		return true
	}
	return false
}

// checkComparable records an error for a comparison whose operand types
// can never compare, an int column against a string column, say. The
// types come from the schema and from literals, so the statement fails
// before it reads a row, whatever its plan: row by row, a hash join keys
// the two types apart and matches nothing, while a nested loop fails on
// its first pair. The message is compareVals', with the two types in a
// fixed order, since the planner may swap a join key's sides.
func (b *binder) checkComparable(l, r Expr) {
	lt, rt := b.staticType(l), b.staticType(r)
	numeric := func(t string) bool { return t == "int64" || t == "float64" }
	if b.err != nil || lt == "" || rt == "" || lt == rt || numeric(lt) && numeric(rt) {
		return
	}
	if lt > rt {
		lt, rt = rt, lt
	}
	b.err = fmt.Errorf("sqlang: cannot compare %s with %s", lt, rt)
}

// staticType names the Go type a bound scalar operand evaluates to when
// that is known before execution: a literal, or a column of a scalar type.
// It is "" otherwise (NULL, function results, arithmetic, opaque and bytes
// columns, names that failed to bind), and such comparisons are checked
// row by row.
func (b *binder) staticType(x Expr) string {
	switch p := x.(type) {
	case *Lit:
		switch p.Val.(type) {
		case int64:
			return "int64"
		case float64:
			return "float64"
		case string:
			return "string"
		case bool:
			return "bool"
		}
	case *boundCol:
		switch b.sc.bare[p.pos].typ {
		case db.TInt:
			return "int64"
		case db.TFloat:
			return "float64"
		case db.TString:
			return "string"
		case db.TBool:
			return "bool"
		}
	}
	return ""
}

// narrow shrinks the working row to the columns the bound expressions cols
// read. Each table slot gets its column map (schema column → position in
// the slot's segment, -1 when unread) and its segment shrinks to the kept
// columns, in declared order; the bound positions are renumbered to match.
// The boundCols are the binder's fresh copies, so the parsed AST is never
// written. A slot whose columns are all unread contributes zero-width
// rows.
func (pl *selectPlan) narrow(cols []*boundCol) {
	read := make([]bool, pl.width)
	for _, c := range cols {
		read[c.pos] = true
	}
	renum := make([]int, pl.width)
	width := 0
	for si := range pl.tables {
		sl := &pl.tables[si]
		sl.cols = make([]int, sl.width)
		kept := 0
		for i := range sl.cols {
			sl.cols[i] = -1
			if read[sl.offset+i] {
				sl.cols[i] = kept
				renum[sl.offset+i] = width + kept
				kept++
			}
		}
		sl.offset, sl.width = width, kept
		width += kept
	}
	pl.width = width
	for _, c := range cols {
		c.pos = renum[c.pos]
	}
}
