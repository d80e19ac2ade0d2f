package sqlang

import (
	"fmt"
	"strings"

	"genalg/internal/db"
)

// Expr is a parsed expression.
type Expr interface {
	String() string
}

// ColRef references a column, optionally table-qualified.
type ColRef struct {
	Table string // empty when unqualified
	Name  string
}

// String implements Expr.
func (c *ColRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Lit is a literal constant: int64, float64, string, bool, or nil (NULL).
type Lit struct {
	Val any
	// param numbers the parser's number and string literals from 1 in
	// source order; it is 0 for TRUE, FALSE and NULL and for literals the
	// engine builds. A cached plan reads each execution's value of a
	// numbered literal from that position (see plancache.go).
	param int
}

// String implements Expr.
func (l *Lit) String() string {
	switch v := l.Val.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	default:
		return fmt.Sprintf("%v", v)
	}
}

// BinOp is a binary operation: comparisons, arithmetic, AND/OR.
type BinOp struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "AND", "OR"
	L, R Expr
}

// String implements Expr.
func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

// UnOp is a unary operation: NOT, unary minus.
type UnOp struct {
	Op string // "NOT", "-"
	E  Expr
}

// String implements Expr.
func (u *UnOp) String() string { return fmt.Sprintf("(%s %s)", u.Op, u.E) }

// IsNull tests nullness: expr IS [NOT] NULL.
type IsNull struct {
	E      Expr
	Negate bool
}

// String implements Expr.
func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.E)
	}
	return fmt.Sprintf("(%s IS NULL)", n.E)
}

// FuncCall invokes an external (algebra) function.
type FuncCall struct {
	Name string
	Args []Expr
}

// String implements Expr.
func (f *FuncCall) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", f.Name, strings.Join(parts, ", "))
}

// Aggregate is COUNT/SUM/AVG/MIN/MAX. Arg is nil for COUNT(*).
type Aggregate struct {
	Fn  string // upper-case
	Arg Expr
}

// String implements Expr.
func (a *Aggregate) String() string {
	if a.Arg == nil {
		return a.Fn + "(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Fn, a.Arg)
}

// SelectItem is one output column with its optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool // SELECT *
}

// String renders the item back to SQL.
func (it SelectItem) String() string {
	if it.Star {
		return "*"
	}
	if it.Alias != "" {
		return fmt.Sprintf("%s AS %s", it.Expr, it.Alias)
	}
	return it.Expr.String()
}

// TableRef names a FROM table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// EffectiveName returns the name the table binds in scope.
func (t TableRef) EffectiveName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// String renders the reference back to SQL.
func (t TableRef) String() string {
	if t.Alias != "" {
		return t.Name + " AS " + t.Alias
	}
	return t.Name
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderKey
	Limit    int // -1 = no limit
	Explain  bool
	// Analyze (EXPLAIN ANALYZE) executes the query and reports the plan
	// with actual row counts and per-operator wall time.
	Analyze bool
}

// JoinClause is an explicit JOIN ... ON.
type JoinClause struct {
	Table TableRef
	On    Expr
}

// InsertStmt is a parsed INSERT INTO ... VALUES.
type InsertStmt struct {
	Table string
	Cols  []string // empty = schema order
	Rows  [][]Expr
}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Schema db.Schema
}

// CreateIndexStmt is CREATE [GENOMIC] INDEX ON table (col) [USING k].
type CreateIndexStmt struct {
	Table   string
	Col     string
	Genomic bool
	K       int // genomic word length; 0 = default
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// AnalyzeStmt is ANALYZE table: it gathers per-column statistics used by
// the planner's selectivity estimates (paper Section 6.5).
type AnalyzeStmt struct {
	Table string
}

// UpdateStmt is UPDATE table SET col = expr [, ...] [WHERE ...].
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one col = expr assignment.
type SetClause struct {
	Col  string
	Expr Expr
}

// String renders the statement back to parseable SQL. Round-tripping is
// exact up to whitespace and redundant parentheses: Parse(s.String())
// yields a statement that plans and executes identically to s. The
// regression harness's shrinker relies on this to re-emit minimized
// statements as corpus entries.
func (s *SelectStmt) String() string {
	var sb strings.Builder
	if s.Explain {
		sb.WriteString("EXPLAIN ")
		if s.Analyze {
			sb.WriteString("ANALYZE ")
		}
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	sb.WriteString(" FROM ")
	for i, tr := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(tr.String())
	}
	for _, j := range s.Joins {
		fmt.Fprintf(&sb, " JOIN %s ON %s", j.Table, j.On)
	}
	if s.Where != nil {
		fmt.Fprintf(&sb, " WHERE %s", s.Where)
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if s.Having != nil {
		fmt.Fprintf(&sb, " HAVING %s", s.Having)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, k := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.Expr.String())
			if k.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&sb, " LIMIT %d", s.Limit)
	}
	return sb.String()
}

// String renders the statement back to parseable SQL.
func (s *InsertStmt) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "INSERT INTO %s", s.Table)
	if len(s.Cols) > 0 {
		fmt.Fprintf(&sb, " (%s)", strings.Join(s.Cols, ", "))
	}
	sb.WriteString(" VALUES ")
	for i, row := range s.Rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteByte('(')
		for j, ex := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ex.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// String renders the statement back to parseable SQL.
func (s *DeleteStmt) String() string {
	if s.Where != nil {
		return fmt.Sprintf("DELETE FROM %s WHERE %s", s.Table, s.Where)
	}
	return "DELETE FROM " + s.Table
}

// String renders the statement back to parseable SQL.
func (s *UpdateStmt) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "UPDATE %s SET ", s.Table)
	for i, set := range s.Sets {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s = %s", set.Col, set.Expr)
	}
	if s.Where != nil {
		fmt.Fprintf(&sb, " WHERE %s", s.Where)
	}
	return sb.String()
}

// String renders the statement back to parseable SQL.
func (s *CreateTableStmt) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE TABLE %s (", s.Schema.Table)
	for i, c := range s.Schema.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		typ := c.Type.String()
		if c.Type == db.TOpaque {
			typ = c.UDTName
		}
		fmt.Fprintf(&sb, "%s %s", c.Name, typ)
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteByte(')')
	return sb.String()
}

// String renders the statement back to parseable SQL.
func (s *CreateIndexStmt) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE ")
	if s.Genomic {
		sb.WriteString("GENOMIC ")
	}
	fmt.Fprintf(&sb, "INDEX ON %s (%s)", s.Table, s.Col)
	if s.K > 0 {
		fmt.Fprintf(&sb, " USING %d", s.K)
	}
	return sb.String()
}

// String renders the statement back to parseable SQL.
func (s *AnalyzeStmt) String() string { return "ANALYZE " + s.Table }

// Stmt is any parsed statement.
type Stmt interface{ stmt() }

func (*SelectStmt) stmt()      {}
func (*InsertStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*AnalyzeStmt) stmt()     {}
