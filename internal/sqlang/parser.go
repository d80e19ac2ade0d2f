package sqlang

import (
	"fmt"
	"strconv"
	"strings"

	"genalg/internal/db"
)

// Parse parses one SQL statement.
func Parse(input string) (Stmt, error) {
	stmt, _, err := parse(input)
	return stmt, err
}

// parse parses one SQL statement and also returns its numbered literals
// (see Lit.param), in source order.
func parse(input string) (Stmt, []*Lit, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, nil, err
	}
	// Allow an optional trailing semicolon.
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, nil, p.errHere("trailing input")
	}
	return stmt, p.lits, nil
}

type parser struct {
	toks []token
	pos  int
	// lits holds the number and string literals parsed so far.
	lits []*Lit
}

// lit builds the next numbered literal.
func (p *parser) lit(v any) *Lit {
	l := &Lit{Val: v, param: len(p.lits) + 1}
	p.lits = append(p.lits, l)
	return l
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) backup()     { p.pos-- }
func (p *parser) errHere(msg string) error {
	return &ParseError{Pos: p.peek().pos, Msg: fmt.Sprintf("%s (near %q)", msg, p.peek().text)}
}

func (p *parser) expectKeyword(kw string) error {
	t := p.next()
	if t.kind != tokKeyword || t.text != kw {
		p.backup()
		return p.errHere("expected " + kw)
	}
	return nil
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	t := p.next()
	if t.kind != tokSymbol || t.text != sym {
		p.backup()
		return p.errHere("expected " + sym)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.acceptKeyword("EXPLAIN"):
		analyze := p.acceptKeyword("ANALYZE")
		s, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		s.Explain = true
		s.Analyze = analyze
		return s, nil
	case p.peek().kind == tokKeyword && p.peek().text == "SELECT":
		return p.parseSelect()
	case p.acceptKeyword("INSERT"):
		return p.parseInsert()
	case p.acceptKeyword("CREATE"):
		return p.parseCreate()
	case p.acceptKeyword("DELETE"):
		return p.parseDelete()
	case p.acceptKeyword("UPDATE"):
		return p.parseUpdate()
	case p.acceptKeyword("ANALYZE"):
		t := p.next()
		if t.kind != tokIdent {
			p.backup()
			return nil, p.errHere("expected table name after ANALYZE")
		}
		return &AnalyzeStmt{Table: t.text}, nil
	}
	return nil, p.errHere("expected SELECT, INSERT, UPDATE, CREATE, DELETE, or EXPLAIN")
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{Limit: -1}
	if p.acceptKeyword("DISTINCT") {
		s.Distinct = true
	}
	for {
		if p.acceptSymbol("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.acceptKeyword("AS") {
				t := p.next()
				if t.kind != tokIdent {
					p.backup()
					return nil, p.errHere("expected alias after AS")
				}
				item.Alias = t.text
			}
			s.Items = append(s.Items, item)
		}
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, tr)
		if !p.acceptSymbol(",") {
			break
		}
	}
	for {
		if p.acceptKeyword("JOIN") {
			// plain JOIN
		} else if p.acceptKeyword("INNER") {
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
		} else {
			break
		}
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Joins = append(s.Joins, JoinClause{Table: tr, On: on})
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("HAVING") {
		if len(s.GroupBy) == 0 {
			return nil, p.errHere("HAVING requires GROUP BY")
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Expr: e}
			if p.acceptKeyword("DESC") {
				key.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			s.OrderBy = append(s.OrderBy, key)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}
	if p.acceptKeyword("LIMIT") {
		t := p.next()
		if t.kind != tokNumber {
			p.backup()
			return nil, p.errHere("expected number after LIMIT")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, p.errHere("invalid LIMIT")
		}
		s.Limit = n
	}
	return s, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t := p.next()
	if t.kind != tokIdent {
		p.backup()
		return TableRef{}, p.errHere("expected table name")
	}
	tr := TableRef{Name: t.text}
	if p.acceptKeyword("AS") {
		a := p.next()
		if a.kind != tokIdent {
			p.backup()
			return TableRef{}, p.errHere("expected alias")
		}
		tr.Alias = a.text
	} else if p.peek().kind == tokIdent {
		tr.Alias = p.next().text
	}
	return tr, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		p.backup()
		return nil, p.errHere("expected table name")
	}
	ins := &InsertStmt{Table: t.text}
	if p.acceptSymbol("(") {
		for {
			c := p.next()
			if c.kind != tokIdent {
				p.backup()
				return nil, p.errHere("expected column name")
			}
			ins.Cols = append(ins.Cols, c.text)
			if p.acceptSymbol(")") {
				break
			}
			if err := p.expectSymbol(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if p.acceptSymbol(")") {
				break
			}
			if err := p.expectSymbol(","); err != nil {
				return nil, err
			}
		}
		ins.Rows = append(ins.Rows, row)
		if !p.acceptSymbol(",") {
			break
		}
	}
	return ins, nil
}

func (p *parser) parseCreate() (Stmt, error) {
	genomic := p.acceptKeyword("GENOMIC")
	if p.acceptKeyword("INDEX") {
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != tokIdent {
			p.backup()
			return nil, p.errHere("expected table name")
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		c := p.next()
		if c.kind != tokIdent {
			p.backup()
			return nil, p.errHere("expected column name")
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st := &CreateIndexStmt{Table: t.text, Col: c.text, Genomic: genomic}
		if p.acceptKeyword("USING") {
			n := p.next()
			if n.kind != tokNumber {
				p.backup()
				return nil, p.errHere("expected word length after USING")
			}
			k, err := strconv.Atoi(n.text)
			if err != nil {
				return nil, p.errHere("invalid word length")
			}
			st.K = k
		}
		return st, nil
	}
	if genomic {
		return nil, p.errHere("GENOMIC must be followed by INDEX")
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		p.backup()
		return nil, p.errHere("expected table name")
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	schema := db.Schema{Table: t.text}
	for {
		cn := p.next()
		if cn.kind != tokIdent {
			p.backup()
			return nil, p.errHere("expected column name")
		}
		ct := p.next()
		if ct.kind != tokIdent && ct.kind != tokKeyword {
			p.backup()
			return nil, p.errHere("expected column type")
		}
		col := db.Column{Name: cn.text}
		switch strings.ToLower(ct.text) {
		case "int", "integer", "bigint":
			col.Type = db.TInt
		case "float", "double", "real":
			col.Type = db.TFloat
		case "string", "text", "varchar":
			col.Type = db.TString
		case "bool", "boolean":
			col.Type = db.TBool
		case "bytes", "blob":
			col.Type = db.TBytes
		default:
			// Any other identifier is an opaque UDT name.
			col.Type = db.TOpaque
			col.UDTName = strings.ToLower(ct.text)
		}
		if p.acceptKeyword("NOT") {
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			col.NotNull = true
		}
		schema.Columns = append(schema.Columns, col)
		if p.acceptSymbol(")") {
			break
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
	}
	return &CreateTableStmt{Schema: schema}, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != tokIdent {
		p.backup()
		return nil, p.errHere("expected table name")
	}
	st := &DeleteStmt{Table: t.text}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	t := p.next()
	if t.kind != tokIdent {
		p.backup()
		return nil, p.errHere("expected table name")
	}
	st := &UpdateStmt{Table: t.text}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	for {
		c := p.next()
		if c.kind != tokIdent {
			p.backup()
			return nil, p.errHere("expected column name")
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Col: c.text, Expr: e})
		if !p.acceptSymbol(",") {
			break
		}
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// Expression grammar (precedence climbing):
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((=|<>|!=|<|<=|>|>=) addExpr | IS [NOT] NULL)?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | funcall | aggregate | colref | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "NOT", E: e}, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	if p.acceptKeyword("IS") {
		neg := p.acceptKeyword("NOT")
		if err := p.expectKeyword("NULL"); err != nil {
			return nil, err
		}
		return &IsNull{E: l, Negate: neg}, nil
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "!=", "<", "<=", ">", ">=":
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			op := t.text
			if op == "!=" {
				op = "<>"
			}
			return &BinOp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinOp{Op: t.text, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", E: e}, nil
	}
	return p.parsePrimary()
}

var aggNames = map[string]bool{"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokNumber:
		v, err := numberValue(t.text)
		if err != nil {
			return nil, &ParseError{Pos: t.pos, Msg: err.Error()}
		}
		return p.lit(v), nil
	case tokString:
		return p.lit(t.text), nil
	case tokKeyword:
		switch t.text {
		case "TRUE":
			return &Lit{Val: true}, nil
		case "FALSE":
			return &Lit{Val: false}, nil
		case "NULL":
			return &Lit{Val: nil}, nil
		}
		if aggNames[t.text] {
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			if t.text == "COUNT" && p.acceptSymbol("*") {
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &Aggregate{Fn: "COUNT"}, nil
			}
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &Aggregate{Fn: t.text, Arg: arg}, nil
		}
		p.backup()
		return nil, p.errHere("unexpected keyword in expression")
	case tokIdent:
		// Function call?
		if p.acceptSymbol("(") {
			fc := &FuncCall{Name: strings.ToLower(t.text)}
			if !p.acceptSymbol(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fc.Args = append(fc.Args, a)
					if p.acceptSymbol(")") {
						break
					}
					if err := p.expectSymbol(","); err != nil {
						return nil, err
					}
				}
			}
			return fc, nil
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			c := p.next()
			if c.kind != tokIdent {
				p.backup()
				return nil, p.errHere("expected column after '.'")
			}
			return &ColRef{Table: t.text, Name: c.text}, nil
		}
		return &ColRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	p.backup()
	return nil, p.errHere("expected expression")
}
