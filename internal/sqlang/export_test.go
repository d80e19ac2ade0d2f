package sqlang

// MaxTemplateText is the longest statement text the plan cache keeps.
const MaxTemplateText = maxTemplateText

// LiteralSpans returns the byte spans of sql's numbered literals (see
// Lit.param), in the order a plan-cache key lists them. Nil when sql does
// not lex.
func LiteralSpans(sql string) [][2]int {
	toks, err := lex(sql)
	if err != nil {
		return nil
	}
	var spans [][2]int
	for i, t := range toks {
		switch {
		case t.kind == tokString:
			_, _, end, _ := scanToken(sql, t.pos)
			spans = append(spans, [2]int{t.pos, end})
		case t.kind == tokNumber && !(i > 0 && toks[i-1].kind == tokKeyword && toks[i-1].text == "LIMIT"):
			spans = append(spans, [2]int{t.pos, t.pos + len(t.text)})
		}
	}
	return spans
}

// KeyMatchesParse reports whether the plan-cache key of sql reads exactly
// the literals the parser numbers.
func KeyMatchesParse(sql string) bool {
	_, vals, ok := templateKey(sql)
	_, lits, err := parse(sql)
	return ok && err == nil && litsMatch(lits, vals)
}
