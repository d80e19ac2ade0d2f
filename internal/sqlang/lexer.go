// Package sqlang implements the extended SQL dialect of the Unifying
// Database (paper Section 6.3): SELECT/INSERT/CREATE TABLE with user-defined
// operators of the Genomics Algebra callable anywhere expressions occur —
// the SELECT list, WHERE, GROUP BY, and ORDER BY. The planner picks index
// access paths (B-tree for scalar equality/range, the k-mer genomic index
// for contains-style predicates) and orders conjunctive predicates by
// estimated selectivity and cost (paper Section 6.5).
package sqlang

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type tokKind uint8

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokSymbol  // punctuation and operators
	tokKeyword // recognized SQL keyword (uppercased)
)

type token struct {
	kind tokKind
	text string // keywords uppercased; identifiers as written
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "GROUP": true, "BY": true,
	"ORDER": true, "LIMIT": true, "ASC": true, "DESC": true, "AND": true,
	"OR": true, "NOT": true, "AS": true, "INSERT": true, "INTO": true,
	"VALUES": true, "CREATE": true, "TABLE": true, "INDEX": true, "ON": true,
	"JOIN": true, "INNER": true, "TRUE": true, "FALSE": true, "NULL": true,
	"IS": true, "COUNT": true, "SUM": true, "AVG": true, "MIN": true,
	"MAX": true, "DISTINCT": true, "GENOMIC": true, "USING": true,
	"EXPLAIN": true, "DELETE": true, "UPDATE": true, "SET": true,
	"ANALYZE": true, "HAVING": true,
}

// ParseError reports a syntax error with its byte offset.
type ParseError struct {
	Pos int
	Msg string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("sqlang: parse error at offset %d: %s", e.Pos, e.Msg)
}

func lex(input string) ([]token, error) {
	var toks []token
	for i := 0; ; {
		kind, start, end, err := scanToken(input, i)
		if err != nil {
			return nil, err
		}
		text := input[start:end]
		switch kind {
		case tokString:
			// A copy: a value stored from the statement (an index key, say)
			// must not pin the whole statement text.
			text = strings.Clone(stringValue(text))
		case tokIdent:
			if upper := strings.ToUpper(text); keywords[upper] {
				kind, text = tokKeyword, upper
			}
		}
		toks = append(toks, token{kind: kind, text: text, pos: start})
		if kind == tokEOF {
			return toks, nil
		}
		i = end
	}
}

// scanToken skips the whitespace and line comments at input[i:] and
// returns the span of the token that follows them and its kind: tokEOF
// (an empty span) at the end of the input, and tokIdent for keywords too.
// It is the one tokenizer of the dialect; lex and the plan cache's key
// (templateKey) both read statements through it.
func scanToken(input string, i int) (kind tokKind, start, end int, err error) {
	for i < len(input) {
		if unicode.IsSpace(rune(input[i])) {
			i++
			continue
		}
		if input[i] == '-' && i+1 < len(input) && input[i+1] == '-' {
			// Line comment.
			for i < len(input) && input[i] != '\n' {
				i++
			}
			continue
		}
		break
	}
	start = i
	if i == len(input) {
		return tokEOF, i, i, nil
	}
	ch := input[i]
	switch {
	case ch == '\'' || ch == '"':
		// A doubled quote is an escape.
		for i++; i < len(input); i++ {
			if input[i] != ch {
				continue
			}
			if i+1 < len(input) && input[i+1] == ch {
				i++
				continue
			}
			return tokString, start, i + 1, nil
		}
		return 0, 0, 0, &ParseError{Pos: start, Msg: "unterminated string literal"}
	case ch >= '0' && ch <= '9' || ch == '.' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9':
		seenDot, seenExp := false, false
		for i < len(input) {
			c := input[i]
			if c >= '0' && c <= '9' {
				i++
				continue
			}
			if c == '.' && !seenDot {
				seenDot = true
				i++
				continue
			}
			// Exponent suffix (1e6, 2.5E-3): only when digits follow,
			// so `1e` still lexes as number + identifier.
			if (c == 'e' || c == 'E') && !seenExp {
				j := i + 1
				if j < len(input) && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < len(input) && input[j] >= '0' && input[j] <= '9' {
					seenExp = true
					i = j
					continue
				}
			}
			break
		}
		return tokNumber, start, i, nil
	case isIdentStart(ch):
		for i < len(input) && isIdentChar(input[i]) {
			i++
		}
		return tokIdent, start, i, nil
	}
	// Multi-char operators first.
	if i+1 < len(input) {
		switch input[i : i+2] {
		case "<=", ">=", "<>", "!=":
			return tokSymbol, start, i + 2, nil
		}
	}
	switch ch {
	case '(', ')', ',', '*', '+', '-', '/', '=', '<', '>', '.', ';':
		return tokSymbol, start, i + 1, nil
	}
	return 0, 0, 0, &ParseError{Pos: i, Msg: fmt.Sprintf("unexpected character %q", ch)}
}

// numberValue returns the value of a number literal's source text: a
// float64 when it has a point or an exponent, an int64 otherwise.
func numberValue(text string) (any, error) {
	if strings.ContainsAny(text, ".eE") {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, errors.New("invalid float literal")
		}
		return f, nil
	}
	n, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		return nil, errors.New("invalid integer literal")
	}
	return n, nil
}

// stringValue returns the value of a quoted literal's source text.
func stringValue(quoted string) string {
	q := quoted[:1]
	s := quoted[1 : len(quoted)-1]
	if !strings.Contains(s, q+q) {
		return s
	}
	return strings.ReplaceAll(s, q+q, q)
}

func isIdentStart(ch byte) bool {
	return ch == '_' || ch >= 'a' && ch <= 'z' || ch >= 'A' && ch <= 'Z'
}

func isIdentChar(ch byte) bool {
	return isIdentStart(ch) || ch >= '0' && ch <= '9'
}
