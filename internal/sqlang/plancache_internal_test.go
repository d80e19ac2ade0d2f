package sqlang

import (
	"reflect"
	"testing"
)

func TestTemplateKey(t *testing.T) {
	key := func(sql string) string {
		t.Helper()
		k, _, ok := templateKey(sql)
		if !ok {
			t.Fatalf("templateKey(%q) refused a cacheable SELECT", sql)
		}
		return string(k)
	}
	same := [][2]string{
		{`SELECT a FROM t WHERE id = 'F001'`, `SELECT a FROM t WHERE id = 'it''s'`},
		{`SELECT a FROM t WHERE x = 1`, `SELECT a FROM t WHERE x = 9223372036854775807`},
		{`SELECT a FROM t WHERE x = 2.0`, `SELECT a FROM t WHERE x = 2.5e-3`},
		{`SELECT a FROM t WHERE x = "q"`, `SELECT a FROM t WHERE x = 'r'`},
		{`select a from t where f(x, 'ACGT') -- c`, `select a from t where f(x, 'A') -- c`},
	}
	for _, c := range same {
		if a, b := key(c[0]), key(c[1]); a != b {
			t.Errorf("keys differ:\n  %s -> %q\n  %s -> %q", c[0], a, c[1], b)
		}
	}
	differ := [][2]string{
		{`SELECT a FROM t WHERE x = 1`, `SELECT a FROM t WHERE x = 1.0`},
		{`SELECT a FROM t WHERE x = 1`, `SELECT a FROM t WHERE x = '1'`},
		{`SELECT a FROM t LIMIT 1`, `SELECT a FROM t LIMIT 2`},
		{`SELECT a FROM t WHERE x = TRUE`, `SELECT a FROM t WHERE x = FALSE`},
		{`SELECT a FROM t WHERE x = NULL`, `SELECT a FROM t WHERE x = 1`},
		{`SELECT a FROM t WHERE x = -1`, `SELECT a FROM t WHERE x = 1`},
		{`SELECT a1 FROM t`, `SELECT a2 FROM t`},
		{`SELECT a FROM t -- 1`, `SELECT a FROM t -- 2`},
	}
	for _, c := range differ {
		if a, b := key(c[0]), key(c[1]); a == b {
			t.Errorf("%s and %s share key %q", c[0], c[1], a)
		}
	}
	if _, vals, _ := templateKey(`SELECT a FROM t WHERE x = 'it''s' AND y > 2.5 AND z < 3 LIMIT 4`); !reflect.DeepEqual(vals, []any{"it's", 2.5, int64(3)}) {
		t.Errorf("vals = %#v", vals)
	}
	for _, sql := range []string{
		`EXPLAIN SELECT a FROM t`,
		`INSERT INTO t VALUES (1)`,
		`SELECT a FROM t WHERE x = 9223372036854775808`,
		`SELECT a FROM t WHERE x = 1e999`,
		`SELECT a FROM t WHERE x = 'open`,
		`SELECT a FROM t WHERE x = ?s`,
		`SELECT a FROM t WHERE x ! 1`,
		``,
	} {
		if k, _, ok := templateKey(sql); ok {
			t.Errorf("templateKey(%q) = %q, want refusal", sql, k)
		}
	}
}
