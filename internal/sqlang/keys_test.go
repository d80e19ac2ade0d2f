package sqlang

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"genalg/internal/db"
)

// keyValues are the scalars FuzzJoinKeyEquality seeds its corpus with:
// NULL, integers at the edges of the exact-float window and of int64,
// floats with signed zeros, infinities and NaN, strings that start with
// the encoding's own tag letters or hold NUL bytes, and both booleans.
var keyValues = []any{
	nil,
	int64(0), int64(1), int64(-1), int64(1 << 53), int64(-1 << 53), int64(1<<53 + 1),
	int64(math.MinInt64), int64(math.MaxInt64),
	0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0.5, 1.0,
	float64(1 << 53), float64(1<<53 + 2),
	"", "\x00", "a\x00b", "i", "f\x00\x00", "s\x01s", "n", "T",
	true, false,
}

// keyArgs spreads one value over the fuzz arguments: a kind selector and
// one slot per scalar type.
func keyArgs(v any) (uint8, int64, float64, string) {
	switch x := v.(type) {
	case int64:
		return 1, x, 0, ""
	case float64:
		return 2, 0, x, ""
	case string:
		return 3, 0, 0, x
	case bool:
		if x {
			return 4, 1, 0, ""
		}
		return 4, 0, 0, ""
	}
	return 0, 0, 0, ""
}

// keyValue is keyArgs' inverse.
func keyValue(kind uint8, i int64, f float64, s string) any {
	switch kind % 5 {
	case 1:
		return i
	case 2:
		return f
	case 3:
		return s
	case 4:
		return i&1 == 1
	}
	return nil
}

// beyondExactInt reports the one pair appendKeyVal documents as keying
// apart although compareVals calls it equal: an int64 outside ±2^53
// against a float64, which compareVals compares after a lossy coercion.
func beyondExactInt(a, b any) bool {
	big := func(v any) bool {
		x, ok := v.(int64)
		return ok && (x > 1<<53 || x < -1<<53)
	}
	_, af := a.(float64)
	_, bf := b.(float64)
	return big(a) && bf || big(b) && af
}

// checkKeyEquality states the contract between compareVals and the tuple
// keys hash joins, GROUP BY and DISTINCT use:
//   - a NULL join-key component makes joinKey report ok=false;
//   - when compareVals succeeds, two join keys are equal exactly when the
//     comparison gives 0;
//   - group keys are equal exactly when compareVals gives 0 or both
//     values are NULL, and the rule holds component-wise for tuples.
//
// breakUnify is Engine.UnsafeBreakJoinKeys, applied to the join keys.
func checkKeyEquality(a, b any, breakUnify bool) error {
	ctx := &evalCtx{breakJoinKeys: breakUnify}
	joinKeyOf := func(v any) ([]byte, bool, error) {
		return joinKey(ctx, []Expr{&Lit{Val: v}}, nil)
	}
	ja, oka, err := joinKeyOf(a)
	if err != nil {
		return err
	}
	jb, okb, err := joinKeyOf(b)
	if err != nil {
		return err
	}
	if oka != (a != nil) || okb != (b != nil) {
		return fmt.Errorf("joinKey ok=%v/%v for %#v/%#v: only a NULL may report ok=false", oka, okb, a, b)
	}
	if beyondExactInt(a, b) {
		return nil
	}
	c, cmpErr := compareVals(a, b)
	if oka && okb && cmpErr == nil {
		if same := bytes.Equal(ja, jb); same != (c == 0) {
			return fmt.Errorf("join keys of %#v and %#v: equal=%v, but compareVals gives %d", a, b, same, c)
		}
	}
	equal := (a == nil && b == nil) || (cmpErr == nil && c == 0)
	ga, gb := appendGroupKey(nil, a), appendGroupKey(nil, b)
	if same := bytes.Equal(ga, gb); same != equal {
		return fmt.Errorf("group keys of %#v and %#v: equal=%v, want %v", a, b, same, equal)
	}
	gab := appendGroupKey(appendGroupKey(nil, a), b)
	gba := appendGroupKey(appendGroupKey(nil, b), a)
	if same := bytes.Equal(gab, gba); same != equal {
		return fmt.Errorf("group keys of (%#v, %#v) and its swap: equal=%v, want %v", a, b, same, equal)
	}
	return nil
}

// FuzzJoinKeyEquality checks checkKeyEquality over pairs of scalars. Its
// setup first proves the property has teeth: with the join-key fault
// injected (UnsafeBreakJoinKeys), it must reject (int64(1), 1.0).
func FuzzJoinKeyEquality(f *testing.F) {
	if checkKeyEquality(int64(1), 1.0, true) == nil {
		f.Fatal("with int/float unification broken, (int64(1), 1.0) must violate the key property")
	}
	for _, a := range keyValues {
		for _, b := range keyValues {
			ka, ia, fa, sa := keyArgs(a)
			kb, ib, fb, sb := keyArgs(b)
			f.Add(ka, ia, fa, sa, kb, ib, fb, sb)
		}
	}
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		a, b := keyValue(ka, ia, fa, sa), keyValue(kb, ib, fb, sb)
		if err := checkKeyEquality(a, b, false); err != nil {
			t.Fatal(err)
		}
	})
}

// TestNaNEquality: NaN equals NaN and sorts above every number, as in
// PostgreSQL, so filters, nested loops, hash joins and ORDER BY agree.
func TestNaNEquality(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (id string, x float)`)
	mustExec(t, e, `INSERT INTO t VALUES ('nan', 1e308*10 - 1e308*10), ('one', 1.0), ('two', 2.0)`)
	cases := []struct {
		sql  string
		want []db.Row
	}{
		{`SELECT id FROM t WHERE x = 1`, []db.Row{{"one"}}},
		{`SELECT id FROM t WHERE x = 2`, []db.Row{{"two"}}},
		{`SELECT id FROM t WHERE x > 2`, []db.Row{{"nan"}}},
		// Hash join on the equi-key.
		{`SELECT a.id, b.id FROM t a JOIN t b ON a.x = b.x ORDER BY a.id`,
			[]db.Row{{"nan", "nan"}, {"one", "one"}, {"two", "two"}}},
		// Nested loop: no equi-key to hash on.
		{`SELECT a.id, b.id FROM t a, t b WHERE a.x >= b.x AND a.x <= b.x ORDER BY a.id`,
			[]db.Row{{"nan", "nan"}, {"one", "one"}, {"two", "two"}}},
		{`SELECT id FROM t ORDER BY x`, []db.Row{{"one"}, {"two"}, {"nan"}}},
		{`SELECT id FROM t ORDER BY x DESC`, []db.Row{{"nan"}, {"two"}, {"one"}}},
		{`SELECT COUNT(*) FROM t GROUP BY x`, []db.Row{{int64(1)}, {int64(1)}, {int64(1)}}},
		{`SELECT MIN(x) FROM t`, []db.Row{{1.0}}},
	}
	for _, c := range cases {
		got := mustExec(t, e, c.sql).Rows
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s:\n got %v\nwant %v", c.sql, got, c.want)
		}
	}
	if r := mustExec(t, e, `SELECT MAX(x) FROM t`).Rows; len(r) != 1 || !math.IsNaN(r[0][0].(float64)) {
		t.Errorf("MAX(x) = %v, want NaN", r)
	}
}

// TestMixedTypeComparisonIsPlanIndependent pins that comparing an int
// column with a string fails the same way whatever the plan. Row by row,
// the hash join keyed the two types apart and returned no rows, the nested
// loop (an OR leaves no equi-key) failed on its first pair, and an index
// path keyed the string as an int and panicked. The binder now decides it
// from the column types before any row is read.
func TestMixedTypeComparisonIsPlanIndependent(t *testing.T) {
	const want = "sqlang: cannot compare int64 with string"
	cases := []struct{ sql, plan string }{
		{`SELECT a.i, b.s FROM a JOIN b ON a.i = b.s`, "hash join"},
		{`SELECT a.i, b.s FROM a, b WHERE a.i = b.s OR a.i = 99`, "nested-loop join"},
		{`SELECT i FROM a WHERE i = 7 AND i <> 'x'`, "index eq a.i"},
		{`SELECT i FROM a WHERE i = 'x'`, "scan a"},
		{`SELECT i FROM a WHERE 'x' > i`, "scan a"},
	}
	for _, batch := range []int{0, 1} {
		e := testEngine(t)
		e.BatchSize = batch
		mustExec(t, e, `CREATE TABLE a (i int)`)
		mustExec(t, e, `CREATE TABLE b (s string)`)
		for i := 0; i < 200; i++ {
			mustExec(t, e, fmt.Sprintf(`INSERT INTO a VALUES (%d)`, i))
		}
		mustExec(t, e, `INSERT INTO b VALUES ('1'), ('x')`)
		mustExec(t, e, `CREATE INDEX ON a (i)`)
		for _, c := range cases {
			if plan := mustExec(t, e, "EXPLAIN "+c.sql).Plan(); !strings.Contains(plan, c.plan) {
				t.Fatalf("%q does not plan with %s:\n%s", c.sql, c.plan, plan)
			}
			if _, err := e.Exec(c.sql); err == nil || err.Error() != want {
				t.Errorf("BatchSize=%d %s %q: err = %v, want %q", batch, c.plan, c.sql, err, want)
			}
		}
	}
}

// TestIndexEqualityKeysLikeCompare checks that an index path finds what a
// scan's filter finds when the literal's type differs from the indexed
// column's: int against float both ways, and NULL, which matches nothing.
func TestIndexEqualityKeysLikeCompare(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE n (i int, f float)`)
	for k := 0; k < 200; k++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO n VALUES (%d, %d.0)`, k, k))
	}
	mustExec(t, e, `INSERT INTO n VALUES (NULL, NULL)`)
	for _, c := range []struct {
		sql  string
		rows int
	}{
		{`SELECT i FROM n WHERE f = 7`, 1},
		{`SELECT i FROM n WHERE i = 7.0`, 1},
		{`SELECT i FROM n WHERE i = 7.5`, 0},
		{`SELECT i FROM n WHERE i = NULL`, 0},
	} {
		scan := mustExec(t, e, c.sql)
		if len(scan.Rows) != c.rows {
			t.Fatalf("scan %q: %d rows, want %d", c.sql, len(scan.Rows), c.rows)
		}
		if plan := mustExec(t, e, "EXPLAIN "+c.sql).Plan(); !strings.Contains(plan, "scan n") {
			t.Fatalf("%q before indexing:\n%s", c.sql, plan)
		}
	}
	mustExec(t, e, `CREATE INDEX ON n (i)`)
	mustExec(t, e, `CREATE INDEX ON n (f)`)
	for _, c := range []struct {
		sql, plan string
		rows      int
	}{
		{`SELECT i FROM n WHERE f = 7`, "index eq n.f", 1},
		{`SELECT i FROM n WHERE i = 7.0`, "index eq n.i", 1},
		{`SELECT i FROM n WHERE i = 7.5`, "scan n", 0},
		{`SELECT i FROM n WHERE i = NULL`, "scan n", 0},
	} {
		if plan := mustExec(t, e, "EXPLAIN "+c.sql).Plan(); !strings.Contains(plan, c.plan) {
			t.Fatalf("%q does not plan with %s:\n%s", c.sql, c.plan, plan)
		}
		if r := mustExec(t, e, c.sql); len(r.Rows) != c.rows {
			t.Errorf("%q: %d rows, want %d", c.sql, len(r.Rows), c.rows)
		}
	}
}
