package sqlang

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestGroupByDistinctKeysDoNotCollide pins the typed tuple-key encoding:
// tuples whose formatted values concatenate to the same text, and NULL
// beside the string '<nil>', stay distinct groups and distinct rows.
func TestGroupByDistinctKeysDoNotCollide(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (a string, b string)`)
	mustExec(t, e, `INSERT INTO t VALUES ('x|', 'y'), ('x', '|y')`)
	mustExec(t, e, `CREATE TABLE u (a string)`)
	mustExec(t, e, `INSERT INTO u VALUES (NULL), ('<nil>')`)
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT a, b, COUNT(*) FROM t GROUP BY a, b`, 2},
		{`SELECT DISTINCT a, b FROM t`, 2},
		{`SELECT a, COUNT(*) FROM u GROUP BY a`, 2},
		{`SELECT DISTINCT a FROM u`, 2},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Errorf("%s: %d rows %v, want %d", c.sql, len(r.Rows), r.Rows, c.want)
		}
	}
	// Values compareVals calls equal still share a key: an integral float
	// keys as its integer (and -0 as 0); other values never collide.
	key := func(vs ...any) string {
		var b []byte
		for _, v := range vs {
			b = appendGroupKey(b, v)
		}
		return string(b)
	}
	if key(int64(2)) != key(2.0) || key(int64(0)) != key(math.Copysign(0, -1)) {
		t.Error("integral floats must key as their integers")
	}
	distinct := [][]any{
		{int64(2)}, {2.5}, {"2"}, {true}, {nil}, {"<nil>"}, {""}, {[]byte("2")},
		{"a", "bc"}, {"ab", "c"}, {nil, "x"}, {"x", nil}, {int64(1), int64(23)}, {int64(12), int64(3)},
	}
	seen := map[string][]any{}
	for _, tup := range distinct {
		k := key(tup...)
		if prev, dup := seen[k]; dup {
			t.Errorf("tuples %v and %v share key %q", prev, tup, k)
		}
		seen[k] = tup
	}
}

// setupJoinFixture loads three joinable tables: frags (with a dna
// column), reads pointing at frags, and grps labelling the reads.
func setupJoinFixture(t testing.TB, e *Engine) {
	mustExec(t, e, `CREATE TABLE frags (id int, fragment dna)`)
	mustExec(t, e, `CREATE TABLE reads (rid int, frag_id int, grp int)`)
	mustExec(t, e, `CREATE TABLE grps (grp int, label string)`)
	rng := rand.New(rand.NewSource(3))
	var vals []string
	for i := 0; i < 120; i++ {
		b := make([]byte, 40+rng.Intn(60))
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		vals = append(vals, fmt.Sprintf("(%d, dna('f%d', '%s'))", i, i, b))
	}
	mustExec(t, e, `INSERT INTO frags VALUES `+strings.Join(vals, ", "))
	vals = vals[:0]
	for i := 0; i < 400; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, %d)", i, rng.Intn(120), rng.Intn(6)))
	}
	mustExec(t, e, `INSERT INTO reads VALUES `+strings.Join(vals, ", "))
	mustExec(t, e, `INSERT INTO grps VALUES (0, 'g0'), (1, 'g1'), (2, 'g2'), (3, 'g3'), (4, 'g4'), (5, 'g5')`)
}

// TestSharedStmtConcurrentExec executes one parsed statement (join, UDF
// filter, GROUP BY) from several goroutines at once, as genalgd's prepared
// statements do. Binding and narrowing must never write into the shared
// AST: under -race any such write is reported, and every result must equal
// a serial run. The second statement narrows frags to its join key, so it
// must never unpack a fragment.
func TestSharedStmtConcurrentExec(t *testing.T) {
	e := testEngine(t)
	setupJoinFixture(t, e)
	unpacks := countUnpacks(t, e)
	for _, c := range []struct {
		sql     string
		unpacks bool
	}{
		{`SELECT grps.label, COUNT(*), AVG(gccontent(frags.fragment)) FROM frags ` +
			`JOIN reads ON frags.id = reads.frag_id JOIN grps ON reads.grp = grps.grp ` +
			`WHERE gccontent(frags.fragment) > 0.5 GROUP BY grps.label HAVING COUNT(*) > 1 ORDER BY grps.label`, true},
		{`SELECT reads.rid, grps.label FROM frags JOIN reads ON frags.id = reads.frag_id ` +
			`JOIN grps ON reads.grp = grps.grp WHERE reads.rid < 200 ORDER BY reads.rid`, false},
	} {
		sql := c.sql
		stmt, err := Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		pristine, _ := Parse(sql)
		unpacks.Store(0)
		want, err := e.ExecStmtSQLCtx(context.Background(), stmt, sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Rows) == 0 {
			t.Fatalf("%s: fixture query returned no rows", sql)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					got, err := e.ExecStmtSQLCtx(context.Background(), stmt, sql)
					if err != nil {
						t.Error(err)
						return
					}
					if !reflect.DeepEqual(want.Rows, got.Rows) || want.Plan() != got.Plan() {
						t.Errorf("concurrent execution diverged:\n%v\nwant\n%v", got.Rows, want.Rows)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !reflect.DeepEqual(stmt, pristine) {
			t.Errorf("%s: executing the statement modified its parsed AST", sql)
		}
		if got := unpacks.Load(); (got > 0) != c.unpacks {
			t.Errorf("%s: %d fragment unpacks", sql, got)
		}
	}
}

// TestBoundErrorsSurfaceOnlyWhenEvaluated checks the binder's error rule:
// an unresolvable column or function fails the statement only when a row
// reaches it, and then with the resolver's error.
func TestBoundErrorsSurfaceOnlyWhenEvaluated(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE empty (a int)`)
	mustExec(t, e, `CREATE TABLE one (a int)`)
	mustExec(t, e, `INSERT INTO one VALUES (1)`)
	for _, sql := range []string{
		`SELECT a FROM empty WHERE nosuch = 1`,
		`SELECT a FROM empty WHERE nofunc(a) = 1`,
		`SELECT nosuch FROM empty`,
		`UPDATE empty SET a = nosuch`,
		`DELETE FROM empty WHERE nofunc(a)`,
	} {
		if _, err := e.Exec(sql); err != nil {
			t.Errorf("%s on an empty table: %v, want no error", sql, err)
		}
	}
	for sql, want := range map[string]string{
		`SELECT a FROM one WHERE nosuch = 1`:       `sqlang: unknown column "nosuch"`,
		`SELECT a FROM one WHERE one.nosuch = 1`:   `sqlang: unknown column one.nosuch`,
		`SELECT a FROM one WHERE nofunc(a) = 1`:    `sqlang: unknown function "nofunc"`,
		`SELECT a FROM one WHERE gccontent(a, a)`:  `sqlang: function gccontent expects 1 arguments, got 2`,
		`SELECT nosuch FROM one`:                   `sqlang: unknown column "nosuch"`,
		`UPDATE one SET a = nosuch`:                `sqlang: unknown column "nosuch"`,
		`INSERT INTO one VALUES (a)`:               `sqlang: unknown column "a"`,
		`SELECT a FROM one ORDER BY seqlength(a)`:  `sqlang: seqlength: seqlength: arg is int64`,
		`SELECT a FROM one WHERE gccontent(a) > 0`: `sqlang: gccontent: gccontent: arg is int64`,
	} {
		_, err := e.Exec(sql)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %v, want prefix %q", sql, err, want)
		}
	}
}
