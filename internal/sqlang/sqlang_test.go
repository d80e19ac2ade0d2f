package sqlang

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/seq"
)

// testEngine builds an engine with the dna UDT, a dna() constructor
// function, and the contains()/gccontent() external functions — a minimal
// stand-in for the adapter package.
func testEngine(t testing.TB) *Engine {
	d, err := db.OpenMemory(1024)
	if err != nil {
		t.Fatal(err)
	}
	err = d.UDTs.Register(db.UDT{
		Name:   "dna",
		Pack:   func(v any) ([]byte, error) { return v.(gdt.DNA).Pack(), nil },
		Unpack: func(buf []byte) (any, error) { return gdt.Unpack(buf) },
		Check:  func(v any) bool { _, ok := v.(gdt.DNA); return ok },
		ExtractSeq: func(v any) (seq.NucSeq, bool) {
			dv, ok := v.(gdt.DNA)
			if !ok {
				return seq.NucSeq{}, false
			}
			return dv.Seq, true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.Funcs.Register(db.ExternalFunc{
		Name: "dna", NArgs: 2,
		Fn: func(args []any) (any, error) {
			id, _ := args[0].(string)
			letters, _ := args[1].(string)
			return gdt.NewDNA(id, letters)
		},
	}))
	must(d.Funcs.Register(db.ExternalFunc{
		Name: "contains", NArgs: 2, Selectivity: 0.05, Cost: 2, IndexHint: "kmer",
		Fn: func(args []any) (any, error) {
			frag, ok := args[0].(gdt.DNA)
			if !ok {
				return nil, fmt.Errorf("contains: first arg is %T, want dna", args[0])
			}
			pat, ok := args[1].(string)
			if !ok {
				return nil, fmt.Errorf("contains: second arg is %T, want string", args[1])
			}
			pn, err := seq.NewNucSeq(seq.AlphaDNA, pat)
			if err != nil {
				return nil, err
			}
			return frag.Seq.Contains(pn), nil
		},
	}))
	must(d.Funcs.Register(db.ExternalFunc{
		Name: "gccontent", NArgs: 1, Cost: 1,
		Fn: func(args []any) (any, error) {
			frag, ok := args[0].(gdt.DNA)
			if !ok {
				return nil, fmt.Errorf("gccontent: arg is %T", args[0])
			}
			return frag.Seq.GCContent(), nil
		},
	}))
	must(d.Funcs.Register(db.ExternalFunc{
		Name: "seqlength", NArgs: 1, Cost: 1,
		Fn: func(args []any) (any, error) {
			frag, ok := args[0].(gdt.DNA)
			if !ok {
				return nil, fmt.Errorf("seqlength: arg is %T", args[0])
			}
			return int64(frag.Seq.Len()), nil
		},
	}))
	return NewEngine(d)
}

func mustExec(t testing.TB, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return r
}

func setupFragments(t testing.TB, e *Engine, n int) {
	mustExec(t, e, `CREATE TABLE DNAFragments (id string NOT NULL, source string, quality float, fragment dna)`)
	r := rand.New(rand.NewSource(7))
	letters := []byte("ACGT")
	for i := 0; i < n; i++ {
		var sb strings.Builder
		for j := 0; j < 120; j++ {
			sb.WriteByte(letters[r.Intn(4)])
		}
		src := "genbank"
		if i%3 == 0 {
			src = "embl"
		}
		sql := fmt.Sprintf(`INSERT INTO DNAFragments VALUES ('F%04d', '%s', %0.2f, dna('F%04d', '%s'))`,
			i, src, float64(i%100)/100, i, sb.String())
		mustExec(t, e, sql)
	}
}

func TestCreateInsertSelect(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 20)
	r := mustExec(t, e, `SELECT id, source FROM DNAFragments WHERE source = 'embl' ORDER BY id`)
	if len(r.Cols) != 2 || r.Cols[0] != "id" {
		t.Errorf("Cols = %v", r.Cols)
	}
	if len(r.Rows) != 7 { // i%3==0 for 0..19: 0,3,6,9,12,15,18
		t.Errorf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0] != "F0000" {
		t.Errorf("first row = %v", r.Rows[0])
	}
	// Ordered ascending.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i-1][0].(string) >= r.Rows[i][0].(string) {
			t.Error("ORDER BY violated")
		}
	}
}

func TestPaperExampleQuery(t *testing.T) {
	// The paper's Section 6.3 query:
	// SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA')
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE DNAFragments (id string, fragment dna)`)
	mustExec(t, e, `INSERT INTO DNAFragments VALUES ('hit', dna('hit', 'GGGATTGCCATAGGG')), ('miss', dna('miss', 'GGGGGGGGGGGGGGG'))`)
	r := mustExec(t, e, `SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA')`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "hit" {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestSelectStar(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 3)
	r := mustExec(t, e, `SELECT * FROM DNAFragments LIMIT 2`)
	if len(r.Cols) != 4 || len(r.Rows) != 2 {
		t.Errorf("star select: cols=%v rows=%d", r.Cols, len(r.Rows))
	}
	if _, ok := r.Rows[0][3].(gdt.DNA); !ok {
		t.Errorf("opaque column type = %T", r.Rows[0][3])
	}
}

func TestWhereArithmeticAndComparisons(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE nums (n int, f float)`)
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO nums VALUES (%d, %d.5)`, i, i))
	}
	cases := []struct {
		sql  string
		want int
	}{
		{`SELECT n FROM nums WHERE n > 5`, 4},
		{`SELECT n FROM nums WHERE n >= 5`, 5},
		{`SELECT n FROM nums WHERE n <> 5`, 9},
		{`SELECT n FROM nums WHERE n != 5`, 9},
		{`SELECT n FROM nums WHERE n * 2 = 8`, 1},
		{`SELECT n FROM nums WHERE n + 1 < 3`, 2},
		{`SELECT n FROM nums WHERE f > 5`, 5}, // float vs int coercion: 5.5..9.5
		{`SELECT n FROM nums WHERE n > 2 AND n < 5`, 2},
		{`SELECT n FROM nums WHERE n < 2 OR n > 7`, 4},
		{`SELECT n FROM nums WHERE NOT n < 8`, 2},
		{`SELECT n FROM nums WHERE -n = -3`, 1},
	}
	for _, c := range cases {
		r := mustExec(t, e, c.sql)
		if len(r.Rows) != c.want {
			t.Errorf("%s: %d rows, want %d", c.sql, len(r.Rows), c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (id int, v string)`)
	mustExec(t, e, `INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'b')`)
	if r := mustExec(t, e, `SELECT id FROM t WHERE v IS NULL`); len(r.Rows) != 1 || r.Rows[0][0] != int64(2) {
		t.Errorf("IS NULL = %v", r.Rows)
	}
	if r := mustExec(t, e, `SELECT id FROM t WHERE v IS NOT NULL`); len(r.Rows) != 2 {
		t.Errorf("IS NOT NULL = %v", r.Rows)
	}
	// NULL comparisons drop rows.
	if r := mustExec(t, e, `SELECT id FROM t WHERE v = 'a'`); len(r.Rows) != 1 {
		t.Errorf("= with NULL rows = %v", r.Rows)
	}
	if r := mustExec(t, e, `SELECT id FROM t WHERE v <> 'a'`); len(r.Rows) != 1 {
		t.Errorf("<> with NULL rows = %v", r.Rows)
	}
}

func TestAggregates(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (grp string, n int)`)
	mustExec(t, e, `INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('b', 30)`)
	r := mustExec(t, e, `SELECT grp, COUNT(*), SUM(n), AVG(n), MIN(n), MAX(n) FROM t GROUP BY grp ORDER BY grp`)
	if len(r.Rows) != 2 {
		t.Fatalf("groups = %v", r.Rows)
	}
	a := r.Rows[0]
	if a[0] != "a" || a[1] != int64(2) || a[2] != int64(3) || a[3] != 1.5 || a[4] != int64(1) || a[5] != int64(2) {
		t.Errorf("group a = %v", a)
	}
	b := r.Rows[1]
	if b[0] != "b" || b[1] != int64(3) || b[2] != int64(60) {
		t.Errorf("group b = %v", b)
	}
	// Global aggregate (no GROUP BY).
	r = mustExec(t, e, `SELECT COUNT(*), SUM(n) FROM t`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(5) || r.Rows[0][1] != int64(63) {
		t.Errorf("global agg = %v", r.Rows)
	}
	// Aggregate over empty set.
	r = mustExec(t, e, `SELECT COUNT(*) FROM t WHERE n > 1000`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(0) {
		t.Errorf("empty agg = %v", r.Rows)
	}
}

func TestUDFInAllClauses(t *testing.T) {
	// Paper Section 6.3: UDFs usable in SELECT, WHERE, GROUP BY, ORDER BY.
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE frags (id string, fragment dna)`)
	mustExec(t, e, `INSERT INTO frags VALUES
		('gc0', dna('gc0', 'ATATATAT')),
		('gc1', dna('gc1', 'GCGCGCGC')),
		('gc2', dna('gc2', 'GCGCGCGCGCGC')),
		('mix', dna('mix', 'ATGC'))`)
	// SELECT clause.
	r := mustExec(t, e, `SELECT id, gccontent(fragment) FROM frags WHERE id = 'gc1'`)
	if r.Rows[0][1] != 1.0 {
		t.Errorf("gccontent in SELECT = %v", r.Rows[0])
	}
	// WHERE clause.
	r = mustExec(t, e, `SELECT id FROM frags WHERE gccontent(fragment) = 1.0 ORDER BY id`)
	if len(r.Rows) != 2 {
		t.Errorf("gccontent in WHERE = %v", r.Rows)
	}
	// GROUP BY clause.
	r = mustExec(t, e, `SELECT gccontent(fragment), COUNT(*) FROM frags GROUP BY gccontent(fragment) ORDER BY COUNT(*) DESC`)
	if len(r.Rows) != 3 {
		t.Errorf("gccontent in GROUP BY = %v", r.Rows)
	}
	// ORDER BY clause.
	r = mustExec(t, e, `SELECT id FROM frags ORDER BY seqlength(fragment) DESC, id`)
	if r.Rows[0][0] != "gc2" {
		t.Errorf("UDF in ORDER BY = %v", r.Rows)
	}
}

func TestAliases(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (n int)`)
	mustExec(t, e, `INSERT INTO t VALUES (1), (2), (3)`)
	r := mustExec(t, e, `SELECT n * 10 AS deca FROM t ORDER BY deca DESC`)
	if r.Cols[0] != "deca" || r.Rows[0][0] != int64(30) {
		t.Errorf("alias = %v %v", r.Cols, r.Rows)
	}
}

func TestJoin(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE genes (gid string, symbol string)`)
	mustExec(t, e, `CREATE TABLE proteins (pid string, gene string)`)
	mustExec(t, e, `INSERT INTO genes VALUES ('g1', 'TP53'), ('g2', 'BRCA1')`)
	mustExec(t, e, `INSERT INTO proteins VALUES ('p1', 'g1'), ('p2', 'g1'), ('p3', 'g2')`)
	// Explicit JOIN ... ON.
	r := mustExec(t, e, `SELECT proteins.pid, genes.symbol FROM proteins JOIN genes ON proteins.gene = genes.gid ORDER BY proteins.pid`)
	if len(r.Rows) != 3 || r.Rows[0][1] != "TP53" || r.Rows[2][1] != "BRCA1" {
		t.Errorf("join rows = %v", r.Rows)
	}
	// Comma join with WHERE.
	r = mustExec(t, e, `SELECT p.pid FROM proteins p, genes g WHERE p.gene = g.gid AND g.symbol = 'TP53' ORDER BY p.pid`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "p1" {
		t.Errorf("comma join = %v", r.Rows)
	}
}

func TestIndexedAccessPath(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 50)
	mustExec(t, e, `CREATE INDEX ON DNAFragments (id)`)
	r := mustExec(t, e, `EXPLAIN SELECT id FROM DNAFragments WHERE id = 'F0007'`)
	if !strings.Contains(r.Plan(), "index eq") {
		t.Errorf("plan = %q", r.Plan())
	}
	rr := mustExec(t, e, `SELECT id, source FROM DNAFragments WHERE id = 'F0007'`)
	if len(rr.Rows) != 1 || rr.Rows[0][0] != "F0007" {
		t.Errorf("indexed select = %v", rr.Rows)
	}
	// Unindexed column still scans.
	r = mustExec(t, e, `EXPLAIN SELECT id FROM DNAFragments WHERE source = 'embl'`)
	if !strings.Contains(r.Plan(), "scan") {
		t.Errorf("plan = %q", r.Plan())
	}
}

func TestGenomicIndexAccessPath(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE frags (id string, fragment dna)`)
	pat := "ATTGCCATAGGA"
	mustExec(t, e, fmt.Sprintf(`INSERT INTO frags VALUES ('hit', dna('hit', 'GGGG%sGGGG'))`, pat))
	r := rand.New(rand.NewSource(3))
	letters := []byte("ACGT")
	for i := 0; i < 30; i++ {
		var sb strings.Builder
		for j := 0; j < 100; j++ {
			sb.WriteByte(letters[r.Intn(4)])
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO frags VALUES ('r%02d', dna('r%02d', '%s'))`, i, i, sb.String()))
	}
	mustExec(t, e, `CREATE GENOMIC INDEX ON frags (fragment) USING 8`)
	exp := mustExec(t, e, fmt.Sprintf(`EXPLAIN SELECT id FROM frags WHERE contains(fragment, '%s')`, pat))
	if !strings.Contains(exp.Plan(), "genomic index") {
		t.Errorf("plan = %q", exp.Plan())
	}
	rr := mustExec(t, e, fmt.Sprintf(`SELECT id FROM frags WHERE contains(fragment, '%s')`, pat))
	found := false
	for _, row := range rr.Rows {
		if row[0] == "hit" {
			found = true
		}
	}
	if !found {
		t.Errorf("genomic path missed the hit: %v", rr.Rows)
	}
	// Short pattern falls back to scan but still answers correctly.
	exp = mustExec(t, e, `EXPLAIN SELECT id FROM frags WHERE contains(fragment, 'ATTG')`)
	if !strings.Contains(exp.Plan(), "scan") {
		t.Errorf("short-pattern plan = %q", exp.Plan())
	}
	rr = mustExec(t, e, `SELECT id FROM frags WHERE contains(fragment, 'ATTGCCATA')`)
	if len(rr.Rows) < 1 {
		t.Error("fallback scan missed rows")
	}
}

func TestPredicateOrderingPlan(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 10)
	// Rank model: rank = cost / (1 - selectivity). The cheap scalar
	// comparison (quality < 0.5: cost ~0.1) must precede both UDF-bearing
	// predicates (gccontent rank ~1.6, contains rank ~2.1).
	r := mustExec(t, e, `EXPLAIN SELECT id FROM DNAFragments WHERE gccontent(fragment) > 0.9 AND quality < 0.5 AND contains(fragment, 'ATTGCCATAGG')`)
	plan := r.Plan()
	qIdx := strings.Index(plan, "quality")
	cIdx := strings.Index(plan, "contains")
	gIdx := strings.Index(plan, "gccontent")
	if qIdx < 0 || cIdx < 0 || gIdx < 0 {
		t.Fatalf("plan = %q", plan)
	}
	if !(qIdx < cIdx && qIdx < gIdx) {
		t.Errorf("cheap scalar predicate not first: plan = %q", plan)
	}
	if !(gIdx < cIdx) {
		t.Errorf("lower-rank UDF predicate not before higher-rank: plan = %q", plan)
	}
}

func TestDeleteStatement(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (n int)`)
	mustExec(t, e, `INSERT INTO t VALUES (1), (2), (3), (4)`)
	r := mustExec(t, e, `DELETE FROM t WHERE n > 2`)
	if r.Affected != 2 {
		t.Errorf("Affected = %d", r.Affected)
	}
	rr := mustExec(t, e, `SELECT COUNT(*) FROM t`)
	if rr.Rows[0][0] != int64(2) {
		t.Errorf("remaining = %v", rr.Rows)
	}
	// Unconditional delete.
	r = mustExec(t, e, `DELETE FROM t`)
	if r.Affected != 2 {
		t.Errorf("unconditional delete = %d", r.Affected)
	}
}

func TestInsertWithColumnList(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (a int, b string, c float)`)
	mustExec(t, e, `INSERT INTO t (b, a) VALUES ('x', 7)`)
	r := mustExec(t, e, `SELECT a, b, c FROM t`)
	if r.Rows[0][0] != int64(7) || r.Rows[0][1] != "x" || r.Rows[0][2] != nil {
		t.Errorf("row = %v", r.Rows[0])
	}
}

func TestParseErrors(t *testing.T) {
	e := testEngine(t)
	cases := []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT * FROM`,
		`SELECT * FROM t WHERE`,
		`SELECT * FROM t LIMIT -1`,
		`SELECT * FROM t GROUP`,
		`INSERT INTO`,
		`INSERT INTO t VALUES`,
		`CREATE TABLE`,
		`CREATE TABLE t ()`,
		`SELECT * FROM t; SELECT * FROM t`,
		`SELECT 'unterminated FROM t`,
		`DELETE t`,
		`SELECT * FROM t WHERE @`,
	}
	for _, c := range cases {
		if _, err := e.Exec(c); err == nil {
			t.Errorf("Exec(%q) succeeded", c)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (n int)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	cases := []string{
		`SELECT nosuch FROM t`,
		`SELECT n FROM nosuchtable`,
		`SELECT nosuchfunc(n) FROM t`,
		`SELECT n / 0 FROM t`,
		`SELECT n FROM t WHERE n = 'str'`,
		`SELECT contains(n, 'ACGT') FROM t`,
		`INSERT INTO t VALUES (1, 2)`,
		`INSERT INTO t (nosuch) VALUES (1)`,
	}
	for _, c := range cases {
		if _, err := e.Exec(c); err == nil {
			t.Errorf("Exec(%q) succeeded", c)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE a (x int)`)
	mustExec(t, e, `CREATE TABLE b (x int)`)
	mustExec(t, e, `INSERT INTO a VALUES (1)`)
	mustExec(t, e, `INSERT INTO b VALUES (2)`)
	if _, err := e.Exec(`SELECT x FROM a, b`); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column error = %v", err)
	}
	r := mustExec(t, e, `SELECT a.x, b.x FROM a, b`)
	if r.Rows[0][0] != int64(1) || r.Rows[0][1] != int64(2) {
		t.Errorf("qualified = %v", r.Rows)
	}
}

func TestStringEscapes(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (s string)`)
	mustExec(t, e, `INSERT INTO t VALUES ('it''s')`)
	r := mustExec(t, e, `SELECT s FROM t WHERE s = 'it''s'`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "it's" {
		t.Errorf("escape = %v", r.Rows)
	}
}

func TestComments(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, "CREATE TABLE t (n int) -- trailing comment")
	mustExec(t, e, "INSERT INTO t VALUES (5) -- five")
	r := mustExec(t, e, "SELECT n -- pick n\nFROM t")
	if len(r.Rows) != 1 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestLimitAndSemicolon(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (n int);`)
	for i := 0; i < 10; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	r := mustExec(t, e, `SELECT n FROM t ORDER BY n LIMIT 3;`)
	if len(r.Rows) != 3 || r.Rows[2][0] != int64(2) {
		t.Errorf("limit rows = %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT n FROM t LIMIT 0`)
	if len(r.Rows) != 0 {
		t.Errorf("LIMIT 0 rows = %v", r.Rows)
	}
}

func BenchmarkSelectScanWithUDF(b *testing.B) {
	e := testEngine(b)
	setupFragments(b, e, 200)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`SELECT id FROM DNAFragments WHERE contains(fragment, 'ATTGCCATA')`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSelectIndexedEquality(b *testing.B) {
	e := testEngine(b)
	setupFragments(b, e, 200)
	mustExec(b, e, `CREATE INDEX ON DNAFragments (id)`)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Exec(`SELECT id, source FROM DNAFragments WHERE id = 'F0042'`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectBetweenWrites times one INSERT into the table followed
// by reads point lookups on it, through the plan cache (Exec) and cold
// (Parse + ExecStmtSQLCtx). Each write makes the cached template stale, so
// with one read per write every cached read is a miss.
func BenchmarkSelectBetweenWrites(b *testing.B) {
	for _, reads := range []int{1, 10} {
		for _, path := range []string{"cached", "cold"} {
			b.Run(fmt.Sprintf("reads=%d/%s", reads, path), func(b *testing.B) {
				e := testEngine(b)
				setupFragments(b, e, 200)
				mustExec(b, e, `CREATE INDEX ON DNAFragments (id)`)
				run := e.Exec
				if path == "cold" {
					run = func(sql string) (*Result, error) {
						stmt, err := Parse(sql)
						if err != nil {
							return nil, err
						}
						return e.ExecStmtSQLCtx(context.Background(), stmt, sql)
					}
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					mustExec(b, e, fmt.Sprintf(`INSERT INTO DNAFragments VALUES ('X%d', 'embl', 0.5, NULL)`, i))
					for r := 0; r < reads; r++ {
						if _, err := run(fmt.Sprintf(`SELECT id, source FROM DNAFragments WHERE id = 'F%04d'`, (i+r)%200)); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

func TestUpdateStatement(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (id string, n int, f float)`)
	mustExec(t, e, `INSERT INTO t VALUES ('a', 1, 1.0), ('b', 2, 2.0), ('c', 3, 3.0)`)
	r := mustExec(t, e, `UPDATE t SET n = n * 10, f = 9 WHERE n > 1`)
	if r.Affected != 2 {
		t.Errorf("Affected = %d", r.Affected)
	}
	rr := mustExec(t, e, `SELECT id, n, f FROM t ORDER BY id`)
	if rr.Rows[0][1] != int64(1) || rr.Rows[1][1] != int64(20) || rr.Rows[2][1] != int64(30) {
		t.Errorf("rows = %v", rr.Rows)
	}
	// Integer literal coerced into the float column.
	if rr.Rows[1][2] != 9.0 {
		t.Errorf("float coercion = %v", rr.Rows[1][2])
	}
	// Unconditional update touches everything.
	r = mustExec(t, e, `UPDATE t SET n = 0`)
	if r.Affected != 3 {
		t.Errorf("unconditional Affected = %d", r.Affected)
	}
	// SET expressions see pre-update values (swap semantics).
	mustExec(t, e, `CREATE TABLE sw (x int, y int)`)
	mustExec(t, e, `INSERT INTO sw VALUES (1, 2)`)
	mustExec(t, e, `UPDATE sw SET x = y, y = x`)
	rr = mustExec(t, e, `SELECT x, y FROM sw`)
	if rr.Rows[0][0] != int64(2) || rr.Rows[0][1] != int64(1) {
		t.Errorf("swap = %v", rr.Rows[0])
	}
}

func TestUpdateMaintainsIndexes(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (id string, n int)`)
	mustExec(t, e, `INSERT INTO t VALUES ('a', 1), ('b', 2)`)
	mustExec(t, e, `CREATE INDEX ON t (id)`)
	mustExec(t, e, `UPDATE t SET id = 'z' WHERE id = 'a'`)
	r := mustExec(t, e, `SELECT n FROM t WHERE id = 'z'`)
	if len(r.Rows) != 1 || r.Rows[0][0] != int64(1) {
		t.Errorf("post-update index lookup = %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT n FROM t WHERE id = 'a'`)
	if len(r.Rows) != 0 {
		t.Errorf("stale index entry: %v", r.Rows)
	}
}

func TestUpdateErrors(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (n int)`)
	mustExec(t, e, `INSERT INTO t VALUES (1)`)
	cases := []string{
		`UPDATE nosuch SET n = 1`,
		`UPDATE t SET nosuch = 1`,
		`UPDATE t SET n = 'str'`,
		`UPDATE t SET`,
		`UPDATE t SET n 1`,
	}
	for _, c := range cases {
		if _, err := e.Exec(c); err == nil {
			t.Errorf("Exec(%q) succeeded", c)
		}
	}
}

func TestUpdateWithUDF(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE frags (id string, f dna, gc float)`)
	mustExec(t, e, `INSERT INTO frags VALUES ('x', dna('x', 'GGCC'), 0.0)`)
	mustExec(t, e, `UPDATE frags SET gc = gccontent(f)`)
	r := mustExec(t, e, `SELECT gc FROM frags`)
	if r.Rows[0][0] != 1.0 {
		t.Errorf("gc = %v", r.Rows[0][0])
	}
}

func TestAnalyzeCollectsStats(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (hi string, lo string, v string)`)
	for i := 0; i < 100; i++ {
		// hi: 100 distinct values; lo: 2 distinct; v: NULL half the time.
		v := "NULL"
		if i%2 == 0 {
			v = "'x'"
		}
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES ('h%03d', 'g%d', %s)`, i, i%2, v))
	}
	r := mustExec(t, e, `ANALYZE t`)
	if r.Affected != 100 {
		t.Errorf("analyzed rows = %d", r.Affected)
	}
	st, ok := e.stats.get("t")
	if !ok {
		t.Fatal("stats missing")
	}
	if st.Cols["hi"].Distinct != 100 || st.Cols["lo"].Distinct != 2 {
		t.Errorf("distinct counts = %+v", st.Cols)
	}
	if nf := st.Cols["v"].NullFrac; nf < 0.49 || nf > 0.51 {
		t.Errorf("null frac = %v", nf)
	}
	if _, err := e.Exec(`ANALYZE nosuch`); err == nil {
		t.Error("ANALYZE of unknown table succeeded")
	}
}

func TestAnalyzeRefinesPredicateOrder(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (hi string, lo string)`)
	for i := 0; i < 50; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES ('h%03d', 'g%d')`, i, i%2))
	}
	// Without stats both equalities get the same default selectivity and
	// keep written order.
	r := mustExec(t, e, `EXPLAIN SELECT hi FROM t WHERE lo = 'g1' AND hi = 'h007'`)
	loIdx := strings.Index(r.Plan(), "lo =")
	hiIdx := strings.Index(r.Plan(), "hi =")
	if loIdx < 0 || hiIdx < 0 || loIdx > hiIdx {
		t.Fatalf("pre-analyze plan = %q", r.Plan())
	}
	// After ANALYZE, the high-cardinality equality (sel 1/50) is ordered
	// before the low-cardinality one (sel 1/2).
	mustExec(t, e, `ANALYZE t`)
	r = mustExec(t, e, `EXPLAIN SELECT hi FROM t WHERE lo = 'g1' AND hi = 'h007'`)
	loIdx = strings.Index(r.Plan(), "lo =")
	hiIdx = strings.Index(r.Plan(), "hi =")
	if loIdx < 0 || hiIdx < 0 || hiIdx > loIdx {
		t.Errorf("post-analyze plan = %q", r.Plan())
	}
}

func TestSelectDistinct(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (src string, n int)`)
	mustExec(t, e, `INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2), ('b', 1), ('b', 1)`)
	r := mustExec(t, e, `SELECT DISTINCT src FROM t ORDER BY src`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "a" || r.Rows[1][0] != "b" {
		t.Errorf("distinct single col = %v", r.Rows)
	}
	r = mustExec(t, e, `SELECT DISTINCT src, n FROM t ORDER BY src, n`)
	if len(r.Rows) != 3 {
		t.Errorf("distinct pair = %v", r.Rows)
	}
	// DISTINCT with LIMIT applies after deduplication.
	r = mustExec(t, e, `SELECT DISTINCT src FROM t ORDER BY src LIMIT 1`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "a" {
		t.Errorf("distinct+limit = %v", r.Rows)
	}
}

func TestHaving(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE t (grp string, n int)`)
	mustExec(t, e, `INSERT INTO t VALUES ('a', 1), ('a', 2), ('b', 10), ('b', 20), ('b', 30), ('c', 100)`)
	r := mustExec(t, e, `SELECT grp, COUNT(*) FROM t GROUP BY grp HAVING COUNT(*) >= 2 ORDER BY grp`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "a" || r.Rows[1][0] != "b" {
		t.Errorf("HAVING count = %v", r.Rows)
	}
	// HAVING over an aggregate not in the select list.
	r = mustExec(t, e, `SELECT grp FROM t GROUP BY grp HAVING SUM(n) > 50 ORDER BY grp`)
	if len(r.Rows) != 2 || r.Rows[0][0] != "b" || r.Rows[1][0] != "c" {
		t.Errorf("HAVING sum = %v", r.Rows)
	}
	// HAVING mixing aggregates with group keys and arithmetic.
	r = mustExec(t, e, `SELECT grp FROM t GROUP BY grp HAVING AVG(n) * 2 > 20 AND grp <> 'c'`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "b" {
		t.Errorf("HAVING mixed = %v", r.Rows)
	}
	// HAVING without GROUP BY is rejected.
	if _, err := e.Exec(`SELECT COUNT(*) FROM t HAVING COUNT(*) > 1`); err == nil {
		t.Error("HAVING without GROUP BY accepted")
	}
}
