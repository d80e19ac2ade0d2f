package sqlang_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"genalg/internal/db"
	"genalg/internal/obs"
	"genalg/internal/parallel"
	"genalg/internal/sqlang"
	"genalg/internal/sqlang/regress"
	"genalg/internal/storage"
)

// outcome renders everything a statement returns, exactly: the error
// text, or the columns, every value in Go syntax, the affected count and
// the rendered plan.
func outcome(res *sqlang.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cols %q affected %d\n", res.Cols, res.Affected)
	for _, row := range res.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%#v|", v)
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(res.Plan())
	return sb.String()
}

// cold runs sql on the engine's uncached path.
func cold(e *sqlang.Engine, sql string) (*sqlang.Result, error) {
	stmt, err := sqlang.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmtSQLCtx(context.Background(), stmt, sql)
}

// checkWarmCold runs sql through the plan cache and through cold planning
// and requires identical outcomes.
func checkWarmCold(t *testing.T, e *sqlang.Engine, sql string) {
	t.Helper()
	warm := outcome(e.Exec(sql))
	if c := outcome(cold(e, sql)); warm != c {
		t.Fatalf("cached and cold execution differ on %s\n--- cached\n%s\n--- cold\n%s", sql, warm, c)
	}
}

// literalPools collects the corpus's literal texts by kind (i, f, s) and
// adds edge cases: an overflowing integer, fractional and integral floats
// against int indexes, a pattern shorter than the fixture's k-mer word,
// the empty string and an escaped quote.
func literalPools(corpus []regress.CorpusFile) map[byte][]string {
	pools := map[byte][]string{
		'i': {"0", "1", "7", "42", "9223372036854775807", "9223372036854775808"},
		'f': {"2.0", "2.5", "0.5", "7.0", "0.0", "1e300"},
		's': {"'AC'", "''", "'it''s'", "'ACGTACGT'", "'F042'", "'G3'"},
	}
	for _, cf := range corpus {
		for _, sql := range cf.Stmts {
			for _, sp := range sqlang.LiteralSpans(sql) {
				text := sql[sp[0]:sp[1]]
				pools[kindOf(text)] = append(pools[kindOf(text)], text)
			}
		}
	}
	return pools
}

func kindOf(lit string) byte {
	switch {
	case lit[0] == '\'' || lit[0] == '"':
		return 's'
	case strings.ContainsAny(lit, ".eE"):
		return 'f'
	}
	return 'i'
}

// redraw replaces each literal of sql with one drawn from the pools:
// mostly of the same kind (same cache key), sometimes a number of the
// other kind.
func redraw(sql string, pools map[byte][]string, rng *rand.Rand) string {
	spans := sqlang.LiteralSpans(sql)
	var sb strings.Builder
	last := 0
	for _, sp := range spans {
		sb.WriteString(sql[last:sp[0]])
		kind := kindOf(sql[sp[0]:sp[1]])
		if kind != 's' && rng.Intn(4) == 0 {
			kind = 'i' + 'f' - kind
		}
		pool := pools[kind]
		sb.WriteString(pool[rng.Intn(len(pool))])
		last = sp[1]
	}
	sb.WriteString(sql[last:])
	return sb.String()
}

// selectOf returns the SELECT a corpus statement runs or explains, or ""
// for any other statement.
func selectOf(sql string) string {
	stmt, err := sqlang.Parse(sql)
	if err != nil {
		return ""
	}
	s, ok := stmt.(*sqlang.SelectStmt)
	if !ok || s.Analyze {
		return ""
	}
	if s.Explain {
		return strings.TrimSpace(sql[len("EXPLAIN"):])
	}
	return sql
}

// mutation is one change to a planner input, applied between executions;
// n counts the mutations made so far.
type mutation func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int)

var mutations = []struct {
	name string
	fn   mutation
}{
	{"insert", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		tbl, _ := d.Table(table)
		var row db.Row
		if err := tbl.Scan(nil, func(_ storage.RID, r db.Row) bool { row = r; return false }); err != nil {
			t.Fatal(err)
		}
		if row != nil {
			if err := d.ApplyDML(table, []db.Mutation{{Kind: db.MutInsert, Row: row}}); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"delete", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		tbl, _ := d.Table(table)
		var rids []storage.RID
		if err := tbl.Scan(nil, func(rid storage.RID, _ db.Row) bool { rids = append(rids, rid); return len(rids) < 3 }); err != nil {
			t.Fatal(err)
		}
		muts := make([]db.Mutation, len(rids))
		for i, rid := range rids {
			muts[i] = db.Mutation{Kind: db.MutDelete, RID: rid}
		}
		if err := d.ApplyDML(table, muts); err != nil {
			t.Fatal(err)
		}
	}},
	{"create index", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		tbl, _ := d.Table(table)
		for _, c := range tbl.Schema().Columns {
			if c.Type != db.TOpaque && c.Type != db.TBytes && !tbl.HasBTreeIndex(c.Name) {
				if _, err := e.Exec(fmt.Sprintf("CREATE INDEX ON %s (%s)", table, c.Name)); err != nil {
					t.Fatal(err)
				}
				return
			}
		}
	}},
	{"analyze", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		if _, err := e.Exec("ANALYZE " + table); err != nil {
			t.Fatal(err)
		}
	}},
	{"drop and recreate", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		// The new table holds the old rows in reverse order.
		old, _ := d.Table(table)
		schema := old.Schema()
		var muts []db.Mutation
		if err := old.Scan(nil, func(_ storage.RID, r db.Row) bool {
			muts = append([]db.Mutation{{Kind: db.MutInsert, Row: r}}, muts...)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.DropTable(table); err != nil {
			t.Fatal(err)
		}
		if _, err := d.CreateTable(schema); err != nil {
			t.Fatal(err)
		}
		if err := d.ApplyDML(table, muts); err != nil {
			t.Fatal(err)
		}
		for _, c := range schema.Columns {
			switch {
			case old.HasBTreeIndex(c.Name):
				if err := d.CreateBTreeIndexOn(table, c.Name); err != nil {
					t.Fatal(err)
				}
			case old.HasGenomicIndex(c.Name):
				if err := d.CreateGenomicIndexOn(table, c.Name, 8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}},
	{"replace function", func(t *testing.T, e *sqlang.Engine, d *db.DB, table string, n int) {
		for _, name := range []string{"contains", "gccontent", "length"} {
			fn, ok := d.Funcs.Get(name)
			if !ok {
				t.Fatalf("function %s not installed", name)
			}
			fn.Cost = float64(1 + n%5)
			fn.Selectivity = 0.1 + float64(n%4)*0.2
			if err := d.Funcs.Register(fn); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

// TestPlanCacheWarmEqualsCold executes every corpus SELECT (and the SELECT
// under every corpus EXPLAIN) with its literals re-drawn, through the
// plan cache and cold, and requires byte-identical results, errors and
// rendered plans. Between executions it inserts and deletes rows of a
// table the statement reads, builds an index on it, re-analyzes it, drops
// and recreates it, and replaces external functions, each of which a
// cached plan must notice.
func TestPlanCacheWarmEqualsCold(t *testing.T) {
	corpus, err := regress.LoadCorpus(filepath.Join("regress", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	pools := literalPools(corpus)
	rng := rand.New(rand.NewSource(1))
	var hits, invalidations int64
	nmut := 0
	for _, cf := range corpus {
		d, err := regress.NewDB()
		if err != nil {
			t.Fatal(err)
		}
		e := regress.BaselineEngine(d)
		for _, sql := range cf.FixtureStatements() {
			if _, err := e.Exec(sql); err != nil {
				t.Fatalf("fixture %q: %v", sql, err)
			}
		}
		for _, sql := range cf.Stmts {
			sel := selectOf(sql)
			if sel == "" {
				// DDL and DML move the file's state forward.
				_, _ = e.Exec(sql)
				continue
			}
			if sel != sql {
				checkWarmCold(t, e, sql)
			}
			stmt, _ := sqlang.Parse(sel)
			var tables []string
			for _, tr := range stmt.(*sqlang.SelectStmt).From {
				tables = append(tables, tr.Name)
			}
			for _, j := range stmt.(*sqlang.SelectStmt).Joins {
				tables = append(tables, j.Table.Name)
			}
			checkWarmCold(t, e, sel)
			checkWarmCold(t, e, sel)
			for _, m := range mutations {
				if table := tables[nmut%len(tables)]; slices.Contains(d.Tables(), table) {
					m.fn(t, e, d, table, nmut)
				}
				nmut++
				for round := 0; round < 2; round++ {
					q := redraw(sel, pools, rng)
					checkWarmCold(t, e, q)
					checkWarmCold(t, e, q)
				}
			}
		}
		hits += e.Obs.Counter("sqlang.plan_cache.hits").Value()
		invalidations += e.Obs.Counter("sqlang.plan_cache.invalidations").Value()
		d.Close()
	}
	if hits == 0 || invalidations == 0 {
		t.Fatalf("plan cache hits = %d, invalidations = %d: the warm path went unexercised", hits, invalidations)
	}
	t.Logf("%d plan-cache hits, %d invalidations, %d mutations", hits, invalidations, nmut)
}

// TestPlanCacheShapeChanges walks the literal values that change a plan's
// shape under one cache key: a float equal to an int index key (2.0) and
// one that is not (2.5), and a k-mer pattern shorter than the index word.
// The last steps pair a lookup with a column that does not resolve, whose
// selectivity scales the lookup's row count into the filter estimate.
// Each execution must equal cold planning; the values that reshape the
// plan are planned cold, and the template serves the next fitting value.
func TestPlanCacheShapeChanges(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	for _, sql := range regress.FixtureSQL() {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		sql string
		hit bool
	}{
		{`SELECT grp_info.label FROM grp_info WHERE grp_info.grp = 2.0`, false},
		{`SELECT grp_info.label FROM grp_info WHERE grp_info.grp = 3.0`, true},
		{`SELECT grp_info.label FROM grp_info WHERE grp_info.grp = 2.5`, false},
		{`SELECT grp_info.label FROM grp_info WHERE grp_info.grp = 4.0`, true},
		{`SELECT id FROM frags WHERE contains(fragment, 'ACGTACGT')`, false},
		{`SELECT id FROM frags WHERE contains(fragment, 'ACG')`, false},
		{`SELECT id FROM frags WHERE contains(fragment, 'TTGGCCAA')`, true},
		{`SELECT id FROM frags WHERE contains(fragment, 'ACGTACGT') AND NOT (quality IS NULL)`, false},
		{`SELECT id FROM frags WHERE contains(fragment, 'AAAAAAAA') AND NOT (quality IS NULL)`, true},
		{`SELECT reads.rid FROM reads WHERE reads.rid = 9223372036854775807`, false},
		{`SELECT reads.rid FROM reads WHERE reads.rid = 9223372036854775808`, false},
		{`SELECT reads.rid FROM reads WHERE reads.rid = 7`, true},
		{`SELECT id FROM frags WHERE id = 'F001' AND quality > 0.9 AND nosuch = 1`, false},
		{`SELECT id FROM frags WHERE id = 'F0' AND quality > 0.9 AND nosuch = 1`, true},
		{`SELECT id FROM frags WHERE contains(fragment, 'ACGTACGT') AND nosuch > 1`, false},
		{`SELECT id FROM frags WHERE contains(fragment, 'TTTTTTTTTT') AND nosuch > 1`, true},
	}
	hits := e.Obs.Counter("sqlang.plan_cache.hits")
	for _, st := range steps {
		before := hits.Value()
		checkWarmCold(t, e, st.sql)
		if hit := hits.Value() > before; hit != st.hit {
			t.Errorf("%s: cache hit = %v, want %v", st.sql, hit, st.hit)
		}
	}
}

// TestPlanCacheSkipsLongStatements runs a SELECT padded past the longest
// text the cache keeps a template for: it executes as cold planning does,
// and never enters the cache.
func TestPlanCacheSkipsLongStatements(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	for _, sql := range regress.FixtureSQL() {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	hits := e.Obs.Counter("sqlang.plan_cache.hits")
	misses := e.Obs.Counter("sqlang.plan_cache.misses")
	const query = `SELECT id, quality FROM frags WHERE id = '%s' -- `
	short := query + strings.Repeat("x", sqlang.MaxTemplateText-len(query)-2)
	long := query + strings.Repeat("x", sqlang.MaxTemplateText)
	for _, id := range []string{"F001", "F002", "F003"} {
		checkWarmCold(t, e, fmt.Sprintf(long, id))
	}
	if h, m := hits.Value(), misses.Value(); h != 0 || m != 0 {
		t.Fatalf("an over-long SELECT reached the cache: %d hits, %d misses", h, m)
	}
	for _, id := range []string{"F001", "F002"} {
		checkWarmCold(t, e, fmt.Sprintf(short, id))
	}
	if h := hits.Value(); h != 1 {
		t.Fatalf("a SELECT within the bound made %d hits, want 1", h)
	}
}

// TestPlanCacheChurnMarker writes a table between every read of one
// SELECT shape: after the first template goes stale unused, those reads
// are planned cold and nothing is cached, until the writes stop. A
// template that served a hit is re-planned into the cache after a write.
func TestPlanCacheChurnMarker(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	if _, err := e.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	hits := e.Obs.Counter("sqlang.plan_cache.hits")
	invalidations := e.Obs.Counter("sqlang.plan_cache.invalidations")
	n := 0
	write := func() {
		n++
		if _, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, n)); err != nil {
			t.Fatal(err)
		}
	}
	read := func() { checkWarmCold(t, e, fmt.Sprintf(`SELECT a FROM t WHERE a > %d`, n/2)) }
	want := func(step string, h, inv int64) {
		t.Helper()
		if hits.Value() != h || invalidations.Value() != inv {
			t.Fatalf("%s: %d hits, %d invalidations; want %d, %d", step, hits.Value(), invalidations.Value(), h, inv)
		}
	}
	for i := 0; i < 5; i++ {
		write()
		read()
	}
	want("a write before every read", 0, 1)
	read()
	read()
	want("reads after the writes stop", 1, 1)
	write()
	read()
	read()
	want("a write after a hit", 2, 2)
}

// TestPlanCacheSeesRecreatedTable drops and recreates a table so that its
// change counter matches the old one's: the cached plan must still read
// the new table.
func TestPlanCacheSeesRecreatedTable(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	for _, sql := range []string{`CREATE TABLE t (a int)`, `INSERT INTO t VALUES (1), (2), (3)`} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	checkWarmCold(t, e, `SELECT a FROM t WHERE a > 0`)
	if err := d.DropTable("t"); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{`CREATE TABLE t (a int)`, `INSERT INTO t VALUES (4), (5), (6)`} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	checkWarmCold(t, e, `SELECT a FROM t WHERE a > 1`)
	if r, err := e.Exec(`SELECT a FROM t WHERE a > 2`); err != nil || len(r.Rows) != 3 || r.Rows[0][0] != int64(4) {
		t.Fatalf("after recreating t: %v, %v", r, err)
	}
}

// TestPlanCacheSeesWorkerChange changes the process-wide worker bound an
// engine with Workers unset plans its scan parallelism from.
func TestPlanCacheSeesWorkerChange(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := sqlang.NewEngine(d)
	e.Obs = obs.New()
	e.ParallelScanMinRows = 1
	for _, sql := range []string{`CREATE TABLE t (a int)`, `INSERT INTO t VALUES (1), (2), (3)`} {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	defer parallel.SetWorkers(0)
	for _, w := range []int{1, 4, 1} {
		parallel.SetWorkers(w)
		checkWarmCold(t, e, `SELECT a FROM t WHERE a > 1`)
	}
}

// TestPlanCacheConcurrentLiterals runs three templates from 8 goroutines
// at once, each execution with its own literals, against answers computed
// cold beforehand: a point lookup, a k-mer search and a filter whose
// literal the executor evaluates. Run it under -race.
func TestPlanCacheConcurrentLiterals(t *testing.T) {
	d, err := regress.NewDB()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	for _, sql := range regress.FixtureSQL() {
		if _, err := e.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	var queries []string
	for i := 0; i < 24; i++ {
		queries = append(queries,
			fmt.Sprintf(`SELECT id, src, quality FROM frags WHERE id = 'F%03d'`, i*4),
			fmt.Sprintf(`SELECT id FROM frags WHERE contains(fragment, '%s')`, []string{"ACGTACGT", "AACCGGTT", "TTTTGGGG", "ACG"}[i%4]),
			fmt.Sprintf(`SELECT frags.id, frags.quality FROM frags WHERE frags.quality > %d.%d`, i%2, i))
	}
	want := make(map[string]string, len(queries))
	for _, q := range queries {
		want[q] = outcome(cold(e, q))
	}
	// A writer keeps a fourth table changing under its own template, so
	// stale templates and churn markers are replaced while others hit.
	if _, err := e.Exec(`CREATE TABLE churn (a int)`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(queries); i++ {
			if _, err := e.Exec(fmt.Sprintf(`INSERT INTO churn VALUES (%d)`, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(queries); i++ {
				q := queries[(g*7+i)%len(queries)]
				if got := outcome(e.Exec(q)); got != want[q] {
					t.Errorf("goroutine %d: %s\n--- cached\n%s\n--- cold\n%s", g, q, got, want[q])
					return
				}
				if r, err := e.Exec(fmt.Sprintf(`SELECT COUNT(*) FROM churn WHERE a >= %d`, i%5)); err != nil || len(r.Rows) != 1 {
					t.Errorf("goroutine %d: count over the written table: %v, %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Obs.Counter("sqlang.plan_cache.hits").Value() == 0 {
		t.Fatal("no execution ran on a cached plan")
	}
}

// FuzzPlanCache executes fuzzed SELECTs over the standard fixture through
// the plan cache and cold, then again with the literals re-drawn (the same
// cache key), and requires identical outcomes. It also requires the cache
// key to read exactly the literals the parser numbers.
func FuzzPlanCache(f *testing.F) {
	corpus, err := regress.LoadCorpus(filepath.Join("regress", "testdata", "corpus"))
	if err != nil {
		f.Fatal(err)
	}
	for _, cf := range corpus {
		for _, sql := range cf.Stmts {
			if sel := selectOf(sql); sel != "" {
				f.Add(sel, int64(len(sel)))
			}
		}
	}
	d, err := regress.NewDB()
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	e := regress.BaselineEngine(d)
	for _, sql := range regress.FixtureSQL() {
		if _, err := e.Exec(sql); err != nil {
			f.Fatal(err)
		}
	}
	pools := literalPools(corpus)
	f.Fuzz(func(t *testing.T, sql string, seed int64) {
		stmt, err := sqlang.Parse(sql)
		if err != nil {
			return
		}
		s, ok := stmt.(*sqlang.SelectStmt)
		// Reads only, so the fixture never changes, and at most two tables,
		// so no input builds a huge cross product.
		if !ok || s.Explain || len(s.From)+len(s.Joins) > 2 {
			return
		}
		if !sqlang.KeyMatchesParse(sql) {
			t.Fatalf("cache key and parser disagree on the literals of %q", sql)
		}
		checkWarmCold(t, e, sql)
		checkWarmCold(t, e, redraw(sql, pools, rand.New(rand.NewSource(seed))))
	})
}
