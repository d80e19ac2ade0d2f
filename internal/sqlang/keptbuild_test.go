package sqlang

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"genalg/internal/db"
	"genalg/internal/obs"
)

// keptEngine is a test engine with its own registry over parent and
// child (see setupJoinTables).
func keptEngine(t *testing.T, nChildren int) *Engine {
	t.Helper()
	e := testEngine(t)
	e.Obs = obs.New()
	setupJoinTables(t, e, 6, nChildren)
	return e
}

// buildCounts reads the engine's join build counters.
func buildCounts(e *Engine) (builds, reused int64) {
	return e.Obs.Counter("sqlang.join.builds").Value(), e.Obs.Counter("sqlang.join.builds_reused").Value()
}

// coldResult runs sql on the uncached path.
func coldResult(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.ExecStmtSQLCtx(context.Background(), stmt, sql)
	if err != nil {
		t.Fatalf("cold %s: %v", sql, err)
	}
	return r
}

// requirePlan fails unless EXPLAIN of sql shows every want line prefix,
// so a test's join keeps the shape it was written for.
func requirePlan(t *testing.T, e *Engine, sql string, want ...string) {
	t.Helper()
	plan := mustExec(t, e, "EXPLAIN "+sql).Plan()
	for _, w := range want {
		if !strings.Contains(plan, "\n"+w) && !strings.HasPrefix(plan, w) {
			t.Fatalf("plan of %s lacks %q:\n%s", sql, w, plan)
		}
	}
}

// keptRows reads the engine's kept-build budget in use.
func keptRows(e *Engine) int {
	e.plans.mu.Lock()
	defer e.plans.mu.Unlock()
	return e.plans.keptRows
}

// TestKeptBuildReusedAndInvalidated runs a hash join and a nested loop
// whose build side (child) reads no literal: the first execution builds,
// the next reuses, and after each kind of change to child the next warm
// execution builds afresh and equals cold execution.
func TestKeptBuildReusedAndInvalidated(t *testing.T) {
	e := keptEngine(t, 120)
	d := e.DB
	queries := []struct {
		sql  string
		lits []string
		plan []string
	}{
		{`SELECT parent.organism, child.cid, child.score FROM child JOIN parent ON child.fk = parent.id WHERE parent.organism <> '%s'`,
			[]string{"org1", "org2", "org0", "none"},
			[]string{"access: scan parent", "hash join: child on"}},
		{`SELECT parent.id, child.cid FROM parent, child WHERE parent.id = '%s'`,
			[]string{"P001", "P002", "P003", "P004"},
			[]string{"access: scan parent", "nested-loop join: child"}},
	}
	n := 0
	mutations := []struct {
		name string
		fn   func()
	}{
		{"insert", func() {
			n++
			mustExec(t, e, fmt.Sprintf(`INSERT INTO child VALUES ('X%03d', 'P002', 0.5)`, n))
		}},
		{"delete", func() { mustExec(t, e, `DELETE FROM child WHERE score < 0.1`) }},
		{"update", func() { mustExec(t, e, `UPDATE child SET fk = 'P001' WHERE score > 0.8`) }},
		{"drop and create", func() {
			if err := d.DropTable("child"); err != nil {
				t.Fatal(err)
			}
			mustExec(t, e, `CREATE TABLE child (cid string NOT NULL, fk string, score float)`)
			for i := 0; i < 100; i++ {
				mustExec(t, e, fmt.Sprintf(`INSERT INTO child VALUES ('D%03d', 'P%03d', %0.2f)`, i, i%4, float64(i%10)/10))
			}
		}},
		{"analyze", func() { mustExec(t, e, `ANALYZE child`) }},
	}
	// run executes q warm with literal lit, checks it against cold, and
	// checks how the counters moved on the warm execution.
	run := func(step, q, lit string, wantBuilds, wantReused int64) {
		t.Helper()
		sql := fmt.Sprintf(q, lit)
		b0, r0 := buildCounts(e)
		warm := mustExec(t, e, sql)
		b1, r1 := buildCounts(e)
		if b1-b0 != wantBuilds || r1-r0 != wantReused {
			t.Fatalf("%s: %s made %d builds and %d reuses, want %d and %d", step, sql, b1-b0, r1-r0, wantBuilds, wantReused)
		}
		cold := coldResult(t, e, sql)
		if !reflect.DeepEqual(warm.Cols, cold.Cols) || !reflect.DeepEqual(warm.Rows, cold.Rows) || warm.Plan() != cold.Plan() {
			t.Fatalf("%s: %s differs from cold:\nwarm %v\n%s\ncold %v\n%s", step, sql, warm.Rows, warm.Plan(), cold.Rows, cold.Plan())
		}
	}
	for _, q := range queries {
		requirePlan(t, e, fmt.Sprintf(q.sql, q.lits[0]), q.plan...)
		lits := q.lits
		run("first execution", q.sql, lits[0], 1, 0)
		run("second execution", q.sql, lits[1], 0, 1)
		for _, m := range mutations {
			m.fn()
			run("after "+m.name, q.sql, lits[2], 1, 0)
			run("again after "+m.name, q.sql, lits[3], 0, 1)
		}
	}
}

// TestKeptBuildChecksItsTable writes the build table and then runs the
// cached template directly, past the staleness check its lookup makes:
// the kept build's own change counter must keep it from being probed.
func TestKeptBuildChecksItsTable(t *testing.T) {
	e := keptEngine(t, 60)
	const sql = `SELECT child.cid FROM child JOIN parent ON child.fk = parent.id WHERE parent.organism = 'org2'`
	mustExec(t, e, sql)
	key, vals, _ := templateKey(sql)
	e.plans.mu.Lock()
	tmpl := e.plans.entries[string(key)].Value.(*selectTemplate)
	e.plans.mu.Unlock()
	if tmpl.bs.kept == nil || tmpl.bs.kept[0] == nil || tmpl.bs.kept[0].b.Load() == nil {
		t.Fatal("the first execution kept no build")
	}
	mustExec(t, e, `INSERT INTO child VALUES ('Y1', 'P002', 0.5)`)
	b0, r0 := buildCounts(e)
	warm, err := e.execTemplate(context.Background(), tmpl, sql, vals)
	if err != nil {
		t.Fatal(err)
	}
	if b, r := buildCounts(e); b-b0 != 1 || r != r0 {
		t.Fatalf("a stale kept build was probed: %d builds, %d reuses", b-b0, r-r0)
	}
	if cold := coldResult(t, e, sql); !reflect.DeepEqual(warm.Rows, cold.Rows) {
		t.Fatalf("template after a write: %v, cold %v", warm.Rows, cold.Rows)
	}
}

// TestKeptBuildConcurrent runs one template from 8 goroutines at once.
// Its first execution reaches no join, so the goroutines race for the
// build: exactly one builds, every other execution reuses, and every
// result equals cold execution. Run it under -race.
func TestKeptBuildConcurrent(t *testing.T) {
	e := keptEngine(t, 300)
	const q = `SELECT child.cid, parent.organism FROM child JOIN parent ON child.fk = parent.id WHERE parent.organism = '%s'`
	requirePlan(t, e, fmt.Sprintf(q, "org0"), "access: scan parent", "hash join: child on")
	lits := []string{"org0", "org1", "org2"}
	want := map[string][]db.Row{}
	for _, lit := range lits {
		want[lit] = coldResult(t, e, fmt.Sprintf(q, lit)).Rows
	}
	if r := mustExec(t, e, fmt.Sprintf(q, "none")); len(r.Rows) != 0 {
		t.Fatalf("no parent matches, yet %d rows", len(r.Rows))
	}
	b0, r0 := buildCounts(e)
	const goroutines, each = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lit := lits[(g+i)%len(lits)]
				r, err := e.Exec(fmt.Sprintf(q, lit))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(r.Rows, want[lit]) {
					t.Errorf("goroutine %d, %s: %d rows differ from cold's %d", g, lit, len(r.Rows), len(want[lit]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b, r := buildCounts(e)
	if b-b0 != 1 || r-r0 != goroutines*each-1 {
		t.Fatalf("%d executions made %d builds and %d reuses, want 1 and %d", goroutines*each, b-b0, r-r0, goroutines*each-1)
	}
}

// TestKeptBuildBudget: a build side over maxKeptBuildRows is built by
// every execution and kept by none, with results unchanged; a kept build
// returns its rows to the budget when its template is evicted.
func TestKeptBuildBudget(t *testing.T) {
	e := keptEngine(t, 30)
	d := e.DB
	mustExec(t, e, `CREATE TABLE big (k int)`)
	muts := make([]db.Mutation, maxKeptBuildRows+1)
	for i := range muts {
		muts[i] = db.Mutation{Kind: db.MutInsert, Row: db.Row{int64(i % 1000)}}
	}
	if err := d.ApplyDML("big", muts); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, `CREATE TABLE small (k int, v string)`)
	mustExec(t, e, `INSERT INTO small VALUES (3, 'a'), (500, 'b'), (7, 'a')`)
	const over = `SELECT small.k, big.k FROM small JOIN big ON small.k = big.k WHERE small.v = '%s'`
	requirePlan(t, e, fmt.Sprintf(over, "a"), "access: scan small", "hash join: big on")
	for i, lit := range []string{"a", "b", "a"} {
		sql := fmt.Sprintf(over, lit)
		b0, r0 := buildCounts(e)
		warm := mustExec(t, e, sql)
		if b, r := buildCounts(e); b-b0 != 1 || r != r0 {
			t.Fatalf("execution %d over the budget: %d builds, %d reuses; want 1, 0", i, b-b0, r-r0)
		}
		if cold := coldResult(t, e, sql); !reflect.DeepEqual(warm.Rows, cold.Rows) || len(warm.Rows) == 0 {
			t.Fatalf("execution %d over the budget: %d rows, cold %d", i, len(warm.Rows), len(cold.Rows))
		}
		if n := keptRows(e); n != 0 {
			t.Fatalf("a build over the budget holds %d rows of it", n)
		}
	}

	const kept = `SELECT child.cid FROM child JOIN parent ON child.fk = parent.id WHERE parent.organism = '%s'`
	mustExec(t, e, fmt.Sprintf(kept, "org1"))
	if n := keptRows(e); n != 30 {
		t.Fatalf("kept build holds %d rows of the budget, want 30", n)
	}
	for i := 0; i < planCacheSize; i++ {
		mustExec(t, e, fmt.Sprintf(`SELECT k FROM small WHERE k > %d -- shape %d`, i, i))
	}
	if n := keptRows(e); n != 0 {
		t.Fatalf("after evicting every join template the budget holds %d rows", n)
	}
	if ev := e.Obs.Counter("sqlang.plan_cache.evictions").Value(); ev < 2 {
		t.Fatalf("%d evictions: the join templates were not evicted", ev)
	}
}
