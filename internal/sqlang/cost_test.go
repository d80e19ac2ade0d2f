package sqlang

import (
	"fmt"
	"strings"
	"testing"
)

// setupJoinTables builds a small star fixture: `parent` with nParents rows
// (id, organism) and `child` with nChildren rows (cid, fk, score) whose fk
// values cycle over the parents.
func setupJoinTables(t testing.TB, e *Engine, nParents, nChildren int) {
	t.Helper()
	mustExec(t, e, `CREATE TABLE parent (id string NOT NULL, organism string)`)
	mustExec(t, e, `CREATE TABLE child (cid string NOT NULL, fk string, score float)`)
	for i := 0; i < nParents; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO parent VALUES ('P%03d', 'org%d')`, i, i%3))
	}
	for i := 0; i < nChildren; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO child VALUES ('C%04d', 'P%03d', %0.2f)`,
			i, i%nParents, float64(i%100)/100))
	}
}

// TestExplainRejectedPlans: when an index wins, EXPLAIN must show the
// chosen plan's total cost and the rejected full scan with its cost, so
// plan choices are auditable.
func TestExplainRejectedPlans(t *testing.T) {
	e := testEngine(t)
	setupFragments(t, e, 50)
	mustExec(t, e, `CREATE INDEX ON DNAFragments (id)`)
	r := mustExec(t, e, `EXPLAIN SELECT * FROM DNAFragments WHERE id = 'F0007'`)
	if !strings.Contains(r.Plan(), "access: index eq DNAFragments.id") {
		t.Fatalf("index path not chosen:\n%s", r.Plan())
	}
	if !strings.Contains(r.Plan(), "plan cost: ") {
		t.Errorf("plan missing chosen cost:\n%s", r.Plan())
	}
	if !strings.Contains(r.Plan(), "rejected plan: scan DNAFragments (cost=") {
		t.Errorf("plan missing rejected scan alternative:\n%s", r.Plan())
	}
}

// TestCostBasedAccessPrefersScanOnTinyTable: on a table small enough that
// the index descent charge exceeds the whole scan, the cost model keeps the
// scan even though an index matches — the first-match heuristic it replaced
// would have taken the index unconditionally.
func TestCostBasedAccessPrefersScanOnTinyTable(t *testing.T) {
	e := testEngine(t)
	mustExec(t, e, `CREATE TABLE tiny (id string NOT NULL, v float)`)
	for i := 0; i < 3; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO tiny VALUES ('T%d', %d.0)`, i, i))
	}
	mustExec(t, e, `CREATE INDEX ON tiny (id)`)
	r := mustExec(t, e, `EXPLAIN SELECT v FROM tiny WHERE id = 'T1'`)
	if !strings.Contains(r.Plan(), "access: scan tiny") {
		t.Fatalf("3-row table should scan, not seek:\n%s", r.Plan())
	}
	if !strings.Contains(r.Plan(), "rejected plan: index eq tiny.id (cost=") {
		t.Errorf("rejected index path not reported:\n%s", r.Plan())
	}
	got := mustExec(t, e, `SELECT v FROM tiny WHERE id = 'T1'`)
	if len(got.Rows) != 1 || got.Rows[0][0] != 1.0 {
		t.Fatalf("rows = %v", got.Rows)
	}
}

// TestJoinReorderSmallestDriver: the planner must drive the join from the
// smallest-estimated table regardless of declared order, and EXPLAIN must
// report the rejected declared order with its cost.
func TestJoinReorderSmallestDriver(t *testing.T) {
	e := testEngine(t)
	setupJoinTables(t, e, 5, 200)
	r := mustExec(t, e, `EXPLAIN SELECT parent.organism, child.cid FROM child JOIN parent ON child.fk = parent.id`)
	if !strings.Contains(r.Plan(), "access: scan parent") {
		t.Fatalf("driver should be the 5-row parent, not the 200-row child:\n%s", r.Plan())
	}
	if !strings.Contains(r.Plan(), "hash join: child on (child.fk = parent.id)") {
		t.Fatalf("equi-join should hash-join child:\n%s", r.Plan())
	}
	if !strings.Contains(r.Plan(), "rejected plan: join order child, parent (cost=") {
		t.Errorf("declared join order not reported as rejected:\n%s", r.Plan())
	}
}

// TestJoinReorderPinnedUnderStats pins the chosen plan under fixed ANALYZE
// statistics: a regression guard for the greedy join order.
func TestJoinReorderPinnedUnderStats(t *testing.T) {
	e := testEngine(t)
	setupJoinTables(t, e, 8, 120)
	mustExec(t, e, `ANALYZE parent`)
	mustExec(t, e, `ANALYZE child`)
	r := mustExec(t, e, `EXPLAIN SELECT parent.organism, COUNT(*) FROM child JOIN parent ON child.fk = parent.id WHERE child.score < 0.5 GROUP BY parent.organism`)
	for _, want := range []string{
		"access: scan parent",
		"hash join: child on (child.fk = parent.id)",
		"[push (child.score < 0.5)",
		"plan cost: ",
	} {
		if !strings.Contains(r.Plan(), want) {
			t.Errorf("plan missing %q:\n%s", want, r.Plan())
		}
	}
}

// TestNonEquiJoinStaysNestedLoop: a join with only an inequality condition
// has no hash key, so the planner must keep a nested loop (materialized,
// with the condition evaluated after the step).
func TestNonEquiJoinStaysNestedLoop(t *testing.T) {
	e := testEngine(t)
	setupJoinTables(t, e, 4, 12)
	r := mustExec(t, e, `EXPLAIN SELECT child.cid FROM child, parent WHERE child.fk > parent.id`)
	if !strings.Contains(r.Plan(), "nested-loop join:") {
		t.Fatalf("non-equi join should stay a nested loop:\n%s", r.Plan())
	}
	if strings.Contains(r.Plan(), "hash join:") {
		t.Fatalf("no hash join possible here:\n%s", r.Plan())
	}
}

// TestJoinEstConvergesAfterAnalyze is the golden test for the equi-join
// cardinality fix: before ANALYZE the estimate uses the static default
// selectivity; after ANALYZE the 1/distinct formula must land exactly on
// the actual joined row count.
func TestJoinEstConvergesAfterAnalyze(t *testing.T) {
	e := testEngine(t)
	setupJoinTables(t, e, 20, 100) // fk uniform over 20 parents → 100 joined rows
	q := `EXPLAIN ANALYZE SELECT COUNT(*) FROM child JOIN parent ON child.fk = parent.id`

	r := mustExec(t, e, q)
	plan := r.Rows[0][0].(string)
	// Without stats: est = 20 × 100 × defaultEqJoinSel (0.1) = 200.
	if !strings.Contains(plan, "(est=200)") || !strings.Contains(plan, "(act=100 ") {
		t.Errorf("pre-ANALYZE join line should estimate 200 vs actual 100:\n%s", plan)
	}

	mustExec(t, e, `ANALYZE parent`)
	mustExec(t, e, `ANALYZE child`)
	r = mustExec(t, e, q)
	plan = r.Rows[0][0].(string)
	// With stats: est = 20 × 100 / max(d_fk=20, d_id=20) = 100 = actual.
	if !strings.Contains(plan, "(est=100)") || !strings.Contains(plan, "(act=100 ") {
		t.Errorf("post-ANALYZE join estimate should converge to actual 100:\n%s", plan)
	}
}

// TestParallelScanMinRowsKnob covers the threshold knob: small tables stay
// serial at the default, parallelize when the knob drops below their size,
// and stay serial when it is raised above a large table's size.
func TestParallelScanMinRowsKnob(t *testing.T) {
	build := func(n int) *Engine {
		e := testEngine(t)
		e.Workers = 4
		setupFragments(t, e, n)
		return e
	}
	q := `EXPLAIN SELECT id FROM DNAFragments WHERE quality < 0.5`

	small := build(20)
	if p := mustExec(t, small, q).Plan(); strings.Contains(p, "parallel scan") {
		t.Fatalf("small table must stay serial at the default threshold:\n%s", p)
	}
	small.ParallelScanMinRows = 10
	if p := mustExec(t, small, q).Plan(); !strings.Contains(p, "parallel scan: 4 workers") {
		t.Fatalf("knob at 10 rows should parallelize the 20-row table:\n%s", p)
	}

	big := build(600)
	big.ParallelScanMinRows = 10000
	if p := mustExec(t, big, q).Plan(); strings.Contains(p, "parallel scan") {
		t.Fatalf("knob above table size must stay serial:\n%s", p)
	}
}
