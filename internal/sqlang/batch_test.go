package sqlang

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"genalg/internal/db"
	"genalg/internal/obs"
	"genalg/internal/trace"
)

// TestBatchedMatchesRowAtATime is the differential guard for batched
// execution: for every query in the corpus, results at the default batch
// size and at an awkward small size must be bit-identical to BatchSize=1,
// which degenerates to row-at-a-time execution. Run under -race this also
// exercises the parallel batched scan path (600 rows > threshold).
func TestBatchedMatchesRowAtATime(t *testing.T) {
	queries := []string{
		`SELECT id, quality FROM DNAFragments WHERE quality < 0.4`,
		`SELECT id FROM DNAFragments WHERE gccontent(fragment) > 0.5 AND quality < 0.9`,
		`SELECT id, source FROM DNAFragments WHERE contains(fragment, 'ACGTA')`,
		`SELECT id FROM DNAFragments`,
		`SELECT source, COUNT(*), AVG(quality) FROM DNAFragments GROUP BY source`,
		`SELECT id, seqlength(fragment) AS n FROM DNAFragments WHERE quality > 0.2 ORDER BY n DESC, id LIMIT 17`,
		`SELECT DISTINCT source FROM DNAFragments WHERE quality >= 0.5`,
		`SELECT parent.organism, child.cid FROM child JOIN parent ON child.fk = parent.id WHERE child.score < 0.7`,
		`SELECT parent.organism, COUNT(*) AS n FROM child JOIN parent ON child.fk = parent.id GROUP BY parent.organism ORDER BY n DESC`,
		`SELECT child.cid FROM child, parent WHERE child.fk = parent.id AND child.score > 0.3 AND parent.organism = 'org1'`,
		`SELECT parent.organism, child.cid FROM child JOIN parent ON child.fk = parent.id ORDER BY child.cid`,
		`SELECT parent.organism, COUNT(*) AS n FROM child JOIN parent ON child.fk = parent.id WHERE child.score < 0.5 GROUP BY parent.organism ORDER BY n DESC, parent.organism`,
		`SELECT COUNT(*) FROM child, parent WHERE child.fk = parent.id AND parent.organism = 'org0'`,
	}
	build := func(batchSize int) *Engine {
		e := testEngine(t)
		e.BatchSize = batchSize
		setupFragments(t, e, 600)
		setupJoinTables(t, e, 7, 150)
		return e
	}
	row := build(1)
	for _, batchSize := range []int{0, 7} {
		batched := build(batchSize)
		for _, q := range queries {
			want := mustExec(t, row, q)
			got := mustExec(t, batched, q)
			if !reflect.DeepEqual(want.Cols, got.Cols) {
				t.Fatalf("BatchSize=%d %q: cols %v != %v", batchSize, q, got.Cols, want.Cols)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Fatalf("BatchSize=%d %q: %d rows differ from row-at-a-time %d rows",
					batchSize, q, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestLegacyExecutorMatchesCBO: on order-insensitive queries (ORDER BY or
// aggregation), the cost-based planner's reordered joins must return the
// result set a fixed-order nested loop over the generated rows produces —
// reordered joins change row production order, never the result set. The
// heuristic planner that used to serve as the reference is gone, so the
// expected rows are computed here straight from setupJoinTables' data; each
// query also runs with its FROM order swapped, batched and at BatchSize=1.
func TestLegacyExecutorMatchesCBO(t *testing.T) {
	const nParents, nChildren = 6, 90
	organism := func(p int) string { return fmt.Sprintf("org%d", p%3) }
	score := func(c int) float64 { return float64(c%100) / 100 }

	var joined []db.Row
	counts := map[string]int64{}
	var org0 int64
	for c := 0; c < nChildren; c++ {
		org := organism(c % nParents)
		joined = append(joined, db.Row{org, fmt.Sprintf("C%04d", c)})
		if score(c) < 0.5 {
			counts[org]++
		}
		if org == "org0" {
			org0++
		}
	}
	var grouped []db.Row
	for org, n := range counts {
		grouped = append(grouped, db.Row{org, n})
	}
	sort.Slice(grouped, func(i, j int) bool {
		ni, nj := grouped[i][1].(int64), grouped[j][1].(int64)
		if ni != nj {
			return ni > nj
		}
		return grouped[i][0].(string) < grouped[j][0].(string)
	})

	cases := []struct {
		queries []string
		want    []db.Row
	}{
		{[]string{
			`SELECT parent.organism, child.cid FROM child JOIN parent ON child.fk = parent.id ORDER BY child.cid`,
			`SELECT parent.organism, child.cid FROM parent JOIN child ON child.fk = parent.id ORDER BY child.cid`,
		}, joined},
		{[]string{
			`SELECT parent.organism, COUNT(*) AS n FROM child JOIN parent ON child.fk = parent.id WHERE child.score < 0.5 GROUP BY parent.organism ORDER BY n DESC, parent.organism`,
			`SELECT parent.organism, COUNT(*) AS n FROM parent JOIN child ON child.fk = parent.id WHERE child.score < 0.5 GROUP BY parent.organism ORDER BY n DESC, parent.organism`,
		}, grouped},
		{[]string{
			`SELECT COUNT(*) FROM child, parent WHERE child.fk = parent.id AND parent.organism = 'org0'`,
			`SELECT COUNT(*) FROM parent, child WHERE child.fk = parent.id AND parent.organism = 'org0'`,
		}, []db.Row{{org0}}},
	}
	for _, batchSize := range []int{0, 1} {
		e := testEngine(t)
		e.BatchSize = batchSize
		setupJoinTables(t, e, nParents, nChildren)
		for _, c := range cases {
			for _, q := range c.queries {
				got := mustExec(t, e, q)
				if !reflect.DeepEqual(c.want, got.Rows) {
					t.Fatalf("BatchSize=%d %q: cost-based rows differ from the nested-loop reference:\n got  %v\n want %v",
						batchSize, q, got.Rows, c.want)
				}
			}
		}
	}
}

// TestChunkedJoinOutput: a join step hands its output on in batches and
// rewinds its row slab between them unless it is the last step. A
// three-table join whose steps each produce many batches must return the
// rows computed straight from the data, at several batch sizes, and again
// when its second execution probes the kept build sides.
func TestChunkedJoinOutput(t *testing.T) {
	const nParents, nChildren, nTags = 6, 90, 4
	var want []db.Row
	for c := 0; c < nChildren; c++ {
		p := c % nParents
		for k := 0; k < nTags; k++ {
			want = append(want, db.Row{fmt.Sprintf("C%04d", c), fmt.Sprintf("P%03d", p), int64(10*(p%3) + k)})
		}
	}
	queries := []string{
		`SELECT child.cid, parent.id, tag.t FROM child JOIN parent ON child.fk = parent.id JOIN tag ON tag.org = parent.organism ORDER BY child.cid, tag.t`,
		`SELECT child.cid, parent.id, tag.t FROM tag JOIN parent ON tag.org = parent.organism JOIN child ON child.fk = parent.id ORDER BY child.cid, tag.t`,
	}
	for _, batchSize := range []int{0, 1, 7} {
		e := testEngine(t)
		e.BatchSize = batchSize
		setupJoinTables(t, e, nParents, nChildren)
		mustExec(t, e, `CREATE TABLE tag (org string, t int)`)
		for o := 0; o < 3; o++ {
			for k := 0; k < nTags; k++ {
				mustExec(t, e, fmt.Sprintf(`INSERT INTO tag VALUES ('org%d', %d)`, o, 10*o+k))
			}
		}
		for _, q := range queries {
			for run := 0; run < 2; run++ {
				if got := mustExec(t, e, q); !reflect.DeepEqual(got.Rows, want) {
					t.Fatalf("BatchSize=%d run %d %q: %d rows differ from the %d computed from the data",
						batchSize, run, q, len(got.Rows), len(want))
				}
			}
		}
	}
}

// TestBatchCancellation: cancelling the statement's context mid-scan must
// abort at the next batch boundary with the context's error, on both the
// serial scan and the index (rid-list) access paths.
func TestBatchCancellation(t *testing.T) {
	e := testEngine(t)
	e.Workers = 1
	e.BatchSize = 16
	setupFragments(t, e, 600)
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	if err := e.DB.Funcs.Register(db.ExternalFunc{
		Name: "tick", NArgs: 1,
		Fn: func(args []any) (any, error) {
			if calls.Add(1) == 40 {
				cancel()
			}
			return true, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	stmt, err := Parse(`SELECT id FROM DNAFragments WHERE tick(quality)`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = e.ExecStmtSQLCtx(ctx, stmt, "")
	if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("cancelled mid-batch, got err = %v", err)
	}
	if n := calls.Load(); n < 40 || n >= 600 {
		t.Fatalf("scan should stop at a batch boundary after row 40, evaluated %d rows", n)
	}

	// Pre-cancelled context on the index path.
	mustExec(t, e, `CREATE INDEX ON DNAFragments (source)`)
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	stmt2, err := Parse(`SELECT id FROM DNAFragments WHERE source = 'embl'`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExecStmtSQLCtx(ctx2, stmt2, ""); err == nil {
		t.Fatal("pre-cancelled context should abort the rid-list path")
	}
}

// TestBatchAndPlanMetrics: the executor must account batches and rows to
// the sqlang.batch.* counters and the planner must stamp sqlang.plan.*.
func TestBatchAndPlanMetrics(t *testing.T) {
	e := testEngine(t)
	e.Obs = obs.New()
	e.Workers = 1
	setupFragments(t, e, 300)
	setupJoinTables(t, e, 5, 60)
	mustExec(t, e, `SELECT COUNT(*) FROM DNAFragments WHERE quality < 0.5`)
	mustExec(t, e, `SELECT COUNT(*) FROM child JOIN parent ON child.fk = parent.id`)
	if v := e.Obs.Counter("sqlang.batch.count").Value(); v < 2 {
		t.Errorf("sqlang.batch.count = %d, want >= 2", v)
	}
	if v := e.Obs.Counter("sqlang.batch.rows").Value(); v < 300 {
		t.Errorf("sqlang.batch.rows = %d, want >= 300", v)
	}
	if v := e.Obs.Counter("sqlang.plan.cbo").Value(); v < 2 {
		t.Errorf("sqlang.plan.cbo = %d, want >= 2", v)
	}
	if v := e.Obs.Counter("sqlang.plan.hash_joins").Value(); v != 1 {
		t.Errorf("sqlang.plan.hash_joins = %d, want 1", v)
	}
	if v := e.Obs.Counter("sqlang.plan.reordered").Value(); v != 1 {
		t.Errorf("sqlang.plan.reordered = %d, want 1", v)
	}
}

// TestTraceMatchesExplainBatched extends the trace/EXPLAIN agreement
// guarantee to awkward batch sizes and to join queries: operator span
// durations must appear verbatim in the plan of the same execution.
func TestTraceMatchesExplainBatched(t *testing.T) {
	e := testEngine(t)
	e.BatchSize = 7
	setupFragments(t, e, 40)
	setupJoinTables(t, e, 5, 40)
	ctx, tr := tracedCtx(trace.Sampling{Mode: trace.SampleAlways})

	r, err := e.ExecCtx(ctx, `EXPLAIN ANALYZE SELECT parent.organism, COUNT(*) AS n FROM child JOIN parent ON child.fk = parent.id WHERE child.score >= 0.25 GROUP BY parent.organism ORDER BY n DESC`)
	if err != nil {
		t.Fatal(err)
	}
	plan := r.Rows[0][0].(string)
	traces := tr.Traces()
	spans := traces[len(traces)-1].Spans()
	if spans[0].Name != "sqlang.statement" {
		t.Fatalf("root span = %q", spans[0].Name)
	}
	var joinSpan bool
	for _, sp := range spans[1:] {
		if strings.HasPrefix(sp.Name, "join: ") {
			joinSpan = true
		}
		want := fmt.Sprintf("time=%s", fmtNanos(sp.Duration().Nanoseconds()))
		if !strings.Contains(plan, want) {
			t.Errorf("span %q duration %s not in plan:\n%s", sp.Name, want, plan)
		}
	}
	if !joinSpan {
		t.Fatalf("no join operator span recorded; spans: %v", spans)
	}
}
