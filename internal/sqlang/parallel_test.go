package sqlang

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestParallelScanMatchesSerial is the determinism guard for partitioned
// table scans: for every worker count, every query must return rows
// byte-identical to serial execution, including ordering.
func TestParallelScanMatchesSerial(t *testing.T) {
	queries := []string{
		`SELECT id, quality FROM DNAFragments WHERE quality < 0.4`,
		`SELECT id FROM DNAFragments WHERE gccontent(fragment) > 0.5 AND quality < 0.9`,
		`SELECT id, source FROM DNAFragments WHERE contains(fragment, 'ACGTA')`,
		`SELECT id FROM DNAFragments`,
		`SELECT source, COUNT(*), AVG(quality) FROM DNAFragments GROUP BY source`,
		`SELECT id, seqlength(fragment) AS n FROM DNAFragments WHERE quality > 0.2 ORDER BY n DESC, id LIMIT 17`,
		`SELECT DISTINCT source FROM DNAFragments WHERE quality >= 0.5`,
	}
	serial := testEngine(t)
	serial.Workers = 1
	setupFragments(t, serial, 600) // well above parallelScanThreshold
	for _, workers := range []int{2, 4, 8} {
		par := testEngine(t)
		par.Workers = workers
		setupFragments(t, par, 600)
		for _, q := range queries {
			want := mustExec(t, serial, q)
			got := mustExec(t, par, q)
			if !reflect.DeepEqual(want.Cols, got.Cols) {
				t.Fatalf("workers=%d %q: cols %v != %v", workers, q, got.Cols, want.Cols)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) {
				t.Fatalf("workers=%d %q: %d rows differ from serial %d rows", workers, q, len(got.Rows), len(want.Rows))
			}
		}
	}
}

// TestParallelScanPlanNote checks EXPLAIN reports the partitioned scan and
// that small tables stay serial.
func TestParallelScanPlanNote(t *testing.T) {
	e := testEngine(t)
	e.Workers = 4
	setupFragments(t, e, 600)
	r := mustExec(t, e, `EXPLAIN SELECT id FROM DNAFragments WHERE quality < 0.5`)
	if !strings.Contains(r.Plan(), "parallel scan: 4 workers") {
		t.Fatalf("plan missing parallel note:\n%s", r.Plan())
	}

	small := testEngine(t)
	small.Workers = 4
	setupFragments(t, small, 20)
	r = mustExec(t, small, `EXPLAIN SELECT id FROM DNAFragments WHERE quality < 0.5`)
	if strings.Contains(r.Plan(), "parallel scan") {
		t.Fatalf("small table should not parallelize:\n%s", r.Plan())
	}
}

// TestConcurrentQueries runs many readers against one engine; under -race
// this guards the per-worker evalCtx isolation.
func TestConcurrentQueries(t *testing.T) {
	e := testEngine(t)
	e.Workers = 4
	setupFragments(t, e, 400)
	want := mustExec(t, e, `SELECT id FROM DNAFragments WHERE quality < 0.3`)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				got, err := e.Exec(`SELECT id FROM DNAFragments WHERE quality < 0.3`)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(want.Rows, got.Rows) {
					t.Error("concurrent query returned different rows")
					return
				}
			}
		}()
	}
	wg.Wait()
}
