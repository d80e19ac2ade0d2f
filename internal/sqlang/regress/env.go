// Package regress is the sqlang regression harness: a corpus-driven
// baseline checker that snapshots query results and EXPLAIN plans into
// committed golden files (regresql-style), plus a schema-aware random
// query generator that differentially checks the engine's executors
// against each other and shrinks diverging statements into corpus
// entries.
//
// The harness is what lets the planner and executor keep being rewritten
// aggressively: any silent change to a result set or a chosen plan fails
// CI, and the fuzzer hunts for semantic divergence between the
// cost-based batched executor and its unanalyzed, row-at-a-time, serial,
// and parallel-scan siblings.
package regress

import (
	"genalg/internal/adapter"
	"genalg/internal/db"
	"genalg/internal/genops"
	"genalg/internal/obs"
	"genalg/internal/sqlang"
)

// NewDB opens an in-memory database with the full genomics-algebra
// environment installed: GDT user-defined types (dna, rna, protein,
// gene, annotation), their constructors, and the kernel's external
// functions (contains, gccontent, length, resembles, ...).
func NewDB() (*db.DB, error) {
	d, err := db.OpenMemory(2048)
	if err != nil {
		return nil, err
	}
	if err := adapter.Install(d, genops.NewKernel()); err != nil {
		return nil, err
	}
	return d, nil
}

// Runner is one executor configuration under differential test. All
// runners of a set share one *db.DB; only the Engine knobs differ.
type Runner struct {
	Name string
	Eng  *sqlang.Engine
	// Unanalyzed keeps AnalyzeAll off this runner's engine, so its planner
	// works from the default selectivities. Statistics live per engine.
	Unanalyzed bool
}

// BaselineEngine returns the engine the corpus harness snapshots results
// and plans from. It is pinned to Workers=1 and given a private metrics
// registry so baselines are machine-independent and runs don't pollute
// obs.Default.
func BaselineEngine(d *db.DB) *sqlang.Engine {
	e := sqlang.NewEngine(d)
	e.Workers = 1
	e.Obs = obs.New()
	return e
}

// Runners builds the differential-fuzzing executor matrix over one
// shared database. The first runner is the reference (cost-based
// planner, default batch size, serial); every other runner must produce
// an identical result multiset for any SELECT:
//
//   - unanalyzed: no ANALYZE statistics, so the planner estimates from
//     default selectivities and sometimes picks a different driver,
//     access path or join order from the reference
//   - row-at-a-time: BatchSize=1, degenerating the batch pipeline to the
//     old row-at-a-time executor
//   - parallel-scan: partitioned scans forced on from the first row
//
// The reference runs serial (Workers=1) so parallel-vs-serial is itself
// one of the differential axes.
func Runners(d *db.DB) []Runner {
	row := BaselineEngine(d)
	row.BatchSize = 1
	par := BaselineEngine(d)
	par.Workers = 4
	par.ParallelScanMinRows = 1
	return []Runner{
		{Name: "cbo-batched", Eng: BaselineEngine(d)},
		{Name: "unanalyzed", Eng: BaselineEngine(d), Unanalyzed: true},
		{Name: "row-at-a-time", Eng: row},
		{Name: "parallel-scan", Eng: par},
	}
}

// AnalyzeAll runs ANALYZE for every table on every runner not marked
// Unanalyzed, so those engines' planners see identical statistics.
func AnalyzeAll(d *db.DB, runners []Runner) error {
	for _, t := range d.Tables() {
		for _, r := range runners {
			if r.Unanalyzed {
				continue
			}
			if _, err := r.Eng.Exec("ANALYZE " + t); err != nil {
				return err
			}
		}
	}
	return nil
}
