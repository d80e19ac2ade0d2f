package sqlang

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"genalg/internal/db"
	"genalg/internal/storage"
)

// ColStats summarizes one column for the planner.
type ColStats struct {
	// Distinct is the number of distinct non-null values.
	Distinct int
	// NullFrac is the fraction of NULLs.
	NullFrac float64
}

// TableStats is the per-table output of ANALYZE.
type TableStats struct {
	Rows int
	Cols map[string]ColStats
}

// statsStore keeps ANALYZE results per engine.
type statsStore struct {
	mu     sync.RWMutex
	tables map[string]TableStats
	// ver counts ANALYZE runs; a cached plan is current only while it is
	// unchanged.
	ver atomic.Uint64
}

func (s *statsStore) get(table string) (TableStats, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.tables[table]
	return st, ok
}

func (s *statsStore) put(table string, st TableStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tables == nil {
		s.tables = map[string]TableStats{}
	}
	s.tables[table] = st
	s.ver.Add(1)
}

// execAnalyze scans the table once, counting distinct values (exact, via a
// per-column hash set — corpora here are warehouse-sized, not web-scale)
// and null fractions for every scalar column. Opaque columns are skipped:
// their selectivities come from the operator registry.
func (e *Engine) execAnalyze(s *AnalyzeStmt) (*Result, error) {
	tbl, ok := e.DB.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("sqlang: unknown table %q", s.Table)
	}
	schema := tbl.Schema()
	type colAcc struct {
		distinct map[string]struct{}
		nulls    int
	}
	accs := map[string]*colAcc{}
	var scalarCols []int
	for i, c := range schema.Columns {
		if c.Type == db.TOpaque || c.Type == db.TBytes {
			continue
		}
		scalarCols = append(scalarCols, i)
		accs[c.Name] = &colAcc{distinct: map[string]struct{}{}}
	}
	rows := 0
	err := tbl.Scan(nil, func(_ storage.RID, row db.Row) bool {
		rows++
		for _, ci := range scalarCols {
			acc := accs[schema.Columns[ci].Name]
			if row[ci] == nil {
				acc.nulls++
				continue
			}
			acc.distinct[fmt.Sprintf("%v", row[ci])] = struct{}{}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	st := TableStats{Rows: rows, Cols: map[string]ColStats{}}
	for name, acc := range accs {
		cs := ColStats{Distinct: len(acc.distinct)}
		if rows > 0 {
			cs.NullFrac = float64(acc.nulls) / float64(rows)
		}
		st.Cols[name] = cs
	}
	e.stats.put(s.Table, st)
	return &Result{Affected: rows}, nil
}

// distinctFor returns the ANALYZE distinct count for table.col, 0 when the
// table or column has no statistics. The planner's equi-join estimates
// divide by this (1/max(d_l, d_r) per key), so ANALYZE directly sharpens
// join ordering.
func (e *Engine) distinctFor(table, col string) int {
	st, ok := e.stats.get(table)
	if !ok {
		return 0
	}
	cs, ok := st.Cols[col]
	if !ok {
		return 0
	}
	return cs.Distinct
}

// statsSelectivity refines a comparison predicate's selectivity using
// ANALYZE results, when the predicate is colRef-vs-literal and the column
// was analyzed. ok=false falls back to the static defaults. Tables are
// consulted in lexical order so an unqualified column name matching
// several analyzed tables resolves deterministically — map-iteration
// order here used to leak into plan costs, which the plan-baseline
// harness would flag as flaky diffs.
func (e *Engine) statsSelectivity(op string, l, r Expr) (float64, bool) {
	col, okc := asColRef(l, r)
	if !okc {
		return 0, false
	}
	e.stats.mu.RLock()
	defer e.stats.mu.RUnlock()
	names := make([]string, 0, len(e.stats.tables))
	for t := range e.stats.tables {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, table := range names {
		st := e.stats.tables[table]
		if col.Table != "" && col.Table != table {
			continue
		}
		cs, ok := st.Cols[col.Name]
		if !ok || cs.Distinct == 0 {
			continue
		}
		switch op {
		case "=":
			return 1 / float64(cs.Distinct), true
		case "<>":
			return 1 - 1/float64(cs.Distinct), true
		}
	}
	return 0, false
}

// asColRef returns the column reference when exactly one side is a ColRef
// and the other a literal.
func asColRef(l, r Expr) (*ColRef, bool) {
	if c, ok := l.(*ColRef); ok {
		if _, isLit := r.(*Lit); isLit {
			return c, true
		}
	}
	if c, ok := r.(*ColRef); ok {
		if _, isLit := l.(*Lit); isLit {
			return c, true
		}
	}
	return nil, false
}
