package sqlang

import (
	"context"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"genalg/internal/db"
	"genalg/internal/parallel"
	"genalg/internal/storage"
)

// defaultBatchSize is the executor's rows-per-batch. 1024 rows keeps a
// batch of row headers within L2 while amortizing per-row costs (interface
// dispatch into the scan callback, planInfo counter updates, context
// cancellation checks, timing syscalls) over ~1k tuples; measurements in
// EXPERIMENTS.md E16 show the curve is flat from 256 up, so the exact value
// is not load-bearing.
const defaultBatchSize = 1024

// batchSize resolves the engine's rows-per-batch.
func (e *Engine) batchSize() int {
	if e.BatchSize > 0 {
		return e.BatchSize
	}
	return defaultBatchSize
}

// parScanMinRows resolves the driving-table row count above which a
// single-table filter scan is partitioned across workers: the Engine knob,
// then the GENALG_PARSCAN_MINROWS environment variable, then the built-in
// default.
func (e *Engine) parScanMinRows() int {
	if e.ParallelScanMinRows > 0 {
		return e.ParallelScanMinRows
	}
	if v := os.Getenv("GENALG_PARSCAN_MINROWS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return parallelScanThreshold
}

// joinState is the runtime side of one joinStep: the lazily-built hash
// table (hash joins) or materialized inner rows (nested loops). Build is
// deferred to the first non-empty probe batch so an empty probe side never
// touches the build table — matching the row-at-a-time executor, which
// never scanned the inner table when no driving row reached the join.
type joinState struct {
	step  *joinStep
	built bool
	ht    map[string][]db.Row
	inner []db.Row
	// merged cuts this step's output rows.
	merged rowSlab
}

// rowSlab cuts fixed-width working rows from shared backing arrays instead
// of one make per row. The arrays start small and double up to one batch
// of rows, so a statement producing a handful of rows does not pay for a
// batch-sized allocation. Each row is cap-limited (three-index slice), so
// appending to one can never write into its neighbour. Backing arrays are
// never reused: rows cut from them may be retained in the statement's
// working set.
type rowSlab struct {
	width   int
	n, maxN int // rows in the next backing array, and its cap
	buf     db.Row
}

// slabStartRows is the row count of a slab's first backing array.
const slabStartRows = 16

func newRowSlab(width, batch int) rowSlab {
	return rowSlab{width: width, n: min(slabStartRows, batch), maxN: batch}
}

// next returns a fresh zeroed row of the slab's width.
func (s *rowSlab) next() db.Row {
	if len(s.buf) < s.width {
		s.buf = make(db.Row, s.width*s.n)
		s.n = min(2*s.n, s.maxN)
	}
	r := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	return r
}

// runPlan executes a planned SELECT and returns the working rows (narrowed
// tuples, see selectPlan.narrow) feeding projection/aggregation. Every
// table access decodes under its slot's column map. Execution is
// batch-at-a-time: the driving table's access path produces rowBatches that
// flow through driver filters, join steps, and residual filters, with
// planInfo counters and timers updated once per batch instead of once per
// row. Within a batch the order is heap order, and batches concatenate in
// production order, so results are byte-identical to row-at-a-time
// execution (BatchSize=1 degenerates to exactly that).
func (e *Engine) runPlan(qctx context.Context, pl *selectPlan, ectx *evalCtx) ([]db.Row, error) {
	pi := pl.pi
	bs := e.batchSize()
	driver := pl.tables[pl.driver]
	multi := len(pl.tables) > 1
	var working []db.Row
	joins := make([]joinState, len(pl.joins))
	for i := range pl.joins {
		joins[i].step = &pl.joins[i]
		joins[i].merged = newRowSlab(pl.width, bs)
	}
	var nBatches, nRows int64

	// filterBatch evaluates preds over a batch in place (survivors compact
	// to the front), timing once per batch.
	filterBatch := func(batch []db.Row, preds []Expr) ([]db.Row, error) {
		if len(preds) == 0 || len(batch) == 0 {
			return batch, nil
		}
		var t0 time.Time
		if pi.timed {
			t0 = time.Now()
		}
		out := batch[:0]
		for _, row := range batch {
			ectx.row = row
			keep := true
			for _, f := range preds {
				v, err := eval(ectx, f)
				if err != nil {
					return nil, err
				}
				if !truthy(v) {
					keep = false
					break
				}
			}
			if keep {
				out = append(out, row)
			}
		}
		if pi.timed {
			pi.filterNanos += time.Since(t0).Nanoseconds()
		}
		return out, nil
	}

	processBatch := func(batch []db.Row) error {
		nBatches++
		nRows += int64(len(batch))
		batch, err := filterBatch(batch, pl.driverFilters)
		if err != nil {
			return err
		}
		for i := range joins {
			batch, err = e.execJoinBatch(qctx, pl, &joins[i], i == len(joins)-1, batch, ectx)
			if err != nil {
				return err
			}
			batch, err = filterBatch(batch, joins[i].step.after)
			if err != nil {
				return err
			}
		}
		batch, err = filterBatch(batch, pl.residual)
		if err != nil {
			return err
		}
		working = append(working, batch...)
		pi.actFilter += int64(len(batch))
		return nil
	}

	// flush hands one full (or final partial) batch down the pipeline,
	// checking cancellation at the batch boundary.
	flush := func(batch []db.Row) error {
		if len(batch) == 0 {
			return nil
		}
		pi.actAccess += int64(len(batch))
		if err := qctx.Err(); err != nil {
			return err
		}
		return processBatch(batch)
	}

	// widen places a driving-table row into its segment of a working row
	// cut from a slab; single-table queries use scanned rows directly.
	wide := newRowSlab(pl.width, bs)
	widen := func(row db.Row) db.Row {
		if !multi {
			return row
		}
		wr := wide.next()
		copy(wr[driver.offset:], row)
		return wr
	}

	switch {
	case pl.access.rids != nil:
		batch := make([]db.Row, 0, min(bs, len(pl.access.rids)))
		for _, rid := range pl.access.rids {
			var t0 time.Time
			if pi.timed {
				t0 = time.Now()
			}
			row, err := driver.tbl.Get(rid, driver.cols...)
			if err != nil {
				return nil, err
			}
			if pi.timed {
				pi.accessNanos += time.Since(t0).Nanoseconds()
			}
			batch = append(batch, widen(row))
			if len(batch) >= bs {
				if err := flush(batch); err != nil {
					return nil, err
				}
				batch = batch[:0]
			}
		}
		if err := flush(batch); err != nil {
			return nil, err
		}

	case pl.parallel > 1:
		// Partitioned filter scan (single-table plans only, so the pipeline
		// is scan→filter): each worker owns a contiguous page range,
		// batches its rows, and evaluates the driver filters with its own
		// evalCtx and batch-local counters; per-partition row lists
		// concatenated in partition order equal the serial scan's output
		// exactly.
		w := pl.parallel
		parts := make([][]db.Row, w)
		var scanned, keptRows, filterNanos, accessNanos atomic.Int64
		var batches, batchRows atomic.Int64
		err := parallel.ForEach(qctx, w, w, func(part int) error {
			pctx := &evalCtx{}
			var kept []db.Row
			var localScanned, localFilterNanos int64
			var innerErr error
			buf := make([]db.Row, 0, bs)
			filterLocal := func() error {
				if len(buf) == 0 {
					return nil
				}
				batches.Add(1)
				batchRows.Add(int64(len(buf)))
				var tf time.Time
				if pi.timed {
					tf = time.Now()
				}
				for _, row := range buf {
					pctx.row = row
					pass := true
					for _, f := range pl.driverFilters {
						v, err := eval(pctx, f)
						if err != nil {
							return err
						}
						if !truthy(v) {
							pass = false
							break
						}
					}
					if pass {
						kept = append(kept, row)
					}
				}
				if pi.timed {
					localFilterNanos += time.Since(tf).Nanoseconds()
				}
				buf = buf[:0]
				return nil
			}
			var tShard time.Time
			if pi.timed {
				tShard = time.Now()
			}
			err := driver.tbl.ScanShard(part, w, driver.cols, func(_ storage.RID, row db.Row) bool {
				localScanned++
				buf = append(buf, row)
				if len(buf) >= bs {
					if err := filterLocal(); err != nil {
						innerErr = err
						return false
					}
				}
				return true
			})
			if innerErr == nil && err == nil {
				innerErr = filterLocal()
			}
			if innerErr != nil {
				return innerErr
			}
			if err != nil {
				return err
			}
			parts[part] = kept
			scanned.Add(localScanned)
			keptRows.Add(int64(len(kept)))
			if pi.timed {
				filterNanos.Add(localFilterNanos)
				accessNanos.Add(time.Since(tShard).Nanoseconds() - localFilterNanos)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, p := range parts {
			working = append(working, p...)
		}
		pi.actAccess = scanned.Load()
		pi.actFilter = keptRows.Load()
		pi.filterNanos = filterNanos.Load()
		pi.accessNanos = accessNanos.Load()
		nBatches += batches.Load()
		nRows += batchRows.Load()

	default:
		var innerErr error
		var tScan time.Time
		if pi.timed {
			tScan = time.Now()
		}
		batch := make([]db.Row, 0, bs)
		err := driver.tbl.Scan(driver.cols, func(_ storage.RID, row db.Row) bool {
			batch = append(batch, widen(row))
			if len(batch) >= bs {
				if err := flush(batch); err != nil {
					innerErr = err
					return false
				}
				batch = batch[:0]
			}
			return true
		})
		if innerErr == nil && err == nil {
			innerErr = flush(batch)
		}
		if innerErr != nil {
			return nil, innerErr
		}
		if err != nil {
			return nil, err
		}
		if pi.timed {
			// The scan callback's elapsed time includes join and filter
			// work; attribute the remainder to the access operator.
			pi.accessNanos = time.Since(tScan).Nanoseconds() - pi.joinNanos - pi.filterNanos
			if pi.accessNanos < 0 {
				pi.accessNanos = 0
			}
		}
	}

	if nBatches > 0 {
		reg := e.registry()
		reg.Counter("sqlang.batch.count").Add(nBatches)
		reg.Counter("sqlang.batch.rows").Add(nRows)
	}
	return working, nil
}

// execJoinBatch runs one join step over a probe batch, accounting its wall
// time (and, on the final step, its output cardinality) to the plan's join
// stage.
func (e *Engine) execJoinBatch(qctx context.Context, pl *selectPlan, js *joinState, last bool, batch []db.Row, ectx *evalCtx) ([]db.Row, error) {
	if len(batch) == 0 {
		return batch, nil
	}
	pi := pl.pi
	var t0 time.Time
	if pi.timed {
		t0 = time.Now()
	}
	out, err := e.joinBatch(qctx, pl, js, batch, ectx)
	if err != nil {
		return nil, err
	}
	if pi.timed {
		pi.joinNanos += time.Since(t0).Nanoseconds()
	}
	if last {
		pi.actJoined += int64(len(out))
	}
	return out, nil
}

// joinBatch produces the merged rows of one join step for one probe batch.
// Output order is probe order with each probe row's matches in the build
// table's scan order — the same order a nested loop over the same join
// sequence produces, which keeps batched execution bit-identical to
// row-at-a-time.
func (e *Engine) joinBatch(qctx context.Context, pl *selectPlan, js *joinState, batch []db.Row, ectx *evalCtx) ([]db.Row, error) {
	st := js.step
	sl := pl.tables[st.slot]
	merged := func(prow, brow db.Row) db.Row {
		m := js.merged.next()
		copy(m, prow)
		copy(m[sl.offset:], brow)
		return m
	}
	if st.rescan {
		// Legacy nested loop (DisableCBO): re-scan the build table per
		// probe row, exactly as the pre-cost-model executor did.
		var out []db.Row
		for _, prow := range batch {
			err := sl.tbl.Scan(sl.cols, func(_ storage.RID, brow db.Row) bool {
				out = append(out, merged(prow, brow))
				return true
			})
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	if !js.built {
		if err := e.buildJoin(qctx, pl, js, ectx); err != nil {
			return nil, err
		}
	}
	var out []db.Row
	if st.hash {
		if len(js.ht) == 0 {
			// Empty build side: nothing can join, and the probe keys need
			// not be evaluated (so a key-type error cannot surface where
			// the nested loop would never have compared anything).
			return nil, nil
		}
		for _, prow := range batch {
			ectx.row = prow
			key, ok, err := joinKey(ectx, st.probeKey, ectx.key[:0])
			ectx.key = key
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for _, brow := range js.ht[string(key)] {
				out = append(out, merged(prow, brow))
			}
		}
		return out, nil
	}
	for _, prow := range batch {
		for _, brow := range js.inner {
			out = append(out, merged(prow, brow))
		}
	}
	return out, nil
}

// buildJoin materializes a join step's build side: one scan of the joined
// table, applying its pushed single-table predicates, into either a
// key→rows hash table (insertion in scan order, preserving nested-loop
// output order per probe row) or a row slice for the nested loop.
func (e *Engine) buildJoin(qctx context.Context, pl *selectPlan, js *joinState, ectx *evalCtx) error {
	st := js.step
	sl := pl.tables[st.slot]
	js.built = true
	if st.hash {
		js.ht = make(map[string][]db.Row)
	}
	// Pushed predicates and build keys reference only this table's columns,
	// evaluated through a scratch working row holding just its segment.
	scratch := make(db.Row, pl.width)
	bs := e.batchSize()
	n := 0
	var innerErr error
	err := sl.tbl.Scan(sl.cols, func(_ storage.RID, row db.Row) bool {
		n++
		if n%bs == 0 && qctx.Err() != nil {
			innerErr = qctx.Err()
			return false
		}
		copy(scratch[sl.offset:], row)
		ectx.row = scratch
		for _, f := range st.pushed {
			v, err := eval(ectx, f)
			if err != nil {
				innerErr = err
				return false
			}
			if !truthy(v) {
				return true
			}
		}
		if st.hash {
			key, ok, err := joinKey(ectx, st.buildKey, ectx.key[:0])
			ectx.key = key
			if err != nil {
				innerErr = err
				return false
			}
			if !ok {
				return true
			}
			js.ht[string(key)] = append(js.ht[string(key)], row)
		} else {
			js.inner = append(js.inner, row)
		}
		return true
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}
