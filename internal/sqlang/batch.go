package sqlang

import (
	"context"
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
// then the built-in default.
func (e *Engine) parScanMinRows() int {
	if e.ParallelScanMinRows > 0 {
		return e.ParallelScanMinRows
	}
	return parallelScanThreshold
}

// joinState is the runtime side of one joinStep: its build side, made on
// the first non-empty probe batch so an empty probe side never touches the
// build table — matching the row-at-a-time executor, which never scanned
// the inner table when no driving row reached the join.
type joinState struct {
	step *joinStep
	b    *joinBuild
	// kept is the cached template's slot for this step's build (see
	// keptBuild); nil on the cold paths and for steps that read a literal.
	kept *keptBuild
	// out is the step's output batch, reused from one batch to the
	// next: the filters and the later steps consume it, and the working
	// set copies its row headers, before the next batch overwrites it.
	out []db.Row
	// merged cuts this step's output rows. Unless the step is the plan's
	// last, whose rows the working set keeps, its rows are dead once the
	// rest of the pipeline has run their batch, and the slab is rewound.
	merged rowSlab
	last   bool
}

// joinBuild is one join step's build side, read-only once made: a
// key→rows hash table (hash joins) or the materialized inner rows (nested
// loops). Rows keep the build table's scan order per key, so each probe
// row's matches come out in nested-loop order.
type joinBuild struct {
	// ht maps an encoded build key to its row list in lists.
	ht    map[string]int
	lists [][]db.Row
	inner []db.Row
	// rows counts the build's rows, which a kept build charges against
	// maxKeptBuildRows.
	rows int
	// changes is the build table's change counter, read before the scan:
	// the build holds no write newer than it.
	changes uint64
}

// rowSlab cuts fixed-width working rows from shared backing arrays instead
// of one make per row. The arrays start small and double up to one batch
// of rows, so a statement producing a handful of rows does not pay for a
// batch-sized allocation. Each row is cap-limited (three-index slice), so
// appending to one can never write into its neighbour. A backing array is
// reused only through rewind, by a caller whose rows are all dead: rows
// cut from a slab may be retained in the statement's working set.
type rowSlab struct {
	width   int
	n, maxN int // rows in the next backing array, and its cap
	buf     db.Row
	arr     db.Row // the backing array buf is cut from
}

// slabStartRows is the row count of a slab's first backing array.
const slabStartRows = 16

func newRowSlab(width, batch int) rowSlab {
	return rowSlab{width: width, n: min(slabStartRows, batch), maxN: batch}
}

// next returns a row of the slab's width: zeroed, unless the slab was
// rewound.
func (s *rowSlab) next() db.Row {
	if len(s.buf) < s.width {
		s.buf = make(db.Row, s.width*s.n)
		s.arr = s.buf
		s.n = min(2*s.n, s.maxN)
	}
	r := s.buf[:s.width:s.width]
	s.buf = s.buf[s.width:]
	return r
}

// rewind lets the slab cut its latest backing array again from the start,
// once no row cut from it is live.
func (s *rowSlab) rewind() {
	s.buf = s.arr
}

// runPlan executes a planned SELECT and returns the working rows (narrowed
// tuples, see selectPlan.narrow) feeding projection/aggregation. Every
// table access decodes under its slot's column map. Execution is
// batch-at-a-time: the driving table's access path produces rowBatches that
// flow through driver filters, join steps, and residual filters, with
// planInfo counters and timers updated once per batch instead of once per
// row; a join step cuts its output into batches of the same size. Within a
// batch the order is heap order, and batches concatenate in production
// order, so results are byte-identical to row-at-a-time execution
// (BatchSize=1 degenerates to exactly that). kept is a cached template's
// build slots (boundSelect.kept), nil on the cold paths.
func (e *Engine) runPlan(qctx context.Context, pl *selectPlan, kept []*keptBuild, ectx *evalCtx) ([]db.Row, error) {
	pi := pl.pi
	bs := e.batchSize()
	driver := pl.tables[pl.driver]
	multi := len(pl.tables) > 1
	var working []db.Row
	joins := make([]joinState, len(pl.joins))
	for i := range pl.joins {
		joins[i].step = &pl.joins[i]
		joins[i].merged = newRowSlab(pl.width, bs)
		joins[i].last = i == len(pl.joins)-1
		if kept != nil {
			joins[i].kept = kept[i]
		}
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

	// through runs a batch through join step i and its after-predicates,
	// then the later steps, then the residual filters into the working
	// set. A step hands its output on in batches of at most bs rows, each
	// run to the end of the pipeline before the step produces the next.
	var through func(i int, batch []db.Row) error
	through = func(i int, batch []db.Row) error {
		if i == len(joins) {
			batch, err := filterBatch(batch, pl.residual)
			if err != nil {
				return err
			}
			working = append(working, batch...)
			pi.actFilter += int64(len(batch))
			return nil
		}
		js := &joins[i]
		return e.execJoinBatch(qctx, pl, js, batch, ectx, func(out []db.Row) error {
			out, err := filterBatch(out, js.step.after)
			if err != nil {
				return err
			}
			return through(i+1, out)
		})
	}

	processBatch := func(batch []db.Row) error {
		nBatches++
		nRows += int64(len(batch))
		batch, err := filterBatch(batch, pl.driverFilters)
		if err != nil {
			return err
		}
		return through(0, batch)
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

// execJoinBatch runs one join step over a probe batch, handing its output
// batches to emit. It accounts the step's own wall time, without emit's,
// to the plan's join stage, and on the final step the output cardinality.
func (e *Engine) execJoinBatch(qctx context.Context, pl *selectPlan, js *joinState, batch []db.Row, ectx *evalCtx, emit func([]db.Row) error) error {
	if len(batch) == 0 {
		return nil
	}
	pi := pl.pi
	var t0 time.Time
	var downstream time.Duration
	if pi.timed {
		t0 = time.Now()
	}
	err := e.joinBatch(qctx, pl, js, batch, ectx, func(out []db.Row) error {
		if js.last {
			pi.actJoined += int64(len(out))
		}
		if !pi.timed {
			return emit(out)
		}
		t := time.Now()
		err := emit(out)
		downstream += time.Since(t)
		return err
	})
	if pi.timed {
		pi.joinNanos += (time.Since(t0) - downstream).Nanoseconds()
	}
	return err
}

// joinBatch produces the merged rows of one join step for one probe batch
// and hands them to emit in batches of at most the engine's batch size.
// Output order is probe order with each probe row's matches in the build
// table's scan order — the same order a nested loop over the same join
// sequence produces, which keeps batched execution bit-identical to
// row-at-a-time.
func (e *Engine) joinBatch(qctx context.Context, pl *selectPlan, js *joinState, batch []db.Row, ectx *evalCtx, emit func([]db.Row) error) error {
	st := js.step
	sl := pl.tables[st.slot]
	if js.b == nil {
		b, err := e.joinBuildFor(qctx, pl, js, ectx)
		if err != nil {
			return err
		}
		js.b = b
	}
	b := js.b
	if st.hash && len(b.ht) == 0 {
		// Empty build side: nothing can join, and the probe keys need not
		// be evaluated (so a key-type error cannot surface where the
		// nested loop would never have compared anything).
		return nil
	}
	bs := e.batchSize()
	out := js.out[:0]
	flush := func() error {
		err := emit(out)
		out = out[:0]
		if !js.last {
			js.merged.rewind()
		}
		return err
	}
	// add appends one merged row, handing on a full batch.
	add := func(prow, brow db.Row) error {
		m := js.merged.next()
		copy(m, prow)
		copy(m[sl.offset:], brow)
		out = append(out, m)
		if len(out) < bs {
			return nil
		}
		return flush()
	}
	for _, prow := range batch {
		rows := b.inner
		if st.hash {
			ectx.row = prow
			key, ok, err := joinKey(ectx, st.probeKey, ectx.key[:0])
			ectx.key = key
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			i, ok := b.ht[string(key)]
			if !ok {
				continue
			}
			rows = b.lists[i]
		}
		for _, brow := range rows {
			if err := add(prow, brow); err != nil {
				return err
			}
		}
	}
	var err error
	if len(out) > 0 {
		err = flush()
	}
	js.out = out
	return err
}

// joinBuildFor returns a join step's build side: the cached template's
// kept build while its table is unchanged, otherwise a fresh one, which
// the template keeps when it has a slot for it and the build fits the
// engine's budget (see keptBuild). Concurrent executions of one template
// build a kept step once: the first holds the slot's lock across the
// build, and the rest take its result.
func (e *Engine) joinBuildFor(qctx context.Context, pl *selectPlan, js *joinState, ectx *evalCtx) (*joinBuild, error) {
	k := js.kept
	if k == nil {
		return e.buildJoin(qctx, pl, js.step, ectx)
	}
	tbl := pl.tables[js.step.slot].tbl
	b := k.load(tbl)
	if b == nil && !k.full.Load() {
		k.mu.Lock()
		defer k.mu.Unlock()
		b = k.load(tbl)
	}
	if b != nil {
		e.registry().Counter("sqlang.join.builds_reused").Inc()
		return b, nil
	}
	b, err := e.buildJoin(qctx, pl, js.step, ectx)
	// Only a lock holder finds full unset here. A kept build that went
	// stale stays in place: its template is stale too, and leaves the
	// cache on its next lookup.
	if err != nil || k.full.Load() || k.b.Load() != nil {
		return b, err
	}
	if e.plans.charge(k.owner, b.rows) {
		k.b.Store(b)
	} else {
		k.full.Store(true)
	}
	return b, nil
}

// buildJoin makes a join step's build side: one scan of the joined table,
// applying its pushed single-table predicates, into either a key→rows
// hash table (insertion in scan order, preserving nested-loop output
// order per probe row) or a row slice for the nested loop.
func (e *Engine) buildJoin(qctx context.Context, pl *selectPlan, st *joinStep, ectx *evalCtx) (*joinBuild, error) {
	sl := pl.tables[st.slot]
	e.registry().Counter("sqlang.join.builds").Inc()
	b := &joinBuild{changes: sl.tbl.Changes()}
	if st.hash {
		b.ht = make(map[string]int)
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
			// One lookup per row; only a new key allocates its string.
			if i, ok := b.ht[string(key)]; ok {
				b.lists[i] = append(b.lists[i], row)
			} else {
				b.ht[string(key)] = len(b.lists)
				b.lists = append(b.lists, []db.Row{row})
			}
		} else {
			b.inner = append(b.inner, row)
		}
		b.rows++
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}
