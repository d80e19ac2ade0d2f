package db

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"genalg/internal/obs"
	"genalg/internal/storage"
	"genalg/internal/wal"
)

// Durability model (DESIGN.md §8): the working state — catalog, heaps,
// indexes — lives in memory over a MemPager; the durable truth is the
// write-ahead log. Every DML statement and DDL operation appends one
// transaction frame; OpenDurable rebuilds the state by replaying the log;
// Checkpoint compacts the log to schema-plus-live-rows so its size tracks
// the database, not its history. Because durable state is only ever
// written through the log (the buffer pool never leaks dirty pages into
// it), recovery needs no undo: a frame is either wholly durable or gone.

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// PoolPages bounds the buffer pool; 0 selects 4096.
	PoolPages int
	// Install runs on the empty engine before WAL replay, registering the
	// UDTs and external functions the logged schemas may reference.
	Install func(*DB) error
	// GroupWindow is the WAL's fsync-coalescing window (see wal.Options);
	// 0 syncs immediately.
	GroupWindow time.Duration
	// CheckpointBytes triggers automatic log compaction after a commit
	// once the live log has grown by this many bytes since the last
	// checkpoint (or since open); 0 disables auto-checkpointing.
	CheckpointBytes int64
	// Hooks injects deterministic WAL crash points (tests only).
	Hooks wal.Hooks
}

// WalName is the log's file name inside a durable database directory.
const WalName = "wal.log"

// OpenDurable opens (creating if needed) a WAL-backed engine in dir. Any
// existing log is replayed — committed statements reappear, a torn tail
// from a crash is discarded — and the returned Recovery says what was
// found. Durable engines must be mutated through ApplyDML, CreateTable
// and the logged Create…IndexOn DDL (the sqlang engine and the warehouse
// do); direct Table writes bypass the log.
func OpenDurable(dir string, opts DurableOptions) (*DB, wal.Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, wal.Recovery{}, fmt.Errorf("db: creating durable dir: %w", err)
	}
	pages := opts.PoolPages
	if pages == 0 {
		pages = 4096
	}
	d, err := OpenMemory(pages)
	if err != nil {
		return nil, wal.Recovery{}, err
	}
	if opts.Install != nil {
		if err := opts.Install(d); err != nil {
			return nil, wal.Recovery{}, err
		}
	}
	lg, txns, reco, err := wal.Open(filepath.Join(dir, WalName), wal.Options{
		GroupWindow: opts.GroupWindow,
		Hooks:       opts.Hooks,
	})
	if err != nil {
		return nil, wal.Recovery{}, err
	}
	if err := d.replay(txns); err != nil {
		lg.Close()
		return nil, wal.Recovery{}, err
	}
	// Attach the log only after replay: replaying through the normal
	// CreateTable/insert paths must not re-log what is already logged.
	d.wal = lg
	d.checkpointBytes = opts.CheckpointBytes
	return d, reco, nil
}

// Wal returns the engine's write-ahead log (nil for non-durable engines).
func (d *DB) Wal() *wal.Log { return d.wal }

// createIndexPayload is the index DDL record body (a table's is its
// Schema).
type createIndexPayload struct {
	Table   string `json:"table"`
	Col     string `json:"col"`
	Genomic bool   `json:"genomic"`
	K       int    `json:"k,omitempty"`
}

// logDDL appends a single-record DDL transaction and waits for it to be
// durable. DDL shares the DML writer lock so log order equals apply order.
func (d *DB) logDDL(rec wal.Record) error {
	if d.wal == nil {
		return nil
	}
	lsn, err := d.wal.AppendTxn([]wal.Record{rec})
	if err != nil {
		return err
	}
	return d.wal.WaitDurable(lsn)
}

// CreateBTreeIndexOn builds a B-tree index and logs the DDL on durable
// engines.
func (d *DB) CreateBTreeIndexOn(table, col string) error {
	return d.createIndexOn(table, col, false, 0)
}

// CreateGenomicIndexOn builds a genomic k-mer index and logs the DDL on
// durable engines.
func (d *DB) CreateGenomicIndexOn(table, col string, k int) error {
	return d.createIndexOn(table, col, true, k)
}

func (d *DB) createIndexOn(table, col string, genomic bool, k int) error {
	tbl, ok := d.Table(table)
	if !ok {
		return fmt.Errorf("db: table %s does not exist", table)
	}
	d.dmlMu.Lock()
	defer d.dmlMu.Unlock()
	var err error
	if genomic {
		err = tbl.CreateGenomicIndex(col, k)
	} else {
		err = tbl.CreateBTreeIndex(col)
	}
	if err != nil {
		return err
	}
	payload, err := json.Marshal(createIndexPayload{Table: table, Col: col, Genomic: genomic, K: k})
	if err != nil {
		return err
	}
	//genalgvet:ignore lockorder dmlMu is the engine's statement lock: the index DDL record must be durable before any DML statement can observe (and log against) the new index
	return d.logDDL(wal.Record{Type: wal.RecCreateIndex, Table: table, Data: payload})
}

// replay applies recovered WAL transactions to the freshly opened engine.
// Deletes are content-addressed: a lazily built per-table index of stored
// bytes resolves each delete record to one matching row.
func (d *DB) replay(txns []wal.Txn) error {
	idx := map[string]map[string][]storage.RID{}
	for _, txn := range txns {
		for _, rec := range txn.Records {
			if err := d.replayRecord(rec, idx); err != nil {
				return fmt.Errorf("db: wal replay (txn %d, %s on %q): %w", txn.Seq, rec.Type, rec.Table, err)
			}
		}
	}
	return nil
}

func (d *DB) replayRecord(rec wal.Record, idx map[string]map[string][]storage.RID) error {
	switch rec.Type {
	case wal.RecCreateTable:
		var s Schema
		if err := json.Unmarshal(rec.Data, &s); err != nil {
			return err
		}
		_, err := d.CreateTable(s)
		return err
	case wal.RecCreateIndex:
		var p createIndexPayload
		if err := json.Unmarshal(rec.Data, &p); err != nil {
			return err
		}
		tbl, ok := d.Table(p.Table)
		if !ok {
			return fmt.Errorf("index on unknown table")
		}
		if p.Genomic {
			return tbl.CreateGenomicIndex(p.Col, p.K)
		}
		return tbl.CreateBTreeIndex(p.Col)
	case wal.RecInsert:
		tbl, ok := d.Table(rec.Table)
		if !ok {
			return fmt.Errorf("insert into unknown table")
		}
		row, err := DecodeRow(&tbl.schema, tbl.reg, rec.Data, nil)
		if err != nil {
			return err
		}
		tbl.mu.Lock()
		rid, err := tbl.insertRawLocked(rec.Data, row)
		tbl.mu.Unlock()
		if err != nil {
			return err
		}
		if ci, ok := idx[rec.Table]; ok {
			ci[string(rec.Data)] = append(ci[string(rec.Data)], rid)
		}
		return nil
	case wal.RecDelete:
		tbl, ok := d.Table(rec.Table)
		if !ok {
			return fmt.Errorf("delete from unknown table")
		}
		ci, ok := idx[rec.Table]
		if !ok {
			var err error
			ci, err = tbl.contentIndex()
			if err != nil {
				return err
			}
			idx[rec.Table] = ci
		}
		key := string(rec.Data)
		rids := ci[key]
		if len(rids) == 0 {
			return fmt.Errorf("no row matches delete record")
		}
		rid := rids[len(rids)-1]
		ci[key] = rids[:len(rids)-1]
		tbl.mu.Lock()
		_, _, err := tbl.deleteLocked(rid)
		tbl.mu.Unlock()
		return err
	}
	return fmt.Errorf("unknown record type %d", rec.Type)
}

// contentIndex maps stored row bytes to the RIDs holding them.
func (t *Table) contentIndex() (map[string][]storage.RID, error) {
	ci := map[string][]storage.RID{}
	t.mu.RLock()
	defer t.mu.RUnlock()
	err := t.heap.Scan(func(rid storage.RID, raw []byte) bool {
		ci[string(raw)] = append(ci[string(raw)], rid)
		return true
	})
	return ci, err
}

// checkpointRowsPerTxn bounds the rows bundled into one checkpoint frame,
// keeping individual frames (and recovery allocations) moderate.
const checkpointRowsPerTxn = 512

// CheckpointWAL compacts the live log to the current schema plus live
// rows. It holds the DML writer lock for the duration (reads continue),
// so the rewrite is a consistent snapshot. No-op on non-durable engines.
func (d *DB) CheckpointWAL() error {
	if d.wal == nil {
		return nil
	}
	d.dmlMu.Lock()
	defer d.dmlMu.Unlock()
	//genalgvet:ignore lockorder the checkpoint rewrite holds the DML writer lock for the duration by design: the compacted log must be a consistent statement-boundary snapshot
	if err := d.checkpointLocked(); err != nil {
		return err
	}
	d.checkpointBase.Store(d.wal.Size())
	d.checkpointErr.Store(nil)
	return nil
}

// CheckpointErr returns the error of the last failed auto-checkpoint, or
// nil when none failed or a later checkpoint succeeded. The statement that
// triggered a failed checkpoint was already durable, so the failure cannot
// be returned to it; readiness probes surface it instead.
func (d *DB) CheckpointErr() error {
	if p := d.checkpointErr.Load(); p != nil {
		return *p
	}
	return nil
}

func (d *DB) checkpointLocked() error {
	return d.wal.Checkpoint(func(appendTxn func([]wal.Record) error) error {
		for _, name := range d.Tables() {
			tbl, ok := d.Table(name)
			if !ok {
				continue
			}
			schema := tbl.Schema()
			payload, err := json.Marshal(schema)
			if err != nil {
				return err
			}
			if err := appendTxn([]wal.Record{{Type: wal.RecCreateTable, Table: name, Data: payload}}); err != nil {
				return err
			}
			if err := tbl.emitRows(name, appendTxn); err != nil {
				return err
			}
			for _, rec := range tbl.indexRecords(name) {
				if err := appendTxn([]wal.Record{rec}); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// emitRows streams the table's stored row bytes as insert records, batched
// into frames of checkpointRowsPerTxn.
func (t *Table) emitRows(name string, appendTxn func([]wal.Record) error) error {
	t.mu.RLock()
	defer t.mu.RUnlock()
	batch := make([]wal.Record, 0, checkpointRowsPerTxn)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		err := appendTxn(batch)
		batch = batch[:0]
		return err
	}
	var emitErr error
	err := t.heap.Scan(func(_ storage.RID, raw []byte) bool {
		cp := make([]byte, len(raw))
		copy(cp, raw)
		batch = append(batch, wal.Record{Type: wal.RecInsert, Table: name, Data: cp})
		if len(batch) == checkpointRowsPerTxn {
			if err := flush(); err != nil {
				emitErr = err
				return false
			}
		}
		return true
	})
	if emitErr != nil {
		return emitErr
	}
	if err != nil {
		return err
	}
	return flush()
}

// indexRecords renders the table's index definitions as DDL records.
func (t *Table) indexRecords(name string) []wal.Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []wal.Record
	cols := make([]string, 0, len(t.btrees))
	for col := range t.btrees {
		cols = append(cols, col)
	}
	sort.Strings(cols)
	for _, col := range cols {
		payload, _ := json.Marshal(createIndexPayload{Table: name, Col: col})
		out = append(out, wal.Record{Type: wal.RecCreateIndex, Table: name, Data: payload})
	}
	gcols := make([]string, 0, len(t.kmers))
	for col := range t.kmers {
		gcols = append(gcols, col)
	}
	sort.Strings(gcols)
	for _, col := range gcols {
		payload, _ := json.Marshal(createIndexPayload{Table: name, Col: col, Genomic: true, K: t.kmers[col].K()})
		out = append(out, wal.Record{Type: wal.RecCreateIndex, Table: name, Data: payload})
	}
	return out
}

// maybeCheckpoint compacts the log when it has grown past the configured
// threshold since the last checkpoint. The atomic flag keeps a commit
// burst from stacking redundant checkpoints; the statement that wins the
// flag pays the compaction. A failure is counted in db.checkpoint_errors
// and kept for CheckpointErr.
func (d *DB) maybeCheckpoint() {
	if d.checkpointBytes <= 0 || d.wal == nil || d.wal.Size()-d.checkpointBase.Load() < d.checkpointBytes {
		return
	}
	if !d.checkpointing.CompareAndSwap(false, true) {
		return
	}
	defer d.checkpointing.Store(false)
	if err := d.CheckpointWAL(); err != nil {
		obs.Default.Counter("db.checkpoint_errors").Inc()
		d.checkpointErr.Store(&err)
	}
}
