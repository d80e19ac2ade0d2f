package db

import (
	"errors"
	"fmt"

	"genalg/internal/storage"
	"genalg/internal/wal"
)

// Mutation is one row-level operation inside a DML statement's batch.
// Statements are executed as batches through DB.ApplyDML so that a
// statement either applies completely or not at all, every concurrent
// reader observes it atomically per table, and — on a durable engine —
// its WAL frame orders identically to its in-memory application.
type Mutation struct {
	// Kind selects the operation.
	Kind MutKind
	// Row is the decoded row to insert (MutInsert).
	Row Row
	// RID addresses the row to remove (MutDelete).
	RID storage.RID
}

// MutKind enumerates mutation kinds.
type MutKind uint8

// The mutation kinds. An UPDATE is a delete of the old row followed by an
// insert of the new one.
const (
	MutInsert MutKind = iota + 1
	MutDelete
)

// preparedOp is one mutation resolved to raw bytes: everything the apply,
// undo, and WAL-logging paths need without further evaluation.
type preparedOp struct {
	insert bool
	// raw holds the encoded row: the bytes to store for an insert, the
	// stored bytes of the doomed row for a delete (content-addressed WAL
	// record and undo re-insert).
	raw []byte
	row Row
	// rid is the delete target; after apply it also records where an
	// insert landed, so undo can remove it.
	rid storage.RID
}

// preparedDML is a statement's fully resolved mutation batch.
type preparedDML struct {
	ops []preparedOp
}

// prepareDML resolves a mutation batch: inserts are encoded, delete
// targets are fetched and decoded. Pure read phase — the table is not
// modified, so any error here leaves it untouched.
func (t *Table) prepareDML(muts []Mutation) (*preparedDML, error) {
	p := &preparedDML{ops: make([]preparedOp, 0, len(muts))}
	for _, m := range muts {
		switch m.Kind {
		case MutInsert:
			raw, err := EncodeRow(&t.schema, t.reg, m.Row)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, preparedOp{insert: true, raw: raw, row: m.Row})
		case MutDelete:
			t.mu.RLock()
			raw, err := t.heap.Get(m.RID)
			t.mu.RUnlock()
			if err != nil {
				return nil, err
			}
			row, err := DecodeRow(&t.schema, t.reg, raw, nil)
			if err != nil {
				return nil, err
			}
			p.ops = append(p.ops, preparedOp{raw: raw, row: row, rid: m.RID})
		default:
			return nil, fmt.Errorf("db: unknown mutation kind %d", m.Kind)
		}
	}
	return p, nil
}

// applyDML applies a prepared batch under one table lock hold, so readers
// see the statement atomically. On a mid-batch failure the applied prefix
// is undone in reverse order and the original error is returned (joined
// with any undo failure).
func (t *Table) applyDML(p *preparedDML) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range p.ops {
		op := &p.ops[i]
		var err error
		if op.insert {
			op.rid, err = t.insertRawLocked(op.raw, op.row)
		} else {
			_, _, err = t.deleteLocked(op.rid)
		}
		if err != nil {
			return errors.Join(err, t.undoLocked(p.ops[:i]))
		}
	}
	return nil
}

// revertDML undoes a fully applied batch (used when the WAL append fails
// after the in-memory apply succeeded: the statement must not be visible
// if it can never become durable).
func (t *Table) revertDML(p *preparedDML) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.undoLocked(p.ops)
}

// undoLocked reverses an applied op prefix: inserted rows are removed,
// deleted rows are re-inserted from their stored bytes (at a fresh RID —
// RIDs are not stable across updates anyway).
func (t *Table) undoLocked(applied []preparedOp) error {
	var firstErr error
	for i := len(applied) - 1; i >= 0; i-- {
		op := applied[i]
		var err error
		if op.insert {
			_, _, err = t.deleteLocked(op.rid)
		} else {
			_, err = t.insertRawLocked(op.raw, op.row)
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("db: undo of %s statement prefix failed: %w", t.schema.Table, err)
		}
	}
	return firstErr
}

// walRecords renders the batch as WAL records: inserts carry the encoded
// row, deletes the stored bytes of the removed row (content-addressed, so
// replay does not depend on heap placement determinism).
func (p *preparedDML) walRecords(table string) []wal.Record {
	recs := make([]wal.Record, 0, len(p.ops))
	for _, op := range p.ops {
		typ := wal.RecDelete
		if op.insert {
			typ = wal.RecInsert
		}
		recs = append(recs, wal.Record{Type: typ, Table: table, Data: op.raw})
	}
	return recs
}

// ApplyDML applies a DML statement's mutation batch to one table,
// statement-atomically. On a durable engine (OpenDurable) the batch is
// appended to the WAL as a single transaction frame and ApplyDML returns
// only after the frame is fsynced (group-committed with concurrent
// statements); a crash at any point either preserves the whole statement
// or erases it. DML statements are serialized by the engine's writer lock
// so the WAL order equals the apply order; reads run concurrently.
func (d *DB) ApplyDML(table string, muts []Mutation) error {
	tbl, ok := d.Table(table)
	if !ok {
		return fmt.Errorf("db: table %s does not exist", table)
	}
	if len(muts) == 0 {
		return nil
	}
	d.dmlMu.Lock()
	prep, err := tbl.prepareDML(muts)
	if err != nil {
		d.dmlMu.Unlock()
		return err
	}
	if err := tbl.applyDML(prep); err != nil {
		d.dmlMu.Unlock()
		return err
	}
	var lsn int64
	if d.wal != nil {
		lsn, err = d.wal.AppendTxn(prep.walRecords(table))
		if err != nil {
			rerr := tbl.revertDML(prep)
			d.dmlMu.Unlock()
			return errors.Join(err, rerr)
		}
	}
	d.dmlMu.Unlock()
	if err := d.waitDurable(lsn); err != nil {
		return err
	}
	if d.wal != nil {
		d.maybeCheckpoint()
	}
	return nil
}

// waitDurable blocks until lsn is fsynced. On a non-durable engine there
// is nothing to wait for: acknowledging immediately is correct because no
// log exists to lag behind the in-memory state.
func (d *DB) waitDurable(lsn int64) error {
	if d.wal == nil {
		return nil
	}
	return d.wal.WaitDurable(lsn)
}
