// Package a holds durability fixtures for the WAL invariants: every
// AppendTxn LSN reaches WaitDurable on every path (directly, through a
// summarized helper, or by handing the LSN to a new owner), and table
// mutations and index DDL outside db route through the logged DB methods.
package a

import (
	"db"
	"wal"
)

var keepLSN int64

func logf(format string, args ...any) {}

// waitLocal waits on every path; summarized as Waits=[1].
func waitLocal(l *wal.Log, lsn int64) error { return l.WaitDurable(lsn) }

// Direct WaitDurable behind the usual error check: clean.
func commitDirect(l *wal.Log, frames [][]byte) error {
	lsn, err := l.AppendTxn(frames)
	if err != nil {
		return err
	}
	return l.WaitDurable(lsn)
}

// Waiting through a same-package helper: clean via its summary.
func commitViaHelper(l *wal.Log, frames [][]byte) error {
	lsn, err := l.AppendTxn(frames)
	if err != nil {
		return err
	}
	return waitLocal(l, lsn)
}

// Waiting through a cross-package helper: clean via imported facts.
func commitViaWal(l *wal.Log, frames [][]byte) error {
	lsn, err := l.AppendTxn(frames)
	if err != nil {
		return err
	}
	return wal.SyncTo(l, lsn)
}

// Returning the LSN transfers the wait obligation to the caller: clean.
func commitReturns(l *wal.Log, frames [][]byte) (int64, error) {
	lsn, err := l.AppendTxn(frames)
	if err != nil {
		return 0, err
	}
	return lsn, nil
}

// Storing the LSN transfers the obligation to the new owner: clean.
func commitStores(l *wal.Log, frames [][]byte) error {
	lsn, err := l.AppendTxn(frames)
	if err != nil {
		return err
	}
	keepLSN = lsn
	return nil
}

// Waiting on only one branch acknowledges unsynced data on the other.
func commitMaybe(l *wal.Log, frames [][]byte, fast bool) error {
	lsn, err := l.AppendTxn(frames) // want `LSN from AppendTxn does not reach WaitDurable on every path`
	if err != nil {
		return err
	}
	if !fast {
		return l.WaitDurable(lsn)
	}
	return nil
}

// Discarding the LSN makes waiting impossible.
func commitDrops(l *wal.Log, frames [][]byte) {
	_, _ = l.AppendTxn(frames) // want `LSN from AppendTxn dropped`
}

// Logging the LSN is not waiting: a call argument does not discharge the
// obligation unless the callee's summary proves it waits.
func commitLogsOnly(l *wal.Log, frames [][]byte) error {
	lsn, err := l.AppendTxn(frames) // want `LSN from AppendTxn does not reach WaitDurable on every path`
	if err != nil {
		return err
	}
	logf("appended at %d", lsn)
	return nil
}

// Direct table mutations outside db bypass the WAL.
func seedDirect(t *db.Table) {
	_ = t.Insert(db.Row{}) // want `direct Table\.Insert bypasses the WAL`
}

func pruneDirect(t *db.Table) error {
	return t.Delete("old") // want `direct Table\.Delete bypasses the WAL`
}

// The sanctioned path: clean.
func viaDML(d *db.DB) error {
	return d.ApplyDML("DELETE FROM reads WHERE stale")
}

// Index DDL on the table itself is never logged: the index is gone after
// a restart.
func indexDirect(t *db.Table) error {
	if err := t.CreateBTreeIndex("id"); err != nil { // want `direct Table\.CreateBTreeIndex is unlogged DDL`
		return err
	}
	return t.CreateGenomicIndex("fragment", 11) // want `direct Table\.CreateGenomicIndex is unlogged DDL`
}

// The logged index DDL: clean.
func indexViaDB(d *db.DB) error {
	if err := d.CreateBTreeIndexOn("frags", "id"); err != nil {
		return err
	}
	return d.CreateGenomicIndexOn("frags", "fragment", 11)
}
