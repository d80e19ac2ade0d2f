package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"genalg/internal/obs"
	"genalg/internal/storage"
	"genalg/internal/wal"
)

func fragSchema() Schema {
	return Schema{Table: "frags", Columns: []Column{
		{Name: "id", Type: TInt, NotNull: true},
		{Name: "body", Type: TString},
	}}
}

// openFrags opens a durable engine in dir and ensures the frags table
// exists (created and logged on first open, replayed afterwards).
func openFrags(t *testing.T, dir string, opts DurableOptions) (*DB, wal.Recovery) {
	t.Helper()
	d, reco, err := OpenDurable(dir, opts)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	if _, ok := d.Table("frags"); !ok {
		if _, err := d.CreateTable(fragSchema()); err != nil {
			t.Fatalf("CreateTable: %v", err)
		}
	}
	return d, reco
}

func insertFrag(t *testing.T, d *DB, id int64, body string) {
	t.Helper()
	if err := d.ApplyDML("frags", []Mutation{{Kind: MutInsert, Row: Row{id, body}}}); err != nil {
		t.Fatalf("insert %d: %v", id, err)
	}
}

func fragRows(t *testing.T, d *DB) map[int64]string {
	t.Helper()
	tbl, ok := d.Table("frags")
	if !ok {
		t.Fatal("frags table missing")
	}
	out := map[int64]string{}
	err := tbl.Scan(nil, func(_ storage.RID, row Row) bool {
		out[row[0].(int64)] = row[1].(string)
		return true
	})
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	return out
}

// copyLogPrefix copies the first n+extra bytes of dir's WAL into a fresh
// directory, modelling a crash where only the fsynced prefix (plus an
// optional torn tail) reached disk.
func copyLogPrefix(t *testing.T, dir string, n, extra int64) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, WalName))
	if err != nil {
		t.Fatal(err)
	}
	end := n + extra
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	dst := t.TempDir()
	if err := os.WriteFile(filepath.Join(dst, WalName), data[:end], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d, reco := openFrags(t, dir, DurableOptions{})
	if reco.Txns != 0 {
		t.Fatalf("fresh dir recovered %d txns", reco.Txns)
	}
	for i := int64(0); i < 10; i++ {
		insertFrag(t, d, i, fmt.Sprintf("body-%d", i))
	}
	if err := d.CreateBTreeIndexOn("frags", "id"); err != nil {
		t.Fatal(err)
	}
	// UPDATE row 3 (delete+insert batch) and DELETE row 7.
	tbl, _ := d.Table("frags")
	var rid3, rid7 storage.RID
	err := tbl.Scan(nil, func(rid storage.RID, row Row) bool {
		switch row[0].(int64) {
		case 3:
			rid3 = rid
		case 7:
			rid7 = rid
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyDML("frags", []Mutation{
		{Kind: MutDelete, RID: rid3},
		{Kind: MutInsert, Row: Row{int64(3), "body-3-v2"}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyDML("frags", []Mutation{{Kind: MutDelete, RID: rid7}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, reco := openFrags(t, dir, DurableOptions{})
	defer d2.Close()
	if reco.Txns == 0 {
		t.Fatal("reopen replayed no transactions")
	}
	if reco.TornBytes != 0 {
		t.Fatalf("clean shutdown left %d torn bytes", reco.TornBytes)
	}
	rows := fragRows(t, d2)
	if len(rows) != 9 {
		t.Fatalf("want 9 rows, got %d: %v", len(rows), rows)
	}
	if rows[3] != "body-3-v2" {
		t.Fatalf("update lost: row 3 = %q", rows[3])
	}
	if _, ok := rows[7]; ok {
		t.Fatal("deleted row 7 survived restart")
	}
	tbl2, _ := d2.Table("frags")
	if !tbl2.HasBTreeIndex("id") {
		t.Fatal("index DDL not replayed")
	}
	rids, err := tbl2.IndexLookup("id", int64(5))
	if err != nil || len(rids) != 1 {
		t.Fatalf("index lookup after replay: rids=%v err=%v", rids, err)
	}
}

// TestCrashMatrix drives a committed prefix of statements, then crashes at
// each injected WAL point during one more statement, recovers from the
// durable prefix (optionally with a torn tail appended), and verifies:
// every acknowledged statement is visible, the unacknowledged one is
// absent, and recovery reports no corruption beyond the expected tear.
func TestCrashMatrix(t *testing.T) {
	const committed = 5
	points := []struct {
		name string
		hook func(armed *bool) wal.Hooks
		// tornExtra bytes of the post-crash tail are appended to the
		// recovered image to model a partially persisted frame.
		tornExtra int64
	}{
		{"after-append", func(armed *bool) wal.Hooks {
			return wal.Hooks{AfterAppend: func(int64) error {
				if *armed {
					return wal.ErrSimulatedCrash
				}
				return nil
			}}
		}, 0},
		{"before-sync", func(armed *bool) wal.Hooks {
			return wal.Hooks{BeforeSync: func() error {
				if *armed {
					return wal.ErrSimulatedCrash
				}
				return nil
			}}
		}, 0},
		{"mid-sync-torn-tail", func(armed *bool) wal.Hooks {
			return wal.Hooks{BeforeSync: func() error {
				if *armed {
					return wal.ErrSimulatedCrash
				}
				return nil
			}}
		}, 7},
	}
	for _, pt := range points {
		t.Run(pt.name, func(t *testing.T) {
			dir := t.TempDir()
			var armed bool
			d, _ := openFrags(t, dir, DurableOptions{Hooks: pt.hook(&armed)})
			for i := int64(0); i < committed; i++ {
				insertFrag(t, d, i, "committed")
			}
			armed = true
			err := d.ApplyDML("frags", []Mutation{{Kind: MutInsert, Row: Row{int64(99), "unacked"}}})
			if err == nil {
				t.Fatal("statement was acknowledged through a crashed WAL")
			}
			synced := d.Wal().SyncedLSN()

			rdir := copyLogPrefix(t, dir, synced, pt.tornExtra)
			d2, reco := openFrags(t, rdir, DurableOptions{})
			defer d2.Close()
			if pt.tornExtra > 0 && reco.TornBytes == 0 {
				t.Fatal("torn tail not reported")
			}
			if pt.tornExtra == 0 && reco.TornBytes != 0 {
				t.Fatalf("unexpected torn bytes: %d", reco.TornBytes)
			}
			rows := fragRows(t, d2)
			if len(rows) != committed {
				t.Fatalf("want %d committed rows, got %d: %v", committed, len(rows), rows)
			}
			for i := int64(0); i < committed; i++ {
				if rows[i] != "committed" {
					t.Fatalf("acknowledged row %d lost", i)
				}
			}
			if _, ok := rows[99]; ok {
				t.Fatal("unacknowledged statement visible after recovery")
			}
			// The recovered engine must accept new writes.
			insertFrag(t, d2, 100, "post-recovery")
		})
	}
}

func TestCrashBeforeCheckpointRenameKeepsOldLog(t *testing.T) {
	dir := t.TempDir()
	var armed bool
	d, _ := openFrags(t, dir, DurableOptions{Hooks: wal.Hooks{
		BeforeCheckpointRename: func() error {
			if armed {
				return wal.ErrSimulatedCrash
			}
			return nil
		},
	}})
	for i := int64(0); i < 8; i++ {
		insertFrag(t, d, i, "keep")
	}
	armed = true
	if err := d.CheckpointWAL(); !errors.Is(err, wal.ErrSimulatedCrash) {
		t.Fatalf("checkpoint did not crash: %v", err)
	}
	// Both the live log and the orphaned .ckpt are on disk; recovery must
	// prefer the live log and discard the orphan.
	rdir := t.TempDir()
	for _, name := range []string{WalName, WalName + ".ckpt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("reading %s: %v", name, err)
		}
		if err := os.WriteFile(filepath.Join(rdir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2, _ := openFrags(t, rdir, DurableOptions{})
	defer d2.Close()
	rows := fragRows(t, d2)
	if len(rows) != 8 {
		t.Fatalf("want 8 rows after aborted checkpoint, got %d", len(rows))
	}
	if _, err := os.Stat(filepath.Join(rdir, WalName+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("orphaned checkpoint not removed: %v", err)
	}
}

func TestCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	d, _ := openFrags(t, dir, DurableOptions{})
	var rid0 storage.RID
	for i := int64(0); i < 50; i++ {
		insertFrag(t, d, i, "bulk")
	}
	tbl, _ := d.Table("frags")
	err := tbl.Scan(nil, func(rid storage.RID, row Row) bool {
		if row[0].(int64) == 0 {
			rid0 = rid
			return false
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyDML("frags", []Mutation{{Kind: MutDelete, RID: rid0}}); err != nil {
		t.Fatal(err)
	}
	before := d.Wal().Size()
	if err := d.CheckpointWAL(); err != nil {
		t.Fatal(err)
	}
	after := d.Wal().Size()
	if after >= before {
		t.Fatalf("checkpoint did not compact: %d -> %d", before, after)
	}
	// Post-checkpoint writes append to the compacted log.
	insertFrag(t, d, 1000, "post-ckpt")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _ := openFrags(t, dir, DurableOptions{})
	defer d2.Close()
	rows := fragRows(t, d2)
	if len(rows) != 50 {
		t.Fatalf("want 50 rows, got %d", len(rows))
	}
	if _, ok := rows[0]; ok {
		t.Fatal("deleted row resurrected by checkpoint")
	}
	if rows[1000] != "post-ckpt" {
		t.Fatal("post-checkpoint write lost")
	}
}

func TestAutoCheckpointThreshold(t *testing.T) {
	dir := t.TempDir()
	checkpoints := 0
	d, _ := openFrags(t, dir, DurableOptions{CheckpointBytes: 2048, Hooks: wal.Hooks{
		BeforeCheckpointRename: func() error {
			checkpoints++
			return nil
		},
	}})
	for i := int64(0); i < 200; i++ {
		insertFrag(t, d, i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	// With a 2 KiB threshold and ~50-byte rows the log must have been
	// compacted at least once; its final size stays bounded by one
	// checkpoint image plus the post-checkpoint suffix, far below the
	// ~200-frame unbounded size.
	if sz := d.Wal().Size(); sz > 64*1024 {
		t.Fatalf("auto-checkpoint never ran: log is %d bytes", sz)
	}
	// The trigger is growth since the last checkpoint, not absolute size:
	// compacting an insert-only log does not shrink it, so an absolute
	// trigger rewrote the whole database on every commit once the live
	// data passed the threshold (about 160 checkpoints for this load).
	// ~10 KiB of log in 2 KiB steps is a handful.
	if checkpoints < 1 || checkpoints > 10 {
		t.Fatalf("insert-only load took %d auto-checkpoints, want 1..10", checkpoints)
	}
	if err := d.CheckpointErr(); err != nil {
		t.Fatalf("CheckpointErr after clean checkpoints = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openFrags(t, dir, DurableOptions{})
	defer d2.Close()
	if n := len(fragRows(t, d2)); n != 200 {
		t.Fatalf("want 200 rows after auto-checkpointed restart, got %d", n)
	}
}

// TestAutoCheckpointFailureSurfaces checks that a failed auto-checkpoint
// is no longer discarded: the statement that triggered it still succeeds
// (it was durable before the checkpoint began), the failure is counted in
// db.checkpoint_errors, and CheckpointErr reports it for readiness probes.
func TestAutoCheckpointFailureSurfaces(t *testing.T) {
	fault := errors.New("injected checkpoint fault")
	errs := obs.Default.Counter("db.checkpoint_errors")
	before := errs.Value()
	d, _ := openFrags(t, t.TempDir(), DurableOptions{CheckpointBytes: 2048, Hooks: wal.Hooks{
		BeforeCheckpointRename: func() error { return fault },
	}})
	defer d.Close()
	for i := int64(0); d.CheckpointErr() == nil; i++ {
		if i == 200 {
			t.Fatal("auto-checkpoint never ran")
		}
		insertFrag(t, d, i, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
	}
	if err := d.CheckpointErr(); !errors.Is(err, fault) {
		t.Fatalf("CheckpointErr = %v, want the injected fault", err)
	}
	if got := errs.Value() - before; got != 1 {
		t.Fatalf("db.checkpoint_errors grew by %d, want 1", got)
	}
}

// TestApplyDMLAtomicOnPoisonedRow is the regression for the partial-apply
// bug: a statement whose batch contains an invalid row must leave the
// table completely untouched, even when valid rows precede the poison.
func TestApplyDMLAtomicOnPoisonedRow(t *testing.T) {
	dir := t.TempDir()
	d, _ := openFrags(t, dir, DurableOptions{})
	defer d.Close()
	insertFrag(t, d, 1, "pre-existing")
	err := d.ApplyDML("frags", []Mutation{
		{Kind: MutInsert, Row: Row{int64(2), "fine"}},
		{Kind: MutInsert, Row: Row{nil, "poison: id is NOT NULL"}},
		{Kind: MutInsert, Row: Row{int64(3), "never reached"}},
	})
	if err == nil {
		t.Fatal("poisoned batch applied")
	}
	rows := fragRows(t, d)
	if len(rows) != 1 || rows[1] != "pre-existing" {
		t.Fatalf("poisoned statement partially applied: %v", rows)
	}
	// And nothing about it reached the log: a restart sees the same state.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _ := openFrags(t, dir, DurableOptions{})
	defer d2.Close()
	if rows := fragRows(t, d2); len(rows) != 1 {
		t.Fatalf("poisoned statement leaked into WAL: %v", rows)
	}
}
