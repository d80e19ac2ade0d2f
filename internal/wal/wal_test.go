package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"genalg/internal/obs"
)

func testOpts() Options {
	return Options{Registry: obs.New()}
}

func mkTxn(table string, n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, Record{Type: RecInsert, Table: table, Data: []byte(fmt.Sprintf("row-%d", i))})
	}
	return recs
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, txns, rec, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 0 || rec.Txns != 0 || rec.TornBytes != 0 {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	want := [][]Record{
		mkTxn("frags", 3),
		{{Type: RecCreateTable, Data: []byte(`{"table":"t"}`)}},
		{{Type: RecDelete, Table: "frags", Data: []byte("row-1")},
			{Type: RecInsert, Table: "frags", Data: []byte("row-1b")}},
	}
	for _, recs := range want {
		lsn, err := l.AppendTxn(recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, rec, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("clean log reported torn bytes: %+v", rec)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d txns, want %d", len(got), len(want))
	}
	for i, txn := range got {
		if txn.Seq != uint64(i+1) {
			t.Errorf("txn %d has seq %d", i, txn.Seq)
		}
		if len(txn.Records) != len(want[i]) {
			t.Fatalf("txn %d has %d records, want %d", i, len(txn.Records), len(want[i]))
		}
		for j, r := range txn.Records {
			w := want[i][j]
			if r.Type != w.Type || r.Table != w.Table || !bytes.Equal(r.Data, w.Data) {
				t.Errorf("txn %d record %d = %+v, want %+v", i, j, r, w)
			}
		}
	}
}

// TestTornTailEveryByte truncates the log at every byte boundary of the
// final frame and checks that recovery yields exactly the preceding
// transactions — never an error, never a partial transaction.
func TestTornTailEveryByte(t *testing.T) {
	full := append(encodeFrame(1, mkTxn("a", 2)), encodeFrame(2, mkTxn("b", 1))...)
	lastStart := len(encodeFrame(1, mkTxn("a", 2)))
	for cut := lastStart; cut < len(full); cut++ {
		txns, valid := Decode(full[:cut])
		if len(txns) != 1 {
			t.Fatalf("cut at %d: decoded %d txns, want 1", cut, len(txns))
		}
		if valid != int64(lastStart) {
			t.Fatalf("cut at %d: valid prefix %d, want %d", cut, valid, lastStart)
		}
	}
	// The intact log decodes both.
	txns, valid := Decode(full)
	if len(txns) != 2 || valid != int64(len(full)) {
		t.Fatalf("intact log decoded %d txns valid=%d", len(txns), valid)
	}

	// Open must physically truncate a torn file and keep appending after it.
	path := filepath.Join(t.TempDir(), "wal.log")
	if err := os.WriteFile(path, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l, txns2, rec, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns2) != 1 || rec.TornBytes == 0 {
		t.Fatalf("torn open: %d txns, recovery %+v", len(txns2), rec)
	}
	lsn, err := l.AppendTxn(mkTxn("c", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, txns3, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns3) != 2 || txns3[1].Records[0].Table != "c" {
		t.Fatalf("post-truncation append lost: %d txns", len(txns3))
	}
}

func TestCorruptFrameStopsDecode(t *testing.T) {
	f1 := encodeFrame(1, mkTxn("a", 1))
	f2 := encodeFrame(2, mkTxn("b", 1))
	f3 := encodeFrame(3, mkTxn("c", 1))
	data := append(append(append([]byte(nil), f1...), f2...), f3...)
	// Flip one payload byte in frame 2: its CRC fails, and everything from
	// there on is discarded even though frame 3 is intact.
	data[len(f1)+frameHdrLen+2] ^= 0xff
	txns, valid := Decode(data)
	if len(txns) != 1 || valid != int64(len(f1)) {
		t.Fatalf("corrupt mid-frame: %d txns valid=%d, want 1 txn valid=%d", len(txns), valid, len(f1))
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	reg := obs.New()
	l, _, _, err := Open(path, Options{Registry: reg, GroupWindow: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 32
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.AppendTxn(mkTxn("t", 1))
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = l.WaitDurable(lsn)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	fsyncs := findCounter(t, reg, "wal.fsyncs")
	appends := findCounter(t, reg, "wal.appends")
	if appends != n {
		t.Fatalf("appends = %d, want %d", appends, n)
	}
	if fsyncs == 0 || fsyncs > appends {
		t.Fatalf("fsyncs = %d out of range (appends %d)", fsyncs, appends)
	}
	t.Logf("group commit: %d commits in %d fsyncs", appends, fsyncs)
}

func findCounter(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return int64(m.Value)
		}
	}
	return 0
}

// TestCrashAfterAppend injects a crash between append and fsync: the
// transaction's bytes are in the file but never durable, so the simulated
// durable prefix excludes it.
func TestCrashAfterAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	crash := false
	opts := testOpts()
	opts.Hooks.AfterAppend = func(lsn int64) error {
		if crash {
			return ErrSimulatedCrash
		}
		return nil
	}
	l, _, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTxn(mkTxn("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	durable := l.SyncedLSN()

	crash = true
	if _, err := l.AppendTxn(mkTxn("b", 1)); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("append after crash point: %v", err)
	}
	// The log is poisoned: nothing works until reopen.
	if _, err := l.AppendTxn(mkTxn("c", 1)); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("append on poisoned log: %v", err)
	}
	if l.SyncedLSN() != durable {
		t.Fatalf("durable watermark moved after crash: %d != %d", l.SyncedLSN(), durable)
	}

	// Recover from the durable prefix, as a restart after kill -9 would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	txns, _ := Decode(data[:durable])
	if len(txns) != 1 || txns[0].Records[0].Table != "a" {
		t.Fatalf("durable prefix recovered %d txns", len(txns))
	}
}

// TestCrashBeforeSync injects a crash at the fsync itself: the waiting
// commit must fail, not falsely acknowledge.
func TestCrashBeforeSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	opts := testOpts()
	opts.Hooks.BeforeSync = func() error { return ErrSimulatedCrash }
	l, _, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendTxn(mkTxn("a", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("WaitDurable across crashed fsync: %v", err)
	}
	if l.SyncedLSN() != 0 {
		t.Fatalf("durable watermark advanced through crashed fsync: %d", l.SyncedLSN())
	}
}

func TestCheckpointCompactsAndSurvives(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lsn, err := l.AppendTxn(mkTxn("t", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	err = l.Checkpoint(func(appendTxn func([]Record) error) error {
		return appendTxn([]Record{{Type: RecInsert, Table: "t", Data: []byte("compacted")}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() >= before {
		t.Fatalf("checkpoint did not shrink the log: %d -> %d", before, l.Size())
	}
	// Appends continue on the new file.
	lsn, err := l.AppendTxn(mkTxn("t2", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, txns, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 2 {
		t.Fatalf("recovered %d txns after checkpoint, want 2", len(txns))
	}
	if string(txns[0].Records[0].Data) != "compacted" || txns[1].Records[0].Table != "t2" {
		t.Fatalf("checkpoint content wrong: %+v", txns)
	}
}

// TestCrashBeforeCheckpointRename crashes after the rewrite is written but
// before it replaces the live log: recovery must use the old log and
// delete the orphaned rewrite.
func TestCrashBeforeCheckpointRename(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	opts := testOpts()
	opts.Hooks.BeforeCheckpointRename = func() error { return ErrSimulatedCrash }
	l, _, _, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		lsn, err := l.AppendTxn(mkTxn("t", 2))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	err = l.Checkpoint(func(appendTxn func([]Record) error) error {
		return appendTxn([]Record{{Type: RecInsert, Table: "t", Data: []byte("compacted")}})
	})
	if !errors.Is(err, ErrSimulatedCrash) {
		t.Fatalf("checkpoint across crash point: %v", err)
	}
	if _, err := os.Stat(path + ".ckpt"); err != nil {
		t.Fatalf("orphaned rewrite missing before reopen: %v", err)
	}
	// Restart: old log is authoritative, orphan removed. The crashed
	// process's exit would drop its lock; closing the poisoned log does.
	l.Close()
	_, txns, rec, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(txns) != 5 || rec.TornBytes != 0 {
		t.Fatalf("recovered %d txns (recovery %+v), want 5", len(txns), rec)
	}
	if _, err := os.Stat(path + ".ckpt"); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint not removed: %v", err)
	}
}

func TestEmptyTxnRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.AppendTxn(nil); err == nil {
		t.Fatal("empty transaction accepted")
	}
}

// TestSecondOpenOfLiveLogFails: a live Log excludes every other opener,
// across a checkpoint's file swap, until it is closed.
func TestSecondOpenOfLiveLogFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendTxn(mkTxn("t", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, testOpts()); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open of a live log: %v, want ErrLocked", err)
	}
	err = l.Checkpoint(func(appendTxn func([]Record) error) error {
		return appendTxn(mkTxn("t", 1))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Open(path, testOpts()); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open after checkpoint: %v, want ErrLocked", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, txns, _, err := Open(path, testOpts())
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	defer l2.Close()
	if len(txns) != 1 {
		t.Fatalf("recovered %d txns, want the 1 checkpointed", len(txns))
	}
}
