package warehouse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"genalg/internal/adapter"
	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/ontology"
	"genalg/internal/seq"
	"genalg/internal/sources"
	"genalg/internal/wal"
)

// copyDurablePrefix copies the fsynced prefix of w's log into a fresh
// directory: what a crash at this instant leaves on disk.
func copyDurablePrefix(t *testing.T, dir string, w *Warehouse) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, db.WalName))
	if err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	synced := w.DB.Wal().SyncedLSN()
	if err := os.WriteFile(filepath.Join(dst, db.WalName), data[:synced], 0o644); err != nil {
		t.Fatal(err)
	}
	return dst
}

func reopen(t *testing.T, dir string) *Warehouse {
	t.Helper()
	w, err := OpenDurable(dir, 256, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// intColumn runs a one-column integer query and returns its values sorted.
func intColumn(t *testing.T, w *Warehouse, user, sql string) []int64 {
	t.Helper()
	r := mustQuery(t, w, user, sql)
	out := make([]int64, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[0].(int64)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// insertRange inserts n = lo..hi-1 into alice_n, perStmt rows a
// statement, each row padded so the heap outgrows a small buffer pool.
func insertRange(t *testing.T, w *Warehouse, lo, hi, perStmt int) {
	t.Helper()
	pad := strings.Repeat("x", 200)
	for start := lo; start < hi; start += perStmt {
		var vals []string
		for n := start; n < hi && n < start+perStmt; n++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s')", n, pad))
		}
		mustQuery(t, w, "alice", "INSERT INTO alice_n VALUES "+strings.Join(vals, ", "))
	}
}

// TestReopenIsLatestAcknowledgedState replays the torn-reopen defect of
// the removed file-pager save path: a user table saved at 10 rows, then
// 2000 inserts and 5 deletes, then Close without a save step. With this
// test's rows that path reopened to 14 rows, n 5..18, neither the saved
// state nor the latest: pages the buffer pool had evicted after the save
// mixed with the catalog written by it. Through the log, the reopened
// warehouse holds exactly the latest acknowledged state, whether it was
// closed or abandoned (recovered from a copy of its fsynced log).
func TestReopenIsLatestAcknowledgedState(t *testing.T) {
	for _, closeFirst := range []bool{true, false} {
		name := map[bool]string{true: "close", false: "abandon"}[closeFirst]
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			// A 64-page pool is a quarter of the heap, so pages evict, as
			// the defect needed.
			w, err := OpenDurable(dir, 64, etl.NewWrapper(ontology.Standard()))
			if err != nil {
				t.Fatal(err)
			}
			if err := w.CreateUserTable("alice", db.Schema{
				Table:   "alice_n",
				Columns: []db.Column{{Name: "n", Type: db.TInt}, {Name: "pad", Type: db.TString}},
			}); err != nil {
				t.Fatal(err)
			}
			insertRange(t, w, 0, 10, 10)
			insertRange(t, w, 10, 2010, 100)
			if r := mustQuery(t, w, "alice", `DELETE FROM alice_n WHERE n < 5`); r.Affected != 5 {
				t.Fatalf("DELETE affected %d rows, want 5", r.Affected)
			}
			recoverDir := dir
			if closeFirst {
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			} else {
				recoverDir = copyDurablePrefix(t, dir, w)
				w.Close()
			}

			w2 := reopen(t, recoverDir)
			got := intColumn(t, w2, "alice", `SELECT n FROM alice_n`)
			if len(got) != 2005 || got[0] != 5 || got[len(got)-1] != 2009 {
				t.Fatalf("reopened to %d rows, n %d..%d; want 2005 rows, n 5..2009",
					len(got), got[0], got[len(got)-1])
			}
			for i, n := range got {
				if n != int64(i+5) {
					t.Fatalf("row %d is n=%d, want %d", i, n, i+5)
				}
			}
		})
	}
}

// TestDurableInitialLoadCommitsPerTable: a durable InitialLoad writes
// the observations and each public table in one statement apiece, so it
// commits at most five WAL transactions however many entities it loads
// (one statement per entity made it about two per entity).
func TestDurableInitialLoadCommitsPerTable(t *testing.T) {
	commits := 0
	w, err := openDurable(t.TempDir(), db.DurableOptions{PoolPages: 256, Hooks: wal.Hooks{
		AfterAppend: func(int64) error { commits++; return nil },
	}}, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Two clean sources that disagree on every record's content: each
	// entity merges two observations and keeps alternative rows.
	repos := []*sources.Repo{
		sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable, sources.Generate(100, sources.GenOptions{N: 60})),
		sources.NewRepo("csv1", sources.FormatCSV, sources.CapQueryable, sources.Generate(200, sources.GenOptions{N: 60})),
	}
	before := commits
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	if n := w.CountPublic(); n < 50 {
		t.Fatalf("loaded %d entities, want at least 50", n)
	}
	if q := mustQuery(t, w, "alice", `SELECT id FROM quarantine`); len(q.Rows) != 0 {
		t.Fatalf("clean sources quarantined %d records", len(q.Rows))
	}
	if got := commits - before; got > 5 {
		t.Errorf("InitialLoad committed %d WAL transactions, want at most 5 (observations plus the four public tables)", got)
	}
}

// TestWarehouseCrashKeepsAcknowledged crashes the log during one more
// statement after a load, user DDL, a share, a user insert and a round of
// maintenance, and recovers from the fsynced prefix: the recovered
// warehouse holds exactly the acknowledged statements, with ownership and
// sharing intact.
func TestWarehouseCrashKeepsAcknowledged(t *testing.T) {
	dir := t.TempDir()
	var armed bool
	w, err := openDurable(dir, db.DurableOptions{PoolPages: 256, Hooks: wal.Hooks{
		AfterAppend: func(int64) error {
			if armed {
				return wal.ErrSimulatedCrash
			}
			return nil
		},
	}}, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	repos := twoRepos(t, 15)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	if err := w.CreateUserTable("alice", db.Schema{
		Table:   "alice_notes",
		Columns: []db.Column{{Name: "note", Type: db.TString}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.ShareTable("alice", "alice_notes"); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, w, "alice", `INSERT INTO alice_notes VALUES ('acknowledged')`)
	det, err := etl.NewSnapshotDiffMonitor(context.Background(), repos[1])
	if err != nil {
		t.Fatal(err)
	}
	repos[1].ApplyRandomUpdates(5, 4)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas to apply")
	}
	if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
		t.Fatal(err)
	}
	want := dumpPublic(t, w)

	armed = true
	if _, err := w.Query(context.Background(), "alice", `INSERT INTO alice_notes VALUES ('unacknowledged')`); err == nil {
		t.Fatal("statement acknowledged through a crashed log")
	}

	w2 := reopen(t, copyDurablePrefix(t, dir, w))
	if d := diffPublic(dumpPublic(t, w2), want); d != "" {
		t.Errorf("public space after recovery differs from the acknowledged state: %s", d)
	}
	r := mustQuery(t, w2, "bob", `SELECT note FROM alice_notes`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "acknowledged" {
		t.Fatalf("shared notes after recovery = %v, want only the acknowledged row", r.Rows)
	}
	if _, err := w2.Query(context.Background(), "bob", `INSERT INTO alice_notes VALUES ('x')`); err == nil {
		t.Error("ownership lost across recovery")
	}
	mustQuery(t, w2, "alice", `INSERT INTO alice_notes VALUES ('after recovery')`)
	owners := mustQuery(t, w2, "bob", `SELECT name, owner, shared FROM user_tables`)
	if len(owners.Rows) != 1 || !reflect.DeepEqual(owners.Rows[0], db.Row{"alice_notes", "alice", true}) {
		t.Errorf("user_tables after recovery = %v", owners.Rows)
	}
}

// TestCrashBetweenClaimAndTable crashes CreateUserTable after its
// user_tables claim is durable and before the table's DDL is: the name
// stays its owner's, who can create it again, and nobody else can take it.
func TestCrashBetweenClaimAndTable(t *testing.T) {
	dir := t.TempDir()
	appends := -1 // counts appends once armed; the second one crashes
	w, err := openDurable(dir, db.DurableOptions{PoolPages: 256, Hooks: wal.Hooks{
		AfterAppend: func(int64) error {
			if appends >= 0 {
				appends++
				if appends == 2 {
					return wal.ErrSimulatedCrash
				}
			}
			return nil
		},
	}}, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	schema := db.Schema{Table: "alice_t", Columns: []db.Column{{Name: "n", Type: db.TInt}}}
	appends = 0
	if err := w.CreateUserTable("alice", schema); err == nil {
		t.Fatal("CreateUserTable acknowledged through a crashed log")
	}

	rdir := copyDurablePrefix(t, dir, w)
	w2 := reopen(t, rdir)
	if _, ok := w2.DB.Table("alice_t"); ok {
		t.Fatal("the unacknowledged DDL survived the crash")
	}
	if ut, ok, err := w2.lookupUserTable("alice_t"); err != nil || !ok || ut.owner != "alice" {
		t.Fatalf("claim after crash = %+v, %v, %v; want alice's", ut, ok, err)
	}
	if err := w2.CreateUserTable("bob", schema); err == nil {
		t.Error("another user took a claimed name")
	}
	if err := w2.CreateUserTable("alice", schema); err != nil {
		t.Fatalf("owner could not create the claimed table again: %v", err)
	}
	mustQuery(t, w2, "alice", `INSERT INTO alice_t VALUES (7)`)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3 := reopen(t, rdir)
	if got := intColumn(t, w3, "alice", `SELECT n FROM alice_t`); !reflect.DeepEqual(got, []int64{7}) {
		t.Errorf("alice_t after reopen = %v", got)
	}
}

// TestCreateUserTableReleasesFailedClaim checks that a schema the engine
// rejects leaves the name unclaimed.
func TestCreateUserTableReleasesFailedClaim(t *testing.T) {
	w := newWarehouse(t)
	bad := db.Schema{Table: "t1", Columns: []db.Column{{Name: "a", Type: db.TInt}, {Name: "a", Type: db.TInt}}}
	if err := w.CreateUserTable("alice", bad); err == nil {
		t.Fatal("duplicate-column schema accepted")
	}
	if _, ok, err := w.lookupUserTable("t1"); err != nil || ok {
		t.Fatalf("failed create left a claim: ok=%v err=%v", ok, err)
	}
	if err := w.CreateUserTable("bob", db.Schema{Table: "t1", Columns: []db.Column{{Name: "a", Type: db.TInt}}}); err != nil {
		t.Fatalf("name not free after failed create: %v", err)
	}
	if err := w.CreateUserTable("bob", db.Schema{Table: "t1", Columns: []db.Column{{Name: "a", Type: db.TInt}}}); err == nil {
		t.Error("second create of the same table succeeded")
	}
}

// TestOpenDurableErrors checks that a directory that cannot hold a log is
// refused rather than opened empty.
func TestOpenDurableErrors(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if w, err := OpenDurable(file, 64, etl.NewWrapper(ontology.Standard())); err == nil {
		w.Close()
		t.Error("OpenDurable over a regular file succeeded")
	}
}

// writeLegacyLog writes a log the way a warehouse did before the
// observations table: the public tables named in tables, created through
// the engine directly, and rows inserted into fragments.
func writeLegacyLog(t *testing.T, dir string, tables []string, rows []db.Row) {
	t.Helper()
	schema := newWarehouse(t)
	k := genops.NewKernel()
	d, _, err := db.OpenDurable(dir, db.DurableOptions{Install: func(d *db.DB) error { return adapter.Install(d, k) }})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, name := range tables {
		tbl, _ := schema.DB.Table(name)
		if _, err := d.CreateTable(tbl.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	muts := make([]db.Mutation, len(rows))
	for i, row := range rows {
		muts[i] = db.Mutation{Kind: db.MutInsert, Row: row}
	}
	if err := d.ApplyDML(TableFragments, muts); err != nil {
		t.Fatal(err)
	}
}

// TestOpenDurableRefusesLogWithoutObservations checks that a log holding
// public rows but no observations is refused: its merged rows cannot be
// split back into the sources' observations, and maintaining them would
// drop the other sources' data.
func TestOpenDurableRefusesLogWithoutObservations(t *testing.T) {
	dir := t.TempDir()
	writeLegacyLog(t, dir, []string{TableFragments, TableGenes, TableFragmentAlts, TableGeneAlts},
		[]db.Row{{"SYN000001", "o", "d", "embl1+genbank1", int64(1), 0.95, 0.95, int64(2),
			gdt.DNA{ID: "SYN000001", Seq: seq.MustNucSeq(seq.AlphaDNA, "ACGTACGT")}}})
	w, err := OpenDurable(dir, 64, etl.NewWrapper(ontology.Standard()))
	if err == nil {
		w.Close()
		t.Fatal("a log without observations opened")
	}
	if !strings.Contains(err.Error(), "load the sources again") {
		t.Errorf("error does not say the directory must be loaded again: %v", err)
	}
}

// TestOpenDurableCompletesPartialSchema checks that a log which stopped
// part-way through creating a new warehouse's schema, public tables
// present but empty and no observations table yet, still opens and loads.
func TestOpenDurableCompletesPartialSchema(t *testing.T) {
	dir := t.TempDir()
	writeLegacyLog(t, dir, []string{TableFragments, TableGenes}, nil)
	w := reopen(t, dir)
	if _, err := w.InitialLoad(context.Background(), twoRepos(t, 6)); err != nil {
		t.Fatal(err)
	}
	if got := len(dumpPublic(t, w)[TableObservations]); got != 12 {
		t.Errorf("observations = %d, want 12", got)
	}
}
