// Package warehouse implements the Unifying Database of the paper's
// Section 5: an integrated schema over an extensible DBMS, split into a
// read-only public space holding the restructured external data and
// per-user updatable spaces; the loader; incremental (self-maintainable)
// view maintenance versus full reload; archival of disappeared sources
// (C15); and manual/automatic refresh modes. A warehouse opened with
// OpenDurable persists every acknowledged statement through the engine's
// write-ahead log, ownership and sharing included.
package warehouse

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"genalg/internal/adapter"
	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/genops"
	"genalg/internal/obs"
	"genalg/internal/sources"
	"genalg/internal/sqlang"
	"genalg/internal/storage"
	"genalg/internal/wal"
)

// Public-space table names of the integrated schema.
const (
	TableFragments    = "fragments"
	TableGenes        = "genes"
	TableFragmentAlts = "fragment_alts"
	TableGeneAlts     = "gene_alts"
	// TableObservations holds what each source last said about each
	// entity, one row per (id, source) with the value packed:
	// observations(id, source, term, organism, description, version,
	// quality, value). The four tables above are derived from it by the
	// integrator; their joined source column is display only.
	TableObservations = "observations"
	TableArchive      = "archive"
	TableQuarantine   = "quarantine"
	// TableUserTables records each user table's owner and whether it is
	// shared: user_tables(name, owner, shared).
	TableUserTables = "user_tables"
)

// Warehouse is a Unifying Database instance.
type Warehouse struct {
	DB     *db.DB
	Engine *sqlang.Engine
	Kernel *genops.Kernel

	// Workers bounds the source-loading fan-out of InitialLoad/FullReload.
	// 0 means the parallel package default (GENALG_WORKERS or GOMAXPROCS);
	// 1 forces serial loading.
	Workers int

	mu sync.Mutex
	// pending holds deltas deferred under manual refresh.
	pending []etl.Delta
	// manualRefresh defers maintenance until Refresh is called.
	manualRefresh bool
	wrapper       *etl.Wrapper

	// userMu serializes the writers of user_tables (CreateUserTable,
	// ShareTable), so a name's check and the claim or share that follows
	// are one step. Readers do not take it.
	userMu sync.Mutex
}

// Durable warehouses commit with genalgd's default group-commit window
// and checkpoint threshold (its -group-window and -checkpoint-bytes).
const (
	durableGroupWindow     = wal.DefaultGroupWindow
	durableCheckpointBytes = 64 << 20
)

// Open creates an in-memory warehouse with the integrated schema and the
// Genomics Algebra installed.
func Open(poolPages int, wrapper *etl.Wrapper) (*Warehouse, error) {
	d, err := db.OpenMemory(poolPages)
	if err != nil {
		return nil, err
	}
	k := genops.NewKernel()
	if err := adapter.Install(d, k); err != nil {
		return nil, err
	}
	return initWarehouse(d, k, wrapper)
}

// OpenDurable opens the WAL-backed warehouse in dir. A new directory is
// created and gets the integrated schema; an existing one is rebuilt by
// replaying its log. Every statement is durable once acknowledged — loads,
// maintenance, user tables, their rows, ownership and sharing — so there
// is no save step, and a crash loses only unacknowledged work.
func OpenDurable(dir string, poolPages int, wrapper *etl.Wrapper) (*Warehouse, error) {
	return openDurable(dir, db.DurableOptions{
		PoolPages:       poolPages,
		GroupWindow:     durableGroupWindow,
		CheckpointBytes: durableCheckpointBytes,
	}, wrapper)
}

// openDurable is OpenDurable over explicit engine options (crash tests
// inject wal.Hooks through it).
func openDurable(dir string, opts db.DurableOptions, wrapper *etl.Wrapper) (*Warehouse, error) {
	k := genops.NewKernel()
	opts.Install = func(d *db.DB) error { return adapter.Install(d, k) }
	d, _, err := db.OpenDurable(dir, opts)
	if err != nil {
		return nil, err
	}
	if err := checkObservations(d); err != nil {
		d.Close()
		return nil, fmt.Errorf("warehouse: %s: %w", dir, err)
	}
	w, err := initWarehouse(d, k, wrapper)
	if err != nil {
		d.Close()
		return nil, err
	}
	return w, nil
}

// checkObservations refuses a log whose public rows have no observations
// table behind them. Maintenance rewrites an entity from its observations,
// so on such a log the first delta for a merged entity would drop the
// other sources' data, and the observations cannot be rebuilt from the
// joined display rows. A log that stopped part-way through creating a
// new warehouse's schema holds no public rows and opens.
func checkObservations(d *db.DB) error {
	if _, ok := d.Table(TableObservations); ok {
		return nil
	}
	for _, name := range []string{TableFragments, TableGenes} {
		if tbl, ok := d.Table(name); ok && tbl.RowCount() > 0 {
			return fmt.Errorf("public rows without an %s table: the log predates per-source observations; load the sources again into a new directory", TableObservations)
		}
	}
	return nil
}

// initWarehouse wraps an engine that has the Genomics Algebra installed and
// creates whatever part of the integrated schema it lacks: all of it on a
// new engine, none on a reopened one.
func initWarehouse(d *db.DB, k *genops.Kernel, wrapper *etl.Wrapper) (*Warehouse, error) {
	w := &Warehouse{DB: d, Engine: sqlang.NewEngine(d), Kernel: k, wrapper: wrapper}
	if err := w.createIntegratedSchema(); err != nil {
		return nil, err
	}
	// Snapshot-time gauge: quarantine depth is the warehouse's data-quality
	// backlog. GaugeFunc replacement semantics keep re-opened warehouses
	// from leaking stale closures.
	obs.Default.GaugeFunc("warehouse.quarantine.records", func() float64 {
		return float64(w.QuarantineCount())
	})
	return w, nil
}

// Close closes the engine and, on a durable warehouse, its log. Every
// acknowledged statement is already durable: Close saves nothing.
func (w *Warehouse) Close() error { return w.DB.Close() }

func (w *Warehouse) createIntegratedSchema() error {
	schemas := []db.Schema{
		{
			Table: TableFragments,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "organism", Type: db.TString},
				{Name: "description", Type: db.TString},
				{Name: "source", Type: db.TString},
				{Name: "version", Type: db.TInt},
				{Name: "quality", Type: db.TFloat},
				{Name: "confidence", Type: db.TFloat},
				{Name: "nsources", Type: db.TInt},
				{Name: "fragment", Type: db.TOpaque, UDTName: "dna"},
			},
		},
		{
			Table: TableGenes,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "organism", Type: db.TString},
				{Name: "description", Type: db.TString},
				{Name: "source", Type: db.TString},
				{Name: "version", Type: db.TInt},
				{Name: "quality", Type: db.TFloat},
				{Name: "confidence", Type: db.TFloat},
				{Name: "nsources", Type: db.TInt},
				{Name: "gene", Type: db.TOpaque, UDTName: "gene"},
			},
		},
		{
			Table: TableFragmentAlts,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "provenance", Type: db.TString},
				{Name: "confidence", Type: db.TFloat},
				{Name: "fragment", Type: db.TOpaque, UDTName: "dna"},
			},
		},
		{
			Table: TableGeneAlts,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "provenance", Type: db.TString},
				{Name: "confidence", Type: db.TFloat},
				{Name: "gene", Type: db.TOpaque, UDTName: "gene"},
			},
		},
		{
			Table: TableObservations,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "source", Type: db.TString, NotNull: true},
				{Name: "term", Type: db.TString},
				{Name: "organism", Type: db.TString},
				{Name: "description", Type: db.TString},
				{Name: "version", Type: db.TInt},
				{Name: "quality", Type: db.TFloat},
				{Name: "value", Type: db.TBytes},
			},
		},
		{
			Table: TableArchive,
			Columns: []db.Column{
				{Name: "id", Type: db.TString, NotNull: true},
				{Name: "source", Type: db.TString},
				{Name: "archived_at", Type: db.TInt},
				{Name: "payload", Type: db.TBytes},
			},
		},
		{
			// Quarantine preserves malformed source records — reason plus
			// raw payload — instead of letting them poison a load (the
			// bdbms-style handling of partially trusted source data).
			Table: TableQuarantine,
			Columns: []db.Column{
				{Name: "id", Type: db.TString},
				{Name: "source", Type: db.TString},
				{Name: "stage", Type: db.TString},
				{Name: "reason", Type: db.TString},
				{Name: "payload", Type: db.TString},
				{Name: "tick", Type: db.TInt},
			},
		},
		{
			Table: TableUserTables,
			Columns: []db.Column{
				{Name: "name", Type: db.TString, NotNull: true},
				{Name: "owner", Type: db.TString, NotNull: true},
				{Name: "shared", Type: db.TBool, NotNull: true},
			},
		},
	}
	// The integrated schema is indexed on id for incremental maintenance,
	// user_tables on name for the space checks.
	indexed := map[string]string{TableFragments: "id", TableGenes: "id",
		TableFragmentAlts: "id", TableGeneAlts: "id", TableObservations: "id",
		TableUserTables: "name"}
	for _, s := range schemas {
		if err := w.ensureTable(s, indexed[s.Table]); err != nil {
			return err
		}
	}
	return nil
}

// ensureTable creates a table, and a B-tree index on btreeCol unless that
// is empty, when either is missing. Each is its own logged DDL statement,
// so a crash can leave a prefix of them; the next open completes it.
func (w *Warehouse) ensureTable(s db.Schema, btreeCol string) error {
	tbl, ok := w.DB.Table(s.Table)
	if !ok {
		var err error
		if tbl, err = w.DB.CreateTable(s); err != nil {
			return err
		}
	}
	if btreeCol == "" || tbl.HasBTreeIndex(btreeCol) {
		return nil
	}
	return w.DB.CreateBTreeIndexOn(s.Table, btreeCol)
}

// PublicTables lists the read-only public-space tables. The chromosomes
// and genomes tables exist once AssembleGenomes has run.
func PublicTables() []string {
	return []string{TableFragments, TableGenes, TableFragmentAlts, TableGeneAlts,
		TableObservations, TableArchive, TableQuarantine, TableChromosomes, TableGenomes, TableCrossRefs,
		TableUserTables}
}

func isPublicTable(name string) bool {
	for _, t := range PublicTables() {
		if strings.EqualFold(t, name) {
			return true
		}
	}
	return false
}

// Query executes a statement as the given user, enforcing the paper's space
// rules: the public schema is read-only to users ("the schema containing
// the external data is read-only"); user tables are updatable by their
// owners and readable by everyone when shared. Statements run inside ctx's
// trace (a "sqlang.statement" span with per-operator children) when one is
// active.
func (w *Warehouse) Query(ctx context.Context, user, sql string) (*sqlang.Result, error) {
	stmt, err := sqlang.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlang.InsertStmt:
		if _, err := w.checkWritable(user, s.Table); err != nil {
			return nil, err
		}
	case *sqlang.DeleteStmt:
		if _, err := w.checkWritable(user, s.Table); err != nil {
			return nil, err
		}
	case *sqlang.UpdateStmt:
		if _, err := w.checkWritable(user, s.Table); err != nil {
			return nil, err
		}
	case *sqlang.CreateTableStmt:
		return nil, fmt.Errorf("warehouse: use CreateUserTable to create tables")
	case *sqlang.CreateIndexStmt:
		if isPublicTable(s.Table) {
			return nil, fmt.Errorf("warehouse: public table %s is managed by the warehouse", s.Table)
		}
		if _, err := w.checkWritable(user, s.Table); err != nil {
			return nil, err
		}
	case *sqlang.SelectStmt:
		// Reads: public tables always; user tables if owned or shared.
		for _, tr := range s.From {
			if err := w.checkReadable(user, tr.Name); err != nil {
				return nil, err
			}
		}
		for _, j := range s.Joins {
			if err := w.checkReadable(user, j.Table.Name); err != nil {
				return nil, err
			}
		}
		// The checks ran on this very text, so it may go through the
		// engine's plan cache: a cached template fixes the tables read.
		return w.Engine.ExecCtx(ctx, sql)
	}
	return w.Engine.ExecStmtSQLCtx(ctx, stmt, sql)
}

// userTable is one user_tables row.
type userTable struct {
	rid    storage.RID
	owner  string
	shared bool
}

// lookupUserTable reads name's user_tables row; ok=false when no user has
// claimed the name. ShareTable replaces a row in one statement, which can
// move it between the index lookup and the fetch; the lookup then runs
// again.
func (w *Warehouse) lookupUserTable(name string) (userTable, bool, error) {
	tbl, _ := w.DB.Table(TableUserTables)
	for attempt := 0; ; attempt++ {
		rids, err := tbl.IndexLookup("name", name)
		if err != nil || len(rids) == 0 {
			return userTable{}, false, err
		}
		row, err := tbl.Get(rids[0])
		if err == nil {
			return userTable{rid: rids[0], owner: row[1].(string), shared: row[2].(bool)}, true, nil
		}
		if attempt == 2 {
			return userTable{}, false, err
		}
	}
}

// checkWritable returns the user_tables row of a table the user may
// write.
func (w *Warehouse) checkWritable(user, table string) (userTable, error) {
	if isPublicTable(table) {
		return userTable{}, fmt.Errorf("warehouse: public table %s is read-only (loaded via ETL)", table)
	}
	ut, ok, err := w.lookupUserTable(table)
	switch {
	case err != nil:
		return userTable{}, err
	case !ok:
		return userTable{}, fmt.Errorf("warehouse: unknown table %s", table)
	case ut.owner != user:
		return userTable{}, fmt.Errorf("warehouse: table %s belongs to %s, not %s", table, ut.owner, user)
	}
	return ut, nil
}

func (w *Warehouse) checkReadable(user, table string) error {
	if isPublicTable(table) {
		return nil
	}
	ut, ok, err := w.lookupUserTable(table)
	switch {
	case err != nil:
		return err
	case !ok:
		return fmt.Errorf("warehouse: unknown table %s", table)
	case ut.owner != user && !ut.shared:
		return fmt.Errorf("warehouse: table %s is private to %s", table, ut.owner)
	}
	return nil
}

// CreateUserTable creates an updatable table in the user's space (C13:
// integration of self-generated data).
func (w *Warehouse) CreateUserTable(user string, schema db.Schema) error {
	if user == "" {
		return fmt.Errorf("warehouse: user required")
	}
	if isPublicTable(schema.Table) {
		return fmt.Errorf("warehouse: %s collides with a public table", schema.Table)
	}
	w.userMu.Lock()
	defer w.userMu.Unlock()
	//genalgvet:ignore lockorder userMu orders only user_tables writers: a name's check and its durable claim must be one step against a competing CreateUserTable; reads and all other statements never take it
	return w.createUserTableLocked(user, schema)
}

// createUserTableLocked is CreateUserTable under userMu. The user_tables
// row that claims the name is committed before the table's DDL, so a
// crash between the two leaves a claimed name without a table, which its
// owner can create again.
func (w *Warehouse) createUserTableLocked(user string, schema db.Schema) error {
	ut, claimed, err := w.lookupUserTable(schema.Table)
	if err != nil {
		return err
	}
	if claimed && ut.owner != user {
		return fmt.Errorf("warehouse: table %s belongs to %s, not %s", schema.Table, ut.owner, user)
	}
	if _, exists := w.DB.Table(schema.Table); exists {
		return fmt.Errorf("warehouse: table %s already exists", schema.Table)
	}
	if !claimed {
		err := w.DB.ApplyDML(TableUserTables, []db.Mutation{{Kind: db.MutInsert, Row: db.Row{schema.Table, user, false}}})
		if err != nil {
			return err
		}
		if ut, _, err = w.lookupUserTable(schema.Table); err != nil {
			return err
		}
	}
	if _, err := w.DB.CreateTable(schema); err != nil {
		// Release the claim of a table that could not be created.
		return errors.Join(err, w.DB.ApplyDML(TableUserTables, []db.Mutation{{Kind: db.MutDelete, RID: ut.rid}}))
	}
	return nil
}

// ShareTable marks a user table readable by all users ("does not exclude
// sharing of data between users").
func (w *Warehouse) ShareTable(user, table string) error {
	w.userMu.Lock()
	defer w.userMu.Unlock()
	ut, err := w.checkWritable(user, table)
	if err != nil || ut.shared {
		return err
	}
	//genalgvet:ignore lockorder userMu only orders user_tables writers: the share must replace the row read under it; reads and all other statements never take it
	return w.DB.ApplyDML(TableUserTables, []db.Mutation{
		{Kind: db.MutDelete, RID: ut.rid},
		{Kind: db.MutInsert, Row: db.Row{table, ut.owner, true}},
	})
}

// entityTables are the public tables an integrated entity's rows live in.
var entityTables = []string{TableFragments, TableFragmentAlts, TableGenes, TableGeneAlts}

// tableFor returns the public table pair for an entry's GDT kind.
func tableFor(v gdt.Value) (main, alts string, err error) {
	switch v.Kind() {
	case gdt.KindGene:
		return TableGenes, TableGeneAlts, nil
	case gdt.KindDNA:
		return TableFragments, TableFragmentAlts, nil
	}
	return "", "", fmt.Errorf("warehouse: no public table for GDT kind %v", v.Kind())
}

// loadIntegrated inserts integrated entities (primary rows plus
// alternative rows) with one statement per public table, so a durable
// load commits at most four WAL transactions whatever its size.
func (w *Warehouse) loadIntegrated(merged []etl.Integrated) error {
	muts := map[string][]db.Mutation{}
	for _, ig := range merged {
		v, ok := ig.Value.Value()
		if !ok {
			return fmt.Errorf("warehouse: integrated entity %s has no value", ig.ID)
		}
		main, altsTable, err := tableFor(v)
		if err != nil {
			return err
		}
		muts[main] = append(muts[main], db.Mutation{Kind: db.MutInsert, Row: db.Row{
			ig.ID, ig.Organism, ig.Description, strings.Join(ig.Sources, "+"),
			int64(ig.Version), ig.Quality, ig.Value.Confidence(), int64(len(ig.Sources)), v,
		}})
		for _, alt := range ig.Value.Alternatives() {
			muts[altsTable] = append(muts[altsTable], db.Mutation{Kind: db.MutInsert, Row: db.Row{ig.ID, alt.Provenance, alt.Confidence, alt.Value}})
		}
	}
	for _, table := range entityTables {
		if err := w.DB.ApplyDML(table, muts[table]); err != nil {
			return err
		}
	}
	return nil
}

// loadEntries stores wrapped entries as observations, in one statement,
// then integrates them and writes the public rows they derive.
func (w *Warehouse) loadEntries(entries []etl.Entry) (etl.IntegrationStats, error) {
	muts := make([]db.Mutation, len(entries))
	for i, e := range entries {
		muts[i] = db.Mutation{Kind: db.MutInsert, Row: observationRow(e)}
	}
	if err := w.DB.ApplyDML(TableObservations, muts); err != nil {
		return etl.IntegrationStats{}, err
	}
	merged, stats := etl.Integrate(entries)
	return stats, w.loadIntegrated(merged)
}

// deleteEntity removes an entity's rows from both the primary and
// alternative tables, using the id indexes.
func (w *Warehouse) deleteEntity(id string) error {
	for _, tname := range entityTables {
		tbl, _ := w.DB.Table(tname)
		rids, err := tbl.IndexLookup("id", id)
		if err != nil {
			return err
		}
		muts := make([]db.Mutation, 0, len(rids))
		for _, rid := range rids {
			muts = append(muts, db.Mutation{Kind: db.MutDelete, RID: rid})
		}
		// One statement per table: the entity's rows vanish atomically
		// for readers and as one WAL transaction on durable engines.
		if err := w.DB.ApplyDML(tname, muts); err != nil {
			return err
		}
	}
	return nil
}

// CountPublic returns the number of primary entities in the public space.
func (w *Warehouse) CountPublic() int {
	n := 0
	for _, tname := range []string{TableFragments, TableGenes} {
		tbl, _ := w.DB.Table(tname)
		n += tbl.RowCount()
	}
	return n
}

// ArchiveSource copies every observation the named source contributed
// into the archive table (requirement C15: "the company's valuable
// knowledge should be preserved"). The public space is unchanged; the
// archive holds the packed values with a logical timestamp.
func (w *Warehouse) ArchiveSource(source string, tick int64) (int, error) {
	tbl, _ := w.DB.Table(TableObservations)
	var muts []db.Mutation
	err := tbl.Scan(nil, func(_ storage.RID, row db.Row) bool {
		if row[1] == source {
			muts = append(muts, db.Mutation{Kind: db.MutInsert, Row: db.Row{row[0], source, tick, row[7]}})
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	if err := w.DB.ApplyDML(TableArchive, muts); err != nil {
		return 0, err
	}
	return len(muts), nil
}

// RestoreFromArchive returns the packed GDT values archived for a source.
func (w *Warehouse) RestoreFromArchive(source string) ([]gdt.Value, error) {
	arch, _ := w.DB.Table(TableArchive)
	var out []gdt.Value
	var innerErr error
	err := arch.Scan(nil, func(rid storage.RID, row db.Row) bool {
		if row[1] != source {
			return true
		}
		v, err := gdt.Unpack(row[3].([]byte))
		if err != nil {
			innerErr = err
			return false
		}
		out = append(out, v)
		return true
	})
	if innerErr != nil {
		return nil, innerErr
	}
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out, nil
}

// InitialLoad wraps, integrates, and loads the full contents of the given
// repositories — the warehouse bootstrap used by examples and benches. It
// degrades gracefully: malformed records are quarantined (queryable via
// SELECT * FROM quarantine) and a wholly failed source is skipped rather
// than aborting its siblings; an error is returned only when storage fails
// or every source failed. Use InitialLoadReport for the per-source detail
// and retry control.
//
// Parsing and wrapping are CPU-bound and independent per repository, so
// they fan out across w.Workers goroutines. Entries are concatenated in
// repository order before integration, so the result is identical to a
// serial load. The bootstrap runs inside a "warehouse.initial_load" trace
// span with one child per source when ctx carries a tracer.
func (w *Warehouse) InitialLoad(ctx context.Context, repos []*sources.Repo) (etl.IntegrationStats, error) {
	rs := make([]sources.Repository, len(repos))
	for i, r := range repos {
		rs[i] = r
	}
	stats, rep, err := w.InitialLoadReport(ctx, rs, etl.RetryPolicy{})
	if err != nil {
		return stats, err
	}
	if len(rep.Failed) == len(repos) && len(repos) > 0 {
		return stats, fmt.Errorf("warehouse: every source failed, first: %w", rep.Failed[0].Err)
	}
	return stats, nil
}
