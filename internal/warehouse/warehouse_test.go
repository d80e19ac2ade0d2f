package warehouse

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/obs"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/sqlang"
)

func newWarehouse(t testing.TB) *Warehouse {
	w, err := Open(2048, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func twoRepos(t testing.TB, n int) []*sources.Repo {
	// Two repositories with overlapping content: same seed, one noisy.
	clean := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
		sources.Generate(100, sources.GenOptions{N: n}))
	noisy := sources.NewRepo("embl1", sources.FormatFASTA, sources.CapQueryable,
		sources.Generate(100, sources.GenOptions{N: n, ErrorRate: 0.4}))
	return []*sources.Repo{clean, noisy}
}

func mustQuery(t testing.TB, w *Warehouse, user, sql string) *sqlang.Result {
	t.Helper()
	r, err := w.Query(context.Background(), user, sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return r
}

func TestInitialLoadAndQuery(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 30)
	stats, err := w.InitialLoad(context.Background(), repos)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Entities != 30 || stats.Observations != 60 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Conflicts == 0 || stats.Duplicates == 0 {
		t.Errorf("expected both conflicts and duplicates: %+v", stats)
	}
	if w.CountPublic() != 30 {
		t.Errorf("CountPublic = %d", w.CountPublic())
	}
	// Fragment and gene tables are both populated (every 3rd record is a
	// gene).
	r := mustQuery(t, w, "alice", `SELECT COUNT(*) FROM genes`)
	if r.Rows[0][0] != int64(10) {
		t.Errorf("genes = %v", r.Rows)
	}
	r = mustQuery(t, w, "alice", `SELECT COUNT(*) FROM fragments`)
	if r.Rows[0][0] != int64(20) {
		t.Errorf("fragments = %v", r.Rows)
	}
	// Conflicting entities kept their alternatives.
	r = mustQuery(t, w, "alice", `SELECT COUNT(*) FROM fragment_alts`)
	alts := r.Rows[0][0].(int64)
	r = mustQuery(t, w, "alice", `SELECT COUNT(*) FROM gene_alts`)
	alts += r.Rows[0][0].(int64)
	if int(alts) != stats.Conflicts {
		t.Errorf("stored alternatives %d != conflicts %d", alts, stats.Conflicts)
	}
	// Merged rows report both sources.
	r = mustQuery(t, w, "alice", `SELECT source FROM fragments WHERE nsources = 2 LIMIT 1`)
	if len(r.Rows) == 0 || !strings.Contains(r.Rows[0][0].(string), "+") {
		t.Errorf("merged source = %v", r.Rows)
	}
}

func TestPublicSpaceReadOnly(t *testing.T) {
	w := newWarehouse(t)
	if _, err := w.Query(context.Background(), "alice", `INSERT INTO fragments VALUES ('x','o','d','s',1,1.0,1.0,1, dna('x','ACGT'))`); err == nil {
		t.Error("insert into public table succeeded")
	}
	if _, err := w.Query(context.Background(), "alice", `DELETE FROM fragments`); err == nil {
		t.Error("delete from public table succeeded")
	}
	if _, err := w.Query(context.Background(), "alice", `CREATE INDEX ON fragments (organism)`); err == nil {
		t.Error("index on public table succeeded")
	}
	if _, err := w.Query(context.Background(), "alice", `CREATE TABLE mine (x int)`); err == nil {
		t.Error("raw CREATE TABLE allowed")
	}
	// Ownership is public data: readable, never writable by users.
	if _, err := w.Query(context.Background(), "alice", `INSERT INTO user_tables VALUES ('fragments', 'alice', true)`); err == nil {
		t.Error("user wrote user_tables")
	}
	mustQuery(t, w, "alice", `SELECT name, owner FROM user_tables`)
}

func TestUserSpaceIsolationAndSharing(t *testing.T) {
	w := newWarehouse(t)
	err := w.CreateUserTable("alice", db.Schema{
		Table: "alice_notes",
		Columns: []db.Column{
			{Name: "target", Type: db.TString},
			{Name: "note", Type: db.TString},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Owner can write and read.
	mustQuery(t, w, "alice", `INSERT INTO alice_notes VALUES ('SYN000001', 'looks like a promoter')`)
	r := mustQuery(t, w, "alice", `SELECT note FROM alice_notes`)
	if len(r.Rows) != 1 {
		t.Errorf("owner read = %v", r.Rows)
	}
	// Stranger can neither write nor read private tables.
	if _, err := w.Query(context.Background(), "bob", `INSERT INTO alice_notes VALUES ('x','y')`); err == nil {
		t.Error("stranger wrote to private table")
	}
	if _, err := w.Query(context.Background(), "bob", `SELECT * FROM alice_notes`); err == nil {
		t.Error("stranger read private table")
	}
	// Sharing opens reads, not writes.
	if err := w.ShareTable("bob", "alice_notes"); err == nil {
		t.Error("non-owner shared the table")
	}
	if err := w.ShareTable("alice", "alice_notes"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(context.Background(), "bob", `SELECT * FROM alice_notes`); err != nil {
		t.Errorf("shared read failed: %v", err)
	}
	if _, err := w.Query(context.Background(), "bob", `INSERT INTO alice_notes VALUES ('x','y')`); err == nil {
		t.Error("shared table writable by stranger")
	}
	// Collision with public names is rejected.
	if err := w.CreateUserTable("alice", db.Schema{Table: "fragments", Columns: []db.Column{{Name: "x", Type: db.TInt}}}); err == nil {
		t.Error("public-name collision accepted")
	}
}

func TestUserCanJoinPublicAndPrivate(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 12)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	err := w.CreateUserTable("alice", db.Schema{
		Table: "mylabels",
		Columns: []db.Column{
			{Name: "fid", Type: db.TString},
			{Name: "label", Type: db.TString},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustQuery(t, w, "alice", `INSERT INTO mylabels VALUES ('SYN000001', 'interesting')`)
	r := mustQuery(t, w, "alice",
		`SELECT f.id, m.label FROM fragments f JOIN mylabels m ON f.id = m.fid`)
	if len(r.Rows) != 1 || r.Rows[0][1] != "interesting" {
		t.Errorf("join = %v", r.Rows)
	}
}

func TestIncrementalMaintenance(t *testing.T) {
	w := newWarehouse(t)
	repo := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapLogged,
		sources.Generate(200, sources.GenOptions{N: 40}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	det, err := etl.NewLogMonitor(repo)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := det.Poll(context.Background()); err != nil { // drain initial-load history
		t.Fatal(err)
	}
	repo.ApplyRandomUpdates(7, 15)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) == 0 {
		t.Fatal("no deltas detected")
	}
	if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
		t.Fatal(err)
	}
	// The warehouse now mirrors the source exactly.
	assertMirrors(t, w, repo)
}

// assertMirrors checks that every source record appears in the public space
// with the same sequence, and the public count matches.
func assertMirrors(t *testing.T, w *Warehouse, repo *sources.Repo) {
	t.Helper()
	recs := repo.Records()
	if got := w.CountPublic(); got != len(recs) {
		t.Errorf("public entities = %d, source has %d", got, len(recs))
	}
	assertRecordsPresent(t, w, recs)
}

// assertRecordsPresent checks each source record appears in the public
// space with the same sequence (no count assertion, so it composes across
// multiple sources).
func assertRecordsPresent(t *testing.T, w *Warehouse, recs []sources.Record) {
	t.Helper()
	for _, rec := range recs {
		table := TableFragments
		col := 8
		if rec.ExonSpec != "" {
			table = TableGenes
		}
		r, err := w.Query(context.Background(), "test", fmt.Sprintf(`SELECT * FROM %s WHERE id = '%s'`, table, rec.ID))
		if err != nil {
			t.Fatalf("query %s: %v", rec.ID, err)
		}
		if len(r.Rows) != 1 {
			t.Errorf("record %s: %d rows in %s", rec.ID, len(r.Rows), table)
			continue
		}
		var seqStr string
		switch v := r.Rows[0][col].(type) {
		case gdt.DNA:
			seqStr = v.Seq.String()
		case gdt.Gene:
			seqStr = v.Seq.String()
		}
		if seqStr != rec.Sequence {
			t.Errorf("record %s sequence mismatch after maintenance", rec.ID)
		}
	}
}

func TestManualRefreshDefersUpdates(t *testing.T) {
	w := newWarehouse(t)
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(400, sources.GenOptions{N: 20}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	det, _ := etl.NewSnapshotDiffMonitor(context.Background(), repo)
	w.SetManualRefresh(true)
	repo.ApplyRandomUpdates(3, 10)
	deltas, _ := det.Poll(context.Background())
	if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
		t.Fatal(err)
	}
	if w.PendingDeltas() != len(deltas) {
		t.Errorf("pending = %d, want %d", w.PendingDeltas(), len(deltas))
	}
	// Warehouse content unchanged until Refresh.
	before := w.CountPublic()
	_ = before
	n, err := w.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != len(deltas) || w.PendingDeltas() != 0 {
		t.Errorf("Refresh applied %d, pending %d", n, w.PendingDeltas())
	}
	assertMirrors(t, w, repo)
}

func TestDeleteOfMergedEntityKeepsOtherSource(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 9)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	// Simulate source embl1 deleting SYN000001.
	rec := repos[1].Records()[1]
	d := etl.Delta{Source: "embl1", Kind: sources.MutDelete, ID: rec.ID, Before: &rec, Tick: 1}
	if _, err := w.ApplyDeltas(context.Background(), []etl.Delta{d}); err != nil {
		t.Fatal(err)
	}
	// The entity survives, now attributed only to genbank1.
	r := mustQuery(t, w, "x", fmt.Sprintf(`SELECT source FROM fragments WHERE id = '%s'`, rec.ID))
	if len(r.Rows) != 1 {
		t.Fatalf("entity gone after partial delete: %v", r.Rows)
	}
	if src := r.Rows[0][0].(string); strings.Contains(src, "embl1") {
		t.Errorf("source still lists embl1: %q", src)
	}
}

// TestArchiveAndRestore archives each of two overlapping sources: every
// value restored must be one of that source's own records, not the merged
// entity's primary, which may have come from the other source.
func TestArchiveAndRestore(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 12)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	for i, repo := range repos {
		n, err := w.ArchiveSource(repo.Name(), int64(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if n != 12 {
			t.Errorf("%s: archived = %d, want 12", repo.Name(), n)
		}
		restored, err := w.RestoreFromArchive(repo.Name())
		if err != nil {
			t.Fatal(err)
		}
		if len(restored) != 12 {
			t.Errorf("%s: restored = %d, want 12", repo.Name(), len(restored))
		}
		own, errs := w.wrapper.WrapAll(repo.Records(), repo.Name())
		if len(errs) > 0 {
			t.Fatal(errs[0])
		}
		for _, v := range restored {
			found := false
			for _, e := range own {
				found = found || gdt.Equal(v, e.Value)
			}
			if !found {
				t.Errorf("%s: restored %v is not one of its records", repo.Name(), v)
			}
		}
	}
	// Archive of an unknown source archives nothing.
	n, err := w.ArchiveSource("nosuch", 1)
	if err != nil || n != 0 {
		t.Errorf("unknown source archive = %d, %v", n, err)
	}
}

func TestGenomicQueriesOverWarehouse(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 15)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	// The paper's flagship query shape over the warehouse, with an algebra
	// UDF in WHERE.
	rec := repos[0].Records()[1]
	pat := rec.Sequence[40:64]
	r := mustQuery(t, w, "alice",
		fmt.Sprintf(`SELECT id FROM fragments WHERE contains(fragment, '%s')`, pat))
	found := false
	for _, row := range r.Rows {
		if row[0] == rec.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("contains query missed %s: %v", rec.ID, r.Rows)
	}
	// Central dogma over stored genes.
	r = mustQuery(t, w, "alice",
		`SELECT id, length(translate(splice(transcribe(gene)))) FROM genes LIMIT 3`)
	if len(r.Rows) == 0 {
		t.Error("no gene pipeline results")
	}
	for _, row := range r.Rows {
		if row[1].(int64) <= 0 {
			t.Errorf("empty protein for %v", row[0])
		}
	}
}

// TestQuerySelectsUsePlanCache: warehouse SELECTs that differ only in
// their literals reuse one cached plan and answer exactly as the
// uncached path does, and the space rules still refuse a private table
// whose template is already cached.
func TestQuerySelectsUsePlanCache(t *testing.T) {
	w := newWarehouse(t)
	w.Engine.Obs = obs.New()
	if _, err := w.InitialLoad(context.Background(), twoRepos(t, 15)); err != nil {
		t.Fatal(err)
	}
	hits := w.Engine.Obs.Counter("sqlang.plan_cache.hits")
	ids := mustQuery(t, w, "alice", `SELECT id FROM fragments LIMIT 10`).Rows
	if len(ids) != 10 {
		t.Fatalf("want 10 fragments, got %d", len(ids))
	}
	for _, row := range ids {
		sql := fmt.Sprintf(`SELECT id, organism, quality FROM fragments WHERE id = '%s'`, row[0])
		stmt, err := sqlang.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := w.Engine.ExecStmtSQLCtx(context.Background(), stmt, sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := mustQuery(t, w, "alice", sql); !reflect.DeepEqual(got.Rows, cold.Rows) || len(got.Rows) != 1 {
			t.Errorf("%s: got %v, cold %v", sql, got.Rows, cold.Rows)
		}
	}
	if hits.Value() == 0 {
		t.Fatal("ten SELECTs of one shape never hit the plan cache")
	}

	if err := w.CreateUserTable("alice", db.Schema{
		Table:   "alice_notes",
		Columns: []db.Column{{Name: "note", Type: db.TString}},
	}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, w, "alice", `INSERT INTO alice_notes VALUES ('a'), ('b')`)
	before := hits.Value()
	for _, note := range []string{"a", "b"} {
		mustQuery(t, w, "alice", fmt.Sprintf(`SELECT note FROM alice_notes WHERE note = '%s'`, note))
	}
	if hits.Value() == before {
		t.Fatal("the alice_notes template was not cached")
	}
	for _, note := range []string{"a", "c"} {
		if _, err := w.Query(context.Background(), "bob", fmt.Sprintf(`SELECT note FROM alice_notes WHERE note = '%s'`, note)); err == nil {
			t.Errorf("bob read alice's private table through a cached template (note = %q)", note)
		}
	}
}

func BenchmarkInitialLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := newWarehouse(b)
		repos := twoRepos(b, 100)
		if _, err := w.InitialLoad(context.Background(), repos); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIncrementalMaintenance(b *testing.B) {
	w := newWarehouse(b)
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(1, sources.GenOptions{N: 500}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		b.Fatal(err)
	}
	det, _ := etl.NewSnapshotDiffMonitor(context.Background(), repo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		repo.ApplyRandomUpdates(int64(i), 5)
		deltas, err := det.Poll(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.ApplyDeltas(context.Background(), deltas); err != nil {
			b.Fatal(err)
		}
	}
}

func TestUpdateRespectsSpaces(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 6)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(context.Background(), "alice", `UPDATE fragments SET quality = 0`); err == nil {
		t.Error("public table updated by user")
	}
	if err := w.CreateUserTable("alice", db.Schema{
		Table:   "alice_t",
		Columns: []db.Column{{Name: "n", Type: db.TInt}},
	}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, w, "alice", `INSERT INTO alice_t VALUES (1)`)
	if _, err := w.Query(context.Background(), "bob", `UPDATE alice_t SET n = 2`); err == nil {
		t.Error("stranger updated private table")
	}
	r := mustQuery(t, w, "alice", `UPDATE alice_t SET n = 5`)
	if r.Affected != 1 {
		t.Errorf("owner update affected = %d", r.Affected)
	}
}

func TestWarehousePersistence(t *testing.T) {
	dir := t.TempDir()
	wrapper := etl.NewWrapper(ontology.Standard())
	w, err := OpenDurable(dir, 256, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	repos := twoRepos(t, 15)
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	// User space content persists too.
	if err := w.CreateUserTable("alice", db.Schema{
		Table:   "alice_p",
		Columns: []db.Column{{Name: "note", Type: db.TString}},
	}); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, w, "alice", `INSERT INTO alice_p VALUES ('persisted note')`)
	if err := w.ShareTable("alice", "alice_p"); err != nil {
		t.Fatal(err)
	}
	beforeCount := w.CountPublic()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log is replayed, no save step was needed.
	w2, err := OpenDurable(dir, 256, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.CountPublic(); got != beforeCount {
		t.Errorf("public entities after reopen = %d, want %d", got, beforeCount)
	}
	// Queries (including algebra UDFs) still work.
	r := mustQuery(t, w2, "bob", `SELECT id, length(translate(splice(transcribe(gene)))) FROM genes LIMIT 1`)
	if len(r.Rows) != 1 {
		t.Errorf("pipeline after reopen = %v", r.Rows)
	}
	// Ownership and sharing survived.
	r = mustQuery(t, w2, "bob", `SELECT note FROM alice_p`)
	if len(r.Rows) != 1 || r.Rows[0][0] != "persisted note" {
		t.Errorf("shared user table after reopen = %v", r.Rows)
	}
	if _, err := w2.Query(context.Background(), "bob", `INSERT INTO alice_p VALUES ('x')`); err == nil {
		t.Error("ownership lost across reopen")
	}
	// Maintenance continues on the reopened warehouse.
	det, err := etl.NewSnapshotDiffMonitor(context.Background(), repos[1])
	if err != nil {
		t.Fatal(err)
	}
	repos[1].ApplyRandomUpdates(5, 4)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.ApplyDeltas(context.Background(), deltas); err != nil {
		t.Fatal(err)
	}
	// ... and the maintenance is durable too: a third session sees it.
	afterCount := w2.CountPublic()
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenDurable(dir, 256, wrapper)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	if got := w3.CountPublic(); got != afterCount {
		t.Errorf("public entities after maintenance and reopen = %d, want %d", got, afterCount)
	}
}

func TestAssembleGenomes(t *testing.T) {
	w := newWarehouse(t)
	repos := twoRepos(t, 30) // 10 genes, one organism
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	stats, err := w.AssembleGenomes(4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Organisms != 1 || stats.GenesPlaced != 10 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Chromosomes != 3 { // ceil(10/4)
		t.Errorf("chromosomes = %d", stats.Chromosomes)
	}
	// Chromosome-level ops through SQL.
	r := mustQuery(t, w, "u", `SELECT id, locuscount(chromosome), length(chromosome) FROM chromosomes ORDER BY id`)
	if len(r.Rows) != 3 {
		t.Fatalf("chromosome rows = %v", r.Rows)
	}
	totalLoci := int64(0)
	for _, row := range r.Rows {
		totalLoci += row[1].(int64)
		if row[2].(int64) == 0 {
			t.Errorf("empty chromosome %v", row[0])
		}
	}
	if totalLoci != 10 {
		t.Errorf("total loci = %d", totalLoci)
	}
	// Genome row references all chromosomes.
	r = mustQuery(t, w, "u", `SELECT organism(genome), chromosomecount(genome) FROM genomes`)
	if len(r.Rows) != 1 || r.Rows[0][1].(int64) != 3 {
		t.Errorf("genome rows = %v", r.Rows)
	}
	// extractgene round-trips: cutting a locus back out yields the original
	// gene sequence, including reverse-strand placements.
	r = mustQuery(t, w, "u", `SELECT chromosome FROM chromosomes`)
	for _, row := range r.Rows {
		chrom := row[0].(gdt.Chromosome)
		for _, locus := range chrom.Loci {
			rg := mustQuery(t, w, "u",
				fmt.Sprintf(`SELECT gene FROM genes WHERE id = '%s'`, locus.GeneID))
			if len(rg.Rows) != 1 {
				t.Fatalf("gene %s missing", locus.GeneID)
			}
			orig := rg.Rows[0][0].(gdt.Gene)
			re := mustQuery(t, w, "u", fmt.Sprintf(
				`SELECT geneseq(extractgene(chromosome, '%s')) FROM chromosomes WHERE id = '%s'`,
				locus.GeneID, chrom.ID))
			got := re.Rows[0][0].(gdt.DNA)
			if !got.Seq.Equal(orig.Seq) {
				t.Errorf("extractgene(%s) mismatch (reverse=%v)", locus.GeneID, locus.Reverse)
			}
		}
	}
	// Assembly tables are read-only public space.
	if _, err := w.Query(context.Background(), "u", `DELETE FROM chromosomes`); err == nil {
		t.Error("user deleted from chromosomes")
	}
	// Re-assembly replaces rather than duplicates.
	if _, err := w.AssembleGenomes(4); err != nil {
		t.Fatal(err)
	}
	r = mustQuery(t, w, "u", `SELECT COUNT(*) FROM chromosomes`)
	if r.Rows[0][0].(int64) != 3 {
		t.Errorf("re-assembly duplicated rows: %v", r.Rows)
	}
	// Validation.
	if _, err := w.AssembleGenomes(0); err == nil {
		t.Error("genesPerChromosome=0 accepted")
	}
}

func TestFullReloadMatchesSource(t *testing.T) {
	w := newWarehouse(t)
	repo := sources.NewRepo("src", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(600, sources.GenOptions{N: 40}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	repo.ApplyRandomUpdates(13, 20)
	if err := w.FullReload([]*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, w, repo)
	// Reload twice is idempotent.
	if err := w.FullReload([]*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	assertMirrors(t, w, repo)
}

func TestUpsertMergesAcrossSourcesIncrementally(t *testing.T) {
	// Load from the clean source only; then an update arrives from a noisy
	// second source for the same entity: the warehouse must keep the
	// higher-quality primary and record the noisy one as an alternative.
	w := newWarehouse(t)
	clean := sources.NewRepo("clean", sources.FormatCSV, sources.CapQueryable,
		sources.Generate(700, sources.GenOptions{N: 6}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{clean}); err != nil {
		t.Fatal(err)
	}
	noisyRecs := sources.Generate(700, sources.GenOptions{N: 6, ErrorRate: 1})
	rec := noisyRecs[1] // fragment (not a gene), mutated + low quality
	d := etl.Delta{Source: "noisy", Kind: sources.MutInsert, ID: rec.ID, After: &rec, Tick: 1}
	if _, err := w.ApplyDeltas(context.Background(), []etl.Delta{d}); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, w, "u", fmt.Sprintf(`SELECT source, nsources, quality FROM fragments WHERE id = '%s'`, rec.ID))
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !strings.Contains(r.Rows[0][0].(string), "clean") {
		t.Errorf("primary source = %v", r.Rows[0][0])
	}
	if r.Rows[0][2].(float64) < 0.9 {
		t.Errorf("noisy observation won: quality %v", r.Rows[0][2])
	}
	ra := mustQuery(t, w, "u", fmt.Sprintf(`SELECT provenance FROM fragment_alts WHERE id = '%s'`, rec.ID))
	if len(ra.Rows) != 1 || ra.Rows[0][0] != "noisy" {
		t.Errorf("alternative = %v", ra.Rows)
	}
	// A further update from the noisy source replaces its own alternative,
	// not the clean primary.
	rec2 := rec
	rec2.Version++
	rec2.Description = "revised"
	d2 := etl.Delta{Source: "noisy", Kind: sources.MutUpdate, ID: rec.ID, Before: &rec, After: &rec2, Tick: 2}
	if _, err := w.ApplyDeltas(context.Background(), []etl.Delta{d2}); err != nil {
		t.Fatal(err)
	}
	ra = mustQuery(t, w, "u", fmt.Sprintf(`SELECT provenance FROM fragment_alts WHERE id = '%s'`, rec.ID))
	if len(ra.Rows) != 1 {
		t.Errorf("alternatives after re-update = %v", ra.Rows)
	}
}

func TestApplyDeltaErrors(t *testing.T) {
	w := newWarehouse(t)
	// Insert delta without after-image.
	d := etl.Delta{Source: "s", Kind: sources.MutInsert, ID: "x"}
	if _, err := w.ApplyDeltas(context.Background(), []etl.Delta{d}); err == nil {
		t.Error("insert delta without after accepted")
	}
	// Delete of an unknown entity is a harmless no-op.
	del := etl.Delta{Source: "s", Kind: sources.MutDelete, ID: "ghost"}
	if _, err := w.ApplyDeltas(context.Background(), []etl.Delta{del}); err != nil {
		t.Errorf("delete of unknown entity errored: %v", err)
	}
}

func TestInitialLoadMatchedResolvesAliases(t *testing.T) {
	w := newWarehouse(t)
	// Same biology under two accession schemes.
	repos := []*sources.Repo{
		sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
			sources.Generate(321, sources.GenOptions{N: 12, IDPrefix: "GBK"})),
		sources.NewRepo("embl1", sources.FormatFASTA, sources.CapQueryable,
			sources.Generate(321, sources.GenOptions{N: 12, IDPrefix: "EMB"})),
	}
	istats, mstats, err := w.InitialLoadMatched(repos, etl.MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mstats.ExactMerges != 12 {
		t.Errorf("match stats = %+v", mstats)
	}
	if w.CountPublic() != 12 {
		t.Errorf("entities = %d, want 12 (24 observations folded)", w.CountPublic())
	}
	if istats.Observations != 24 {
		t.Errorf("integration stats = %+v", istats)
	}
	// The crossrefs table answers alias lookups through SQL...
	r := mustQuery(t, w, "u", `SELECT COUNT(*) FROM crossrefs`)
	if r.Rows[0][0].(int64) != 12 {
		t.Errorf("crossrefs = %v", r.Rows)
	}
	// ...and through the API, in both directions.
	canon, err := w.ResolveAccession("GBK000005")
	if err != nil || canon != "EMB000005" {
		t.Errorf("ResolveAccession(GBK000005) = %q, %v", canon, err)
	}
	canon, err = w.ResolveAccession("EMB000005")
	if err != nil || canon != "EMB000005" {
		t.Errorf("ResolveAccession(EMB000005) = %q, %v", canon, err)
	}
	// The resolved entity is queryable with its full provenance.
	rr := mustQuery(t, w, "u", fmt.Sprintf(`SELECT source, nsources FROM fragments WHERE id = '%s'`, canon))
	if len(rr.Rows) != 1 || rr.Rows[0][1].(int64) != 2 {
		t.Errorf("merged entity = %v", rr.Rows)
	}
	// crossrefs is public-space read-only.
	if _, err := w.Query(context.Background(), "u", `DELETE FROM crossrefs`); err == nil {
		t.Error("user deleted crossrefs")
	}
}

func TestResolveAccessionWithoutMatching(t *testing.T) {
	w := newWarehouse(t)
	// No crossrefs table: accessions resolve to themselves.
	got, err := w.ResolveAccession("ANY123")
	if err != nil || got != "ANY123" {
		t.Errorf("ResolveAccession = %q, %v", got, err)
	}
}

// TestLongSoakMaintenance runs many rounds of concurrent multi-source
// change detection and incremental maintenance, verifying at the end that
// the warehouse exactly mirrors every source.
func TestLongSoakMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	w := newWarehouse(t)
	repos := []*sources.Repo{
		sources.NewRepo("act", sources.FormatCSV, sources.CapActive,
			sources.Generate(1000, sources.GenOptions{N: 60, IDPrefix: "ACT"})),
		sources.NewRepo("log", sources.FormatGenBank, sources.CapLogged,
			sources.Generate(1001, sources.GenOptions{N: 60, IDPrefix: "LOG"})),
		sources.NewRepo("qry", sources.FormatCSV, sources.CapQueryable,
			sources.Generate(1002, sources.GenOptions{N: 60, IDPrefix: "QRY"})),
		sources.NewRepo("ace", sources.FormatACeDB, sources.CapNonQueryable,
			sources.Generate(1003, sources.GenOptions{N: 60, IDPrefix: "ACE"})),
		sources.NewRepo("fas", sources.FormatFASTA, sources.CapNonQueryable,
			sources.Generate(1004, sources.GenOptions{N: 60, IDPrefix: "FAS"})),
	}
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	var dets []etl.Detector
	for _, r := range repos {
		d, err := etl.ForRepo(r)
		if err != nil {
			t.Fatal(err)
		}
		if lm, ok := d.(*etl.LogMonitor); ok {
			if _, err := lm.Poll(context.Background()); err != nil { // drain pre-load history
				t.Fatal(err)
			}
		}
		dets = append(dets, d)
	}
	pipe := etl.NewPipeline(dets, w.ApplyDeltas)
	for round := 0; round < 25; round++ {
		for i, r := range repos {
			r.ApplyRandomUpdates(int64(round*31+i), 6)
		}
		if _, err := pipe.Round(context.Background()); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	st := pipe.Stats()
	if st.Rounds != 25 || st.Deltas == 0 {
		t.Errorf("pipeline stats = %d rounds, %d deltas", st.Rounds, st.Deltas)
	}
	wantTotal := 0
	for _, r := range repos {
		assertRecordsPresent(t, w, r.Records())
		wantTotal += len(r.Records())
	}
	if got := w.CountPublic(); got != wantTotal {
		t.Errorf("public entities = %d, sources hold %d", got, wantTotal)
	}
}
