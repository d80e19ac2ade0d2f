package biql

import (
	"context"
	"fmt"

	"genalg/internal/db"
	"strings"
	"testing"

	"genalg/internal/etl"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/warehouse"
)

func TestParseBasicFind(t *testing.T) {
	q, err := Parse(`FIND fragments WHERE sequence CONTAINS "ATTGCCATA" SHOW id, organism TOP 5`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Entity != "fragments" || q.Count {
		t.Errorf("entity = %+v", q)
	}
	if len(q.Conds) != 1 || q.Conds[0].Op != "contains" || q.Conds[0].StrVal != "ATTGCCATA" {
		t.Errorf("conds = %+v", q.Conds)
	}
	if len(q.Fields) != 2 || q.Fields[1] != "organism" || q.Top != 5 {
		t.Errorf("fields = %v top = %d", q.Fields, q.Top)
	}
}

func TestParseDefaults(t *testing.T) {
	q, err := Parse(`FIND genes`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Fields) != 1 || q.Fields[0] != "id" || q.Format != FormatTable {
		t.Errorf("defaults = %+v", q)
	}
}

func TestParseCount(t *testing.T) {
	q, err := Parse(`COUNT genes WHERE quality AT LEAST 0.9`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.Count || q.Conds[0].Op != "atleast" || q.Conds[0].NumVal != 0.9 {
		t.Errorf("count query = %+v", q)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`SELECT * FROM x`,
		`FIND`,
		`FIND proteins`, // not a stored entity
		`FIND fragments WHERE`,
		`FIND fragments WHERE sequence CONTAINS ATTG`,  // unquoted
		`FIND fragments WHERE sequence RESEMBLES "AC"`, // missing SCORE
		`FIND fragments WHERE quality AT 5`,
		`FIND fragments WHERE nosuchfield IS "x"`,
		`FIND fragments SHOW nosuchfield`,
		`FIND fragments SHOW protein`, // protein only for genes
		`FIND fragments TOP 0`,
		`FIND fragments AS XML`,
		`COUNT fragments SHOW id`,
		`FIND fragments extra`,
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) succeeded", c)
		}
	}
}

func TestToSQLShapes(t *testing.T) {
	cases := []struct {
		biql string
		want []string
	}{
		{
			`FIND fragments WHERE sequence CONTAINS "ATTGCCATA"`,
			[]string{"SELECT id FROM fragments", "contains(fragment, 'ATTGCCATA')", "ORDER BY id"},
		},
		{
			`FIND genes WHERE organism IS "Synthetica demonstrans" SHOW id, protein`,
			[]string{"proteinseq(translate(splice(transcribe(gene)))) AS protein", "organism = 'Synthetica demonstrans'"},
		},
		{
			`COUNT fragments WHERE quality AT LEAST 0.8`,
			[]string{"SELECT COUNT(*) FROM fragments", "quality >= 0.8"},
		},
		{
			`FIND fragments WHERE sequence RESEMBLES "ACGTACGTAC" SCORE 12 TOP 3`,
			[]string{"resembles(fragment, dna('query', 'ACGTACGTAC'), 12)", "LIMIT 3"},
		},
		{
			`FIND genes WHERE gc AT MOST 0.5 SHOW id, gc`,
			[]string{"gccontent(geneseq(gene)) AS gc", "gccontent(geneseq(gene)) <= 0.5"},
		},
	}
	for _, c := range cases {
		q, err := Parse(c.biql)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.biql, err)
		}
		sql, err := q.ToSQL()
		if err != nil {
			t.Fatalf("ToSQL(%q): %v", c.biql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(sql, w) {
				t.Errorf("ToSQL(%q) = %q missing %q", c.biql, sql, w)
			}
		}
	}
}

func TestSQLInjectionEscaped(t *testing.T) {
	q, err := Parse(`FIND fragments WHERE organism IS "it's'; DELETE FROM fragments"`)
	if err != nil {
		t.Fatal(err)
	}
	sql, err := q.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "it''s''; DELETE") {
		t.Errorf("escaping failed: %q", sql)
	}
}

// end-to-end: BiQL against a loaded warehouse.
func loadedWarehouse(t testing.TB) (*warehouse.Warehouse, []sources.Record) {
	w, err := warehouse.Open(2048, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		t.Fatal(err)
	}
	repo := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
		sources.Generate(900, sources.GenOptions{N: 30}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		t.Fatal(err)
	}
	return w, repo.Records()
}

func runBiQL(t testing.TB, w *warehouse.Warehouse, biqlText string) (*Query, []string, [][]any) {
	t.Helper()
	q, err := Parse(biqlText)
	if err != nil {
		t.Fatalf("Parse(%q): %v", biqlText, err)
	}
	sql, err := q.ToSQL()
	if err != nil {
		t.Fatalf("ToSQL: %v", err)
	}
	r, err := w.Query(context.Background(), "biologist", sql)
	if err != nil {
		t.Fatalf("warehouse query %q: %v", sql, err)
	}
	rows := make([][]any, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = row
	}
	return q, r.Cols, rows
}

func TestEndToEndContains(t *testing.T) {
	w, recs := loadedWarehouse(t)
	var frag sources.Record
	for _, r := range recs {
		if r.ExonSpec == "" {
			frag = r
			break
		}
	}
	pat := frag.Sequence[30:58]
	q, cols, rows := runBiQL(t, w, fmt.Sprintf(`FIND fragments WHERE sequence CONTAINS "%s" SHOW id, length`, pat))
	_ = q
	if len(cols) != 2 {
		t.Fatalf("cols = %v", cols)
	}
	found := false
	for _, row := range rows {
		if row[0] == frag.ID {
			found = true
			if row[1].(int64) != int64(len(frag.Sequence)) {
				t.Errorf("length = %v", row[1])
			}
		}
	}
	if !found {
		t.Errorf("target fragment not found: %v", rows)
	}
}

func TestEndToEndProteinProjection(t *testing.T) {
	w, _ := loadedWarehouse(t)
	_, cols, rows := runBiQL(t, w, `FIND genes SHOW id, protein TOP 4`)
	if len(rows) != 4 || len(cols) != 2 {
		t.Fatalf("rows = %d cols = %v", len(rows), cols)
	}
	for _, row := range rows {
		prot := row[1].(string)
		if len(prot) == 0 || prot[0] != 'M' {
			t.Errorf("protein %q does not start with Met", prot)
		}
	}
}

func TestEndToEndCount(t *testing.T) {
	w, _ := loadedWarehouse(t)
	_, _, rows := runBiQL(t, w, `COUNT genes`)
	if len(rows) != 1 || rows[0][0].(int64) != 10 {
		t.Errorf("COUNT genes = %v", rows)
	}
	_, _, rows = runBiQL(t, w, `COUNT fragments WHERE quality AT LEAST 0.95`)
	n := rows[0][0].(int64)
	if n < 1 || n > 20 {
		t.Errorf("quality-filtered count = %d", n)
	}
}

func TestRenderTable(t *testing.T) {
	w, _ := loadedWarehouse(t)
	q, cols, rows := runBiQL(t, w, `FIND genes SHOW id, quality TOP 3`)
	out := Render(q, cols, toDBRows(rows))
	if !strings.Contains(out, "id") || !strings.Contains(out, "(3 rows)") {
		t.Errorf("table = %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header, separator, 3 rows, count
		t.Errorf("table lines = %d:\n%s", len(lines), out)
	}
}

func TestRenderFASTA(t *testing.T) {
	w, _ := loadedWarehouse(t)
	q, cols, rows := runBiQL(t, w, `FIND genes SHOW id, protein TOP 2 AS FASTA`)
	out := Render(q, cols, toDBRows(rows))
	if strings.Count(out, ">") != 2 {
		t.Errorf("fasta headers = %d:\n%s", strings.Count(out, ">"), out)
	}
	if !strings.Contains(out, "id=") {
		t.Errorf("fasta header lacks id: %q", out)
	}
	// Body lines are protein letters.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, ">") {
			continue
		}
		if !isSeqLike(line) {
			t.Errorf("fasta body line %q not sequence-like", line)
		}
	}
}

func toDBRows(rows [][]any) []db.Row {
	out := make([]db.Row, len(rows))
	for i, r := range rows {
		out[i] = db.Row(r)
	}
	return out
}

func TestBuilderMirrorsParser(t *testing.T) {
	built, err := Find("genes").
		WhereIs("organism", "Synthetica demonstrans").
		WhereContains("ATGGC").
		Show("id", "protein").
		Top(5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(`FIND genes WHERE organism IS "Synthetica demonstrans" AND sequence CONTAINS "ATGGC" SHOW id, protein TOP 5`)
	if err != nil {
		t.Fatal(err)
	}
	sqlBuilt, err := built.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	sqlParsed, err := parsed.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	if sqlBuilt != sqlParsed {
		t.Errorf("builder SQL %q != parsed SQL %q", sqlBuilt, sqlParsed)
	}
}

func TestBuilderValidation(t *testing.T) {
	if _, err := Find("proteins").Build(); err == nil {
		t.Error("bad entity accepted")
	}
	if _, err := Count("genes").Show("id").Build(); err == nil {
		t.Error("COUNT with SHOW accepted")
	}
	if _, err := Find("fragments").Show("protein").Build(); err == nil {
		t.Error("protein field for fragments accepted")
	}
	if _, err := Find("genes").Top(0).Build(); err == nil {
		t.Error("TOP 0 accepted")
	}
	// Defaults applied.
	q, err := Find("fragments").WhereAtLeast("quality", 0.9).Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Fields) != 1 || q.Fields[0] != "id" {
		t.Errorf("default fields = %v", q.Fields)
	}
}

func TestBuilderEndToEnd(t *testing.T) {
	w, _ := loadedWarehouse(t)
	q, err := Count("fragments").WhereAtLeast("quality", 0.0).Build()
	if err != nil {
		t.Fatal(err)
	}
	sql, err := q.ToSQL()
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.Query(context.Background(), "u", sql)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].(int64) != 20 {
		t.Errorf("count = %v", r.Rows)
	}
	// FASTA rendering through the builder.
	q2, err := Find("genes").Show("id", "protein").Top(1).AsFASTA().Build()
	if err != nil {
		t.Fatal(err)
	}
	sql2, _ := q2.ToSQL()
	r2, err := w.Query(context.Background(), "u", sql2)
	if err != nil {
		t.Fatal(err)
	}
	out := Render(q2, r2.Cols, r2.Rows)
	if !strings.HasPrefix(out, ">") {
		t.Errorf("FASTA output = %q", out)
	}
}
