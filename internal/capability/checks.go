package capability

import (
	"context"
	"fmt"
	"strings"

	"genalg/internal/biql"
	"genalg/internal/core"
	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/gdt"
	"genalg/internal/genalgxml"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/warehouse"
)

// NewChecks wires a live check per GenAlg Table-1 cell. Each check builds
// the minimal scenario exercising the claimed capability end-to-end, so
// running Validate(NewChecks()) regenerates Table 1's GenAlg column from
// evidence.
func NewChecks() map[string]Check {
	return map[string]Check{
		"C1":  checkMultiSourceIntegration,
		"C2":  checkCanonicalRepresentation,
		"C3":  checkSingleAccessPoint,
		"C4":  checkBiologistInterface,
		"C5":  checkQueryLanguagePower,
		"C6":  checkAlgebraOperations,
		"C7":  checkComposableResults,
		"C8":  checkReconciliation,
		"C9":  checkUncertainty,
		"C10": checkMultiSourceMerge,
		"C11": checkAnnotations,
		"C12": checkHighLevelTypes,
		"C13": checkUserData,
		"C14": checkUserDefinedFunctions,
		"C15": checkArchival,
	}
}

func loadedWarehouse(n int, noisyRate float64) (*warehouse.Warehouse, []*sources.Repo, error) {
	w, err := warehouse.Open(2048, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return nil, nil, err
	}
	repos := []*sources.Repo{
		sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
			sources.Generate(777, sources.GenOptions{N: n})),
		sources.NewRepo("embl1", sources.FormatFASTA, sources.CapQueryable,
			sources.Generate(777, sources.GenOptions{N: n, ErrorRate: noisyRate})),
	}
	if _, err := w.InitialLoad(context.Background(), repos); err != nil {
		return nil, nil, err
	}
	return w, repos, nil
}

func checkMultiSourceIntegration() error {
	w, _, err := loadedWarehouse(12, 0.3)
	if err != nil {
		return err
	}
	// One query answers over both sources without the user naming either.
	r, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM fragments`)
	if err != nil {
		return err
	}
	if r.Rows[0][0].(int64) == 0 {
		return fmt.Errorf("no integrated fragments")
	}
	return nil
}

func checkCanonicalRepresentation() error {
	// Every format lands on the same GDT representation, and GenAlgXML
	// round-trips it.
	wrap := etl.NewWrapper(ontology.Standard())
	recs := sources.Generate(3, sources.GenOptions{N: 3})
	for _, f := range []sources.Format{sources.FormatGenBank, sources.FormatFASTA, sources.FormatACeDB, sources.FormatCSV} {
		parsed, err := sources.Parse(f, sources.Render(f, recs))
		if err != nil {
			return err
		}
		entries, errs := wrap.WrapAll(parsed, "x")
		if len(errs) > 0 {
			return errs[0]
		}
		doc := genalgxml.Document{}
		for _, e := range entries {
			doc.Values = append(doc.Values, e.Value)
		}
		data, err := genalgxml.Marshal(doc)
		if err != nil {
			return err
		}
		back, err := genalgxml.Unmarshal(data)
		if err != nil {
			return err
		}
		for i := range doc.Values {
			if !gdt.Equal(doc.Values[i], back.Values[i]) {
				return fmt.Errorf("GenAlgXML round-trip mismatch for %v", f)
			}
		}
	}
	return nil
}

func checkSingleAccessPoint() error {
	// One endpoint (the warehouse Query method) answers over data that
	// originated from sources in different formats and capabilities.
	w, repos, err := loadedWarehouse(12, 0)
	if err != nil {
		return err
	}
	if len(repos) < 2 || repos[0].Format() == repos[1].Format() {
		return fmt.Errorf("test setup lacks format diversity")
	}
	r, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM fragments`)
	if err != nil {
		return err
	}
	if r.Rows[0][0].(int64) == 0 {
		return fmt.Errorf("single access point returned nothing")
	}
	return nil
}

func checkBiologistInterface() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	q, err := biql.Parse(`FIND genes SHOW id, protein TOP 2`)
	if err != nil {
		return err
	}
	sql, err := q.ToSQL()
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "biologist", sql)
	if err != nil {
		return err
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("BiQL returned nothing")
	}
	out := biql.Render(q, r.Cols, r.Rows)
	if !strings.Contains(out, "rows)") {
		return fmt.Errorf("renderer produced no table")
	}
	return nil
}

func checkQueryLanguagePower() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	// Aggregation + UDF + ordering in one statement.
	_, err = w.Query(context.Background(), "u", `SELECT organism, COUNT(*), AVG(gccontent(fragment)) FROM fragments GROUP BY organism ORDER BY COUNT(*) DESC`)
	return err
}

func checkAlgebraOperations() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "u", `SELECT id, length(translate(splice(transcribe(gene)))) FROM genes LIMIT 1`)
	if err != nil {
		return err
	}
	if len(r.Rows) == 0 || r.Rows[0][1].(int64) == 0 {
		return fmt.Errorf("central dogma produced no protein")
	}
	return nil
}

func checkComposableResults() error {
	// A query result (GDT value) feeds another algebra term directly.
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "u", `SELECT gene FROM genes LIMIT 1`)
	if err != nil {
		return err
	}
	g := r.Rows[0][0].(gdt.Gene)
	term, err := core.ParseTerm(w.Kernel.Sig, "gccontent(geneseq(g))", map[string]core.Sort{"g": "gene"})
	if err != nil {
		return err
	}
	v, err := w.Kernel.Alg.Eval(term, core.Env{"g": g})
	if err != nil {
		return err
	}
	if _, ok := v.(float64); !ok {
		return fmt.Errorf("composition result is %T", v)
	}
	return nil
}

func checkReconciliation() error {
	w, _, err := loadedWarehouse(12, 0.5)
	if err != nil {
		return err
	}
	// Duplicates merged: every entity appears once despite two sources.
	r, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM fragments`)
	if err != nil {
		return err
	}
	rg, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM genes`)
	if err != nil {
		return err
	}
	if r.Rows[0][0].(int64)+rg.Rows[0][0].(int64) != 12 {
		return fmt.Errorf("reconciliation failed: %v fragments + %v genes != 12", r.Rows[0][0], rg.Rows[0][0])
	}
	return nil
}

func checkUncertainty() error {
	w, _, err := loadedWarehouse(12, 1)
	if err != nil {
		return err
	}
	// Every conflicting entity retains its alternative.
	r, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM fragment_alts`)
	if err != nil {
		return err
	}
	if r.Rows[0][0].(int64) == 0 {
		return fmt.Errorf("no alternatives retained under full conflict")
	}
	return nil
}

func checkMultiSourceMerge() error {
	w, _, err := loadedWarehouse(12, 0)
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "u", `SELECT COUNT(*) FROM fragments WHERE nsources = 2`)
	if err != nil {
		return err
	}
	if r.Rows[0][0].(int64) == 0 {
		return fmt.Errorf("no multi-source entities")
	}
	return nil
}

func checkAnnotations() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	err = w.CreateUserTable("alice", db.Schema{
		Table: "alice_ann",
		Columns: []db.Column{
			{Name: "id", Type: db.TString},
			{Name: "ann", Type: db.TOpaque, UDTName: "annotation"},
		},
	})
	if err != nil {
		return err
	}
	_, err = w.Query(context.Background(), "alice", `INSERT INTO alice_ann VALUES ('a1', annotation('a1', 'SYN000001', 10, 40, 'alice', 'promoter candidate'))`)
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "alice", `SELECT ann FROM alice_ann`)
	if err != nil {
		return err
	}
	if _, ok := r.Rows[0][0].(gdt.Annotation); !ok {
		return fmt.Errorf("annotation not stored as GDT")
	}
	return nil
}

func checkHighLevelTypes() error {
	// The shell vocabulary is biological: sorts and operations, not bytes.
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	sorts := w.Kernel.Sig.Sorts()
	want := map[string]bool{"gene": true, "protein": true, "mrna": true}
	for _, s := range sorts {
		delete(want, string(s))
	}
	if len(want) != 0 {
		return fmt.Errorf("missing biological sorts: %v", want)
	}
	return nil
}

func checkUserData() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	err = w.CreateUserTable("alice", db.Schema{
		Table: "alice_own",
		Columns: []db.Column{
			{Name: "id", Type: db.TString},
			{Name: "f", Type: db.TOpaque, UDTName: "dna"},
		},
	})
	if err != nil {
		return err
	}
	if _, err := w.Query(context.Background(), "alice", `INSERT INTO alice_own VALUES ('mine', dna('mine', 'ACGTACGTACGT'))`); err != nil {
		return err
	}
	// Self-generated data joins against public data in one query.
	r, err := w.Query(context.Background(), "alice", `SELECT a.id, f.id FROM alice_own a, fragments f LIMIT 1`)
	if err != nil {
		return err
	}
	if len(r.Rows) == 0 {
		return fmt.Errorf("user-public join empty")
	}
	return nil
}

func checkUserDefinedFunctions() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	// Register a new evaluation function at runtime and call it from SQL.
	err = w.DB.Funcs.Register(db.ExternalFunc{
		Name: "atcontent", NArgs: 1,
		Fn: func(args []any) (any, error) {
			d, ok := args[0].(gdt.DNA)
			if !ok {
				return nil, fmt.Errorf("atcontent wants dna")
			}
			return 1 - d.Seq.GCContent(), nil
		},
	})
	if err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "u", `SELECT atcontent(fragment) FROM fragments LIMIT 1`)
	if err != nil {
		return err
	}
	if _, ok := r.Rows[0][0].(float64); !ok {
		return fmt.Errorf("UDF result type %T", r.Rows[0][0])
	}
	return nil
}

func checkArchival() error {
	w, _, err := loadedWarehouse(9, 0)
	if err != nil {
		return err
	}
	n, err := w.ArchiveSource("genbank1", 1)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("nothing archived")
	}
	restored, err := w.RestoreFromArchive("genbank1")
	if err != nil {
		return err
	}
	if len(restored) != n {
		return fmt.Errorf("restored %d of %d", len(restored), n)
	}
	return nil
}
