// Warehouse_query is the end-to-end Figure-3 walkthrough: synthetic
// repositories -> ETL (wrap, integrate, load) -> Unifying Database ->
// biologist queries in BiQL with algebra operations, plus user-space
// annotations joined against public data.
package main

import (
	"context"
	"fmt"
	"log"

	"genalg/internal/biql"
	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/ontology"
	"genalg/internal/sources"
	"genalg/internal/warehouse"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three overlapping repositories in different formats; the third is
	// noisy (paper problem B10).
	repos := []*sources.Repo{
		sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
			sources.Generate(7, sources.GenOptions{N: 40})),
		sources.NewRepo("acedb1", sources.FormatACeDB, sources.CapNonQueryable,
			sources.Generate(7, sources.GenOptions{N: 40})),
		sources.NewRepo("trace-archive", sources.FormatFASTA, sources.CapQueryable,
			sources.Generate(7, sources.GenOptions{N: 40, ErrorRate: 0.5})),
	}
	w, err := warehouse.Open(8192, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return err
	}
	stats, err := w.InitialLoad(context.Background(), repos)
	if err != nil {
		return err
	}
	fmt.Printf("ETL: %d observations -> %d entities (%d duplicates removed, %d conflicts kept as alternatives)\n\n",
		stats.Observations, stats.Entities, stats.Duplicates, stats.Conflicts)

	// Biologist queries in BiQL.
	queries := []string{
		`COUNT fragments`,
		`FIND fragments WHERE quality AT LEAST 0.95 SHOW id, quality, source TOP 5`,
		`FIND genes WHERE organism IS "Synthetica demonstrans" SHOW id, length, gc TOP 5`,
		`FIND genes SHOW id, protein TOP 2 AS FASTA`,
	}
	for _, bq := range queries {
		q, err := biql.Parse(bq)
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
		fmt.Printf("BiQL> %s\n%s\n", bq, biql.Render(q, r.Cols, r.Rows))
	}

	// User space: self-generated data joined against the public space
	// (paper requirement C13).
	err = w.CreateUserTable("biologist", db.Schema{
		Table: "my_candidates",
		Columns: []db.Column{
			{Name: "fid", Type: db.TString},
			{Name: "hypothesis", Type: db.TString},
		},
	})
	if err != nil {
		return err
	}
	if _, err := w.Query(context.Background(), "biologist",
		`INSERT INTO my_candidates VALUES ('SYN000003', 'possible regulatory region'), ('SYN000007', 'repeat element?')`); err != nil {
		return err
	}
	r, err := w.Query(context.Background(), "biologist", `SELECT f.id, f.quality, m.hypothesis
		FROM fragments f JOIN my_candidates m ON f.id = m.fid ORDER BY f.id`)
	if err != nil {
		return err
	}
	fmt.Println("public + self-generated data in one query:")
	for _, row := range r.Rows {
		fmt.Printf("  %v  q=%.3f  %v\n", row[0], row[1], row[2])
	}

	// Conflict inspection: the alternatives the integrator retained (C9).
	r, err = w.Query(context.Background(), "biologist", `SELECT id, provenance, confidence FROM fragment_alts ORDER BY id LIMIT 5`)
	if err != nil {
		return err
	}
	fmt.Println("\nretained conflicting alternatives (first 5):")
	for _, row := range r.Rows {
		fmt.Printf("  %v  from %v  confidence %.3f\n", row[0], row[1], row[2])
	}
	return nil
}
