// Genome_assembly exercises the top of the GDT hierarchy: genes loaded from
// the repositories are assembled into chromosome and genome values, stored
// in the public space, and queried with chromosome-level algebra operations
// — including cutting a strand-corrected gene back out of its locus.
package main

import (
	"context"
	"fmt"
	"log"

	"genalg/internal/etl"
	"genalg/internal/gdt"
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
	w, err := warehouse.Open(8192, etl.NewWrapper(ontology.Standard()))
	if err != nil {
		return err
	}
	repo := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapNonQueryable,
		sources.Generate(77, sources.GenOptions{
			N: 45,
			// Two organisms: genes (every 3rd record) alternate between them.
			Organisms: []string{"Synthetica demonstrans", "Synthetica minor"},
		}))
	if _, err := w.InitialLoad(context.Background(), []*sources.Repo{repo}); err != nil {
		return err
	}

	stats, err := w.AssembleGenomes(3)
	if err != nil {
		return err
	}
	fmt.Printf("assembled %d organisms: %d chromosomes carrying %d genes\n\n",
		stats.Organisms, stats.Chromosomes, stats.GenesPlaced)

	// Genome-level view.
	r, err := w.Query(context.Background(), "biologist",
		`SELECT organism(genome), chromosomecount(genome) FROM genomes ORDER BY organism(genome)`)
	if err != nil {
		return err
	}
	fmt.Println("genomes:")
	for _, row := range r.Rows {
		fmt.Printf("  %-24v %v chromosomes\n", row[0], row[1])
	}

	// Chromosome-level view with algebra ops in SELECT and ORDER BY.
	r, err = w.Query(context.Background(), "biologist",
		`SELECT id, locuscount(chromosome), length(chromosome) FROM chromosomes ORDER BY length(chromosome) DESC LIMIT 5`)
	if err != nil {
		return err
	}
	fmt.Println("\nlargest chromosomes:")
	for _, row := range r.Rows {
		fmt.Printf("  %-40v %v loci  %v bp\n", row[0], row[1], row[2])
	}

	// Cut a gene back out of its chromosome and push it through the
	// central dogma — four algebra operations composed in one query.
	r, err = w.Query(context.Background(), "biologist", `SELECT chromosome FROM chromosomes LIMIT 1`)
	if err != nil {
		return err
	}
	chrom := r.Rows[0][0].(gdt.Chromosome)
	locus := chrom.Loci[1] // index 1 lies on the reverse strand
	q := fmt.Sprintf(
		`SELECT proteinseq(translate(splice(transcribe(extractgene(chromosome, '%s'))))) FROM chromosomes WHERE id = '%s'`,
		locus.GeneID, chrom.ID)
	r, err = w.Query(context.Background(), "biologist", q)
	if err != nil {
		return err
	}
	fmt.Printf("\ngene %s (reverse strand=%v) cut from %s translates to:\n  %v\n",
		locus.GeneID, locus.Reverse, chrom.ID, r.Rows[0][0])
	return nil
}
