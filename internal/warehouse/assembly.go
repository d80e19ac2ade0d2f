package warehouse

import (
	"fmt"
	"sort"
	"strings"

	"genalg/internal/db"
	"genalg/internal/gdt"
	"genalg/internal/seq"
	"genalg/internal/storage"
)

// Additional public tables populated by AssembleGenomes, exercising the
// chromosome and genome GDTs of the paper's type system end-to-end.
const (
	TableChromosomes = "chromosomes"
	TableGenomes     = "genomes"
)

// interGeneSpacer separates concatenated gene sequences on an assembled
// chromosome, mimicking intergenic regions.
const interGeneSpacer = "TTTTAAAATTTTAAAA"

// EnsureAssemblyTables creates the chromosomes and genomes tables when
// absent. Separate from the integrated schema so warehouses that never
// assembled genomes do not carry them.
func (w *Warehouse) EnsureAssemblyTables() error {
	err := w.ensureTable(db.Schema{
		Table: TableChromosomes,
		Columns: []db.Column{
			{Name: "id", Type: db.TString, NotNull: true},
			{Name: "organism", Type: db.TString},
			{Name: "ngenes", Type: db.TInt},
			{Name: "chromosome", Type: db.TOpaque, UDTName: "chromosome"},
		},
	}, "id")
	if err != nil {
		return err
	}
	return w.ensureTable(db.Schema{
		Table: TableGenomes,
		Columns: []db.Column{
			{Name: "id", Type: db.TString, NotNull: true},
			{Name: "organism", Type: db.TString},
			{Name: "genome", Type: db.TOpaque, UDTName: "genome"},
		},
	}, "")
}

// AssemblyStats reports what AssembleGenomes produced.
type AssemblyStats struct {
	Organisms   int
	Chromosomes int
	GenesPlaced int
}

// AssembleGenomes builds chromosome and genome GDT values from the loaded
// genes: per organism, genes are placed on chromosomes of at most
// genesPerChromosome loci (concatenated with intergenic spacers, alternating
// strands), and a genome value references the chromosomes. Results land in
// the chromosomes/genomes public tables, replacing any previous assembly.
func (w *Warehouse) AssembleGenomes(genesPerChromosome int) (AssemblyStats, error) {
	if genesPerChromosome < 1 {
		return AssemblyStats{}, fmt.Errorf("warehouse: genesPerChromosome must be positive")
	}
	if err := w.EnsureAssemblyTables(); err != nil {
		return AssemblyStats{}, err
	}
	genesTbl, _ := w.DB.Table(TableGenes)
	byOrganism := map[string][]gdt.Gene{}
	err := genesTbl.Scan(nil, func(_ storage.RID, row db.Row) bool {
		g := row[8].(gdt.Gene)
		org := row[1].(string)
		byOrganism[org] = append(byOrganism[org], g)
		return true
	})
	if err != nil {
		return AssemblyStats{}, err
	}
	// Replace previous assembly.
	for _, tname := range []string{TableChromosomes, TableGenomes} {
		tbl, _ := w.DB.Table(tname)
		var rids []storage.RID
		if err := tbl.Scan(db.KeepColumns(len(tbl.Schema().Columns)), func(rid storage.RID, _ db.Row) bool {
			rids = append(rids, rid)
			return true
		}); err != nil {
			return AssemblyStats{}, err
		}
		muts := make([]db.Mutation, 0, len(rids))
		for _, rid := range rids {
			muts = append(muts, db.Mutation{Kind: db.MutDelete, RID: rid})
		}
		if err := w.DB.ApplyDML(tname, muts); err != nil {
			return AssemblyStats{}, err
		}
	}

	spacer := seq.MustNucSeq(seq.AlphaDNA, interGeneSpacer)
	stats := AssemblyStats{Organisms: len(byOrganism)}
	orgs := make([]string, 0, len(byOrganism))
	for org := range byOrganism {
		orgs = append(orgs, org)
	}
	sort.Strings(orgs)
	for _, org := range orgs {
		genes := byOrganism[org]
		sort.Slice(genes, func(i, j int) bool { return genes[i].ID < genes[j].ID })
		var chromIDs []string
		for chunk := 0; chunk*genesPerChromosome < len(genes); chunk++ {
			lo := chunk * genesPerChromosome
			hi := lo + genesPerChromosome
			if hi > len(genes) {
				hi = len(genes)
			}
			chrom, err := assembleChromosome(org, chunk+1, genes[lo:hi], spacer)
			if err != nil {
				return stats, err
			}
			err = w.DB.ApplyDML(TableChromosomes, []db.Mutation{{
				Kind: db.MutInsert, Row: db.Row{chrom.ID, org, int64(len(chrom.Loci)), chrom},
			}})
			if err != nil {
				return stats, err
			}
			chromIDs = append(chromIDs, chrom.ID)
			stats.Chromosomes++
			stats.GenesPlaced += len(chrom.Loci)
		}
		genome := gdt.Genome{
			ID:            genomeID(org),
			Organism:      org,
			ChromosomeIDs: chromIDs,
		}
		err := w.DB.ApplyDML(TableGenomes, []db.Mutation{{
			Kind: db.MutInsert, Row: db.Row{genome.ID, org, genome},
		}})
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

func genomeID(org string) string {
	return "genome:" + strings.ReplaceAll(strings.ToLower(org), " ", "_")
}

// assembleChromosome concatenates the genes with spacers, alternating
// strand orientation to exercise the reverse-strand code paths.
func assembleChromosome(org string, number int, genes []gdt.Gene, spacer seq.NucSeq) (gdt.Chromosome, error) {
	chrom := gdt.Chromosome{
		ID:   fmt.Sprintf("%s.chr%d", genomeID(org), number),
		Name: fmt.Sprintf("chr%d", number),
	}
	cur := spacer
	for i, g := range genes {
		placed := g.Seq
		reverse := i%2 == 1
		if reverse {
			placed = placed.ReverseComplement()
		}
		start := cur.Len()
		joined, err := cur.Append(placed)
		if err != nil {
			return gdt.Chromosome{}, err
		}
		joined, err = joined.Append(spacer)
		if err != nil {
			return gdt.Chromosome{}, err
		}
		cur = joined
		chrom.Loci = append(chrom.Loci, gdt.GeneLocus{
			GeneID:  g.ID,
			Span:    gdt.Interval{Start: start, End: start + g.Seq.Len()},
			Reverse: reverse,
		})
	}
	chrom.Seq = cur
	return chrom, nil
}
