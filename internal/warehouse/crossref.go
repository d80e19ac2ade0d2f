package warehouse

import (
	"fmt"
	"sort"

	"genalg/internal/db"
	"genalg/internal/etl"
	"genalg/internal/sources"
)

// TableCrossRefs records accession cross-references produced by
// content-based entity matching: original accessions folded into canonical
// entities (paper Section 5.2's semantic-heterogeneity resolution).
const TableCrossRefs = "crossrefs"

// EnsureCrossRefTable creates the crossrefs table when absent.
func (w *Warehouse) EnsureCrossRefTable() error {
	return w.ensureTable(db.Schema{
		Table: TableCrossRefs,
		Columns: []db.Column{
			{Name: "accession", Type: db.TString, NotNull: true},
			{Name: "canonical", Type: db.TString, NotNull: true},
		},
	}, "accession")
}

// InitialLoadMatched bootstraps the warehouse like InitialLoad but resolves
// cross-repository accession aliases by sequence content first. The
// observations are stored under their canonical IDs; original accessions
// remain queryable through the crossrefs table.
func (w *Warehouse) InitialLoadMatched(repos []*sources.Repo, opts etl.MatchOptions) (etl.IntegrationStats, etl.MatchStats, error) {
	var entries []etl.Entry
	for _, r := range repos {
		recs, err := sources.Parse(r.Format(), r.Snapshot())
		if err != nil {
			return etl.IntegrationStats{}, etl.MatchStats{}, fmt.Errorf("warehouse: loading %s: %w", r.Name(), err)
		}
		es, errs := w.wrapper.WrapAll(recs, r.Name())
		if len(errs) > 0 {
			return etl.IntegrationStats{}, etl.MatchStats{}, fmt.Errorf("warehouse: wrapping %s: %d failures, first: %v", r.Name(), len(errs), errs[0])
		}
		entries = append(entries, es...)
	}
	matched, xref, mstats := etl.MatchEntities(entries, opts)
	istats, err := w.loadEntries(matched)
	if err != nil {
		return istats, mstats, err
	}
	if err := w.EnsureCrossRefTable(); err != nil {
		return istats, mstats, err
	}
	accessions := make([]string, 0, len(xref))
	for acc := range xref {
		accessions = append(accessions, acc)
	}
	sort.Strings(accessions)
	muts := make([]db.Mutation, 0, len(accessions))
	for _, acc := range accessions {
		muts = append(muts, db.Mutation{Kind: db.MutInsert, Row: db.Row{acc, xref[acc]}})
	}
	if err := w.DB.ApplyDML(TableCrossRefs, muts); err != nil {
		return istats, mstats, err
	}
	return istats, mstats, nil
}

// ResolveAccession maps any accession — canonical or folded alias — to the
// canonical entity ID.
func (w *Warehouse) ResolveAccession(acc string) (string, error) {
	tbl, ok := w.DB.Table(TableCrossRefs)
	if !ok {
		return acc, nil
	}
	rids, err := tbl.IndexLookup("accession", acc)
	if err != nil {
		return "", err
	}
	if len(rids) == 0 {
		return acc, nil
	}
	row, err := tbl.Get(rids[0])
	if err != nil {
		return "", err
	}
	return row[1].(string), nil
}
