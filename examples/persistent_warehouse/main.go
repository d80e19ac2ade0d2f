// Persistent_warehouse demonstrates the durable Unifying Database: create a
// file-backed warehouse, load it, annotate it in user space, save, reopen,
// and continue maintenance — the paper's long-term vision of a database
// biologists keep rather than rebuild.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

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
	dir, err := os.MkdirTemp("", "genalg-warehouse-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println("warehouse directory:", dir)
	wrapper := etl.NewWrapper(ontology.Standard())

	// --- session 1: create, load, annotate, save ---
	w, err := warehouse.OpenFile(dir, 1024, wrapper)
	if err != nil {
		return err
	}
	repo := sources.NewRepo("genbank1", sources.FormatGenBank, sources.CapLogged,
		sources.Generate(3, sources.GenOptions{N: 50}))
	stats, err := w.InitialLoad(context.Background(), []*sources.Repo{repo})
	if err != nil {
		return err
	}
	fmt.Printf("session 1: loaded %d entities\n", stats.Entities)
	err = w.CreateUserTable("biologist", db.Schema{
		Table: "lab_notes",
		Columns: []db.Column{
			{Name: "target", Type: db.TString},
			{Name: "note", Type: db.TString},
		},
	})
	if err != nil {
		return err
	}
	if _, err := w.Query(context.Background(), "biologist",
		`INSERT INTO lab_notes VALUES ('SYN000004', 'candidate for knockout study')`); err != nil {
		return err
	}
	if err := w.Save(dir); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Println("session 1: saved and closed")

	// --- session 2: reopen, verify, continue maintenance ---
	w2, err := warehouse.OpenExisting(dir, 1024, wrapper)
	if err != nil {
		return err
	}
	defer w2.Close()
	r, err := w2.Query(context.Background(), "biologist", `SELECT n.target, n.note, f.quality
		FROM lab_notes n JOIN fragments f ON n.target = f.id`)
	if err != nil {
		return err
	}
	fmt.Println("session 2: notes rejoined with public data:")
	for _, row := range r.Rows {
		fmt.Printf("  %v  %q  quality=%.3f\n", row[0], row[1], row[2])
	}

	// The source moved on while we were away; catch up incrementally.
	det, err := etl.NewLogMonitor(repo)
	if err != nil {
		return err
	}
	if _, err := det.Poll(context.Background()); err != nil { // drain pre-save history
		return err
	}
	repo.ApplyRandomUpdates(9, 8)
	deltas, err := det.Poll(context.Background())
	if err != nil {
		return err
	}
	if _, err := w2.ApplyDeltas(context.Background(), deltas); err != nil {
		return err
	}
	fmt.Printf("session 2: applied %d deltas; warehouse now holds %d entities\n",
		len(deltas), w2.CountPublic())
	return w2.Save(dir)
}
